"""Closed-form Floquet theory of a two-state (spin or pseudospin) target.

The target precesses about one of two effective fields h_u, h_d in the
x-z plane depending on the sensor state.  With precession frequencies
omega_i = |h_i| / 2 and field orientations theta_i, the eigenphase of the
CPMG cell with pulse interval s follows

    cos E(s) = cos(2 w_u s) cos(2 w_d s)
               - sin(2 w_u s) sin(2 w_d s) cos(theta_u - theta_d)

and the bath-averaged coherence after n_p cells is

    L = 1 - 2 F(tau) sin^2(n_p E(tau)),
    F = (cos^2(E(tau)/2) - cos^2(E(tau/2))) / cos^2(E(tau)/2),

an n_p-independent envelope 1 - 2 F under a fast oscillation.  Coherence
dips sit at the roots of cos E(tau/2) = 0, where F = 1 and the dip depth
is set by the level repulsion delta = pi - E(tau_dip).

With a0 = cos(w_u s) cos(w_d s) - sin(w_u s) sin(w_d s) cos(theta_u - theta_d)
= cos E(s/2) and y = sin(w_u s) sin(w_d s) sin(theta_u - theta_d), the
identity cos^2(E(s)/2) = a0^2 + y^2 =: q takes the subtraction out of F:

    F = y^2 / q,   E = 2 arccos(sqrt(q)),

so F keeps full precision up to a true level crossing (E(tau) -> pi,
q -> 0), where it is 0/0.  There F is 0, as in the engine, which puts
the eigenphases +-E of a cell into one cluster once q <= CROSSING_Q.
``two_state_grid`` evaluates these formulas for many models on one
(models, tau) grid; ``coherence_analytic`` and ``envelope`` are its
one-model calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import CapacityError, NumericalConsistencyError, ValidationError, locate
from .linalg import PAULI_X, PAULI_Z

COS_RANGE_TOL = 1e-9
DIP_CONDITION_TOL = 1e-6
# Largest root-bracketing grid of dip_positions (points).  Memory and the
# per-root refinement grow with the grid; at this size a search finds about
# 1.3e4 dips in about 1.5 s and 55 MB (one Xeon core).
MAX_DIP_GRID = 10 ** 6
# regime_classify reports weak coupling (regime I) where |h_u + h_d| / |h_u - h_d|
# is at least this ratio, and anti-alignment (regime II) where it is at most its inverse.
REGIME_THRESHOLD = 10.0
# q = cos^2(E/2) at or below which F = 0: the eigenphases +-E of the cell are
# 2 (pi - E) apart, within engine.PHASE_MATCH_TOL, and form one cluster.
CROSSING_Q = math.sin(engine.PHASE_MATCH_TOL / 4.0) ** 2


@dataclass(frozen=True)
class PseudoField:
    """Effective field (x, 0, z) in rad/s seen by the two-state target."""

    x: float
    z: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.z)):
            raise ValidationError(f"pseudofield components must be finite, got {self}")

    @property
    def omega(self) -> float:
        """Precession frequency, half the field magnitude."""
        return 0.5 * math.hypot(self.x, self.z)

    @property
    def theta(self) -> float:
        """Field orientation from the z axis, atan2(x, z) in (-pi, pi]."""
        return math.atan2(self.x, self.z)

    def vector(self) -> np.ndarray:
        return np.array([self.x, 0.0, self.z])


@dataclass(frozen=True)
class TwoStateModel:
    """Conditional two-state target defined by its pair of effective fields."""

    h_u: PseudoField
    h_d: PseudoField

    @classmethod
    def from_components(cls, x_u: float, z_u: float, x_d: float, z_d: float) -> "TwoStateModel":
        return cls(PseudoField(x_u, z_u), PseudoField(x_d, z_d))

    @classmethod
    def from_angles(cls, omega_u: float, theta_u: float,
                    omega_d: float, theta_d: float) -> "TwoStateModel":
        return cls(PseudoField(2 * omega_u * math.sin(theta_u), 2 * omega_u * math.cos(theta_u)),
                   PseudoField(2 * omega_d * math.sin(theta_d), 2 * omega_d * math.cos(theta_d)))

    @property
    def omega_u(self) -> float:
        return self.h_u.omega

    @property
    def omega_d(self) -> float:
        return self.h_d.omega

    @property
    def theta_u(self) -> float:
        return self.h_u.theta

    @property
    def theta_d(self) -> float:
        return self.h_d.theta

    def hamiltonians(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2x2 conditional Hamiltonians (x sigma_x + z sigma_z) / 2."""
        h_u = 0.5 * (self.h_u.x * PAULI_X + self.h_u.z * PAULI_Z)
        h_d = 0.5 * (self.h_d.x * PAULI_X + self.h_d.z * PAULI_Z)
        return h_u, h_d

    def conditional(self) -> engine.ConditionalHamiltonians:
        h_u, h_d = self.hamiltonians()
        return engine.ConditionalHamiltonians(h_u=h_u, h_d=h_d)


def cos_floquet_phase(model: TwoStateModel, s) -> np.ndarray | float:
    """cos E(s) of the cell with pulse interval s; vectorized over s."""
    s = np.asarray(s, dtype=float)
    au = 2 * model.omega_u * s
    ad = 2 * model.omega_d * s
    k = math.cos(model.theta_u - model.theta_d)
    rhs = np.cos(au) * np.cos(ad) - np.sin(au) * np.sin(ad) * k
    return rhs if rhs.ndim else float(rhs)


def floquet_phase(model: TwoStateModel, s) -> np.ndarray | float:
    """Principal cell eigenphase E(s) in [0, pi]; vectorized over s."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValidationError("pulse interval must be >= 0")
    rhs = np.asarray(cos_floquet_phase(model, s_arr))
    if np.any(np.abs(rhs) > 1.0 + COS_RANGE_TOL):
        raise NumericalConsistencyError(
            f"cos E left [-1, 1] by {np.abs(rhs).max() - 1.0:.3e}")
    e = np.arccos(np.clip(rhs, -1.0, 1.0))
    return e if np.asarray(s).ndim else float(e)


def two_state_grid(models, tau: np.ndarray, quantity: str, n_p: int = 1) -> np.ndarray:
    """``quantity`` of each model over the pulse intervals ``tau``, on one grid.

    'coherence' after n_p cells or the envelope 1 - 2 F, as a
    (len(models), tau.size) array, from F = y^2 / q and E = 2 arccos(sqrt(q))
    at every sample; F is 0 where q <= CROSSING_Q.  Both lie in [-1, 1]
    by construction (y^2 <= q).  A tau <= 0 raises ValidationError with
    ``index`` 0.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):  # every model fails, the first one first
        raise locate(ValidationError("pulse interval must be > 0"), 0)
    au = np.array([m.omega_u for m in models])[:, None] * tau
    ad = np.array([m.omega_d for m in models])[:, None] * tau
    turn = np.array([m.theta_u - m.theta_d for m in models])[:, None]
    sin_sin = np.sin(au) * np.sin(ad)
    a0 = np.cos(au) * np.cos(ad) - sin_sin * np.cos(turn)
    y2 = (sin_sin * np.sin(turn)) ** 2
    q = a0 * a0 + y2
    f = np.divide(y2, q, out=np.zeros_like(q), where=q > CROSSING_Q)
    if quantity == "coherence":
        f *= np.sin(2 * n_p * np.arccos(np.minimum(np.sqrt(q), 1.0))) ** 2
    return 1.0 - 2.0 * f


def _one_model(model: TwoStateModel, tau, quantity: str, n_p: int):
    """``two_state_grid`` of one model, shaped like ``tau`` (a float for a scalar)."""
    tau_arr = np.asarray(tau, dtype=float)
    vals = two_state_grid([model], tau_arr.ravel(), quantity, n_p).reshape(tau_arr.shape)
    return vals if tau_arr.ndim else float(vals)


def coherence_analytic(model: TwoStateModel, tau, n_p: int):
    """Bath-averaged coherence 1 - 2 F sin^2(n_p E) after n_p cells at
    interval tau (vectorized); exactly 1 at a true level crossing."""
    return _one_model(model, tau, "coherence", n_p)


def envelope(model: TwoStateModel, tau):
    """Pulse-number-independent coherence envelope 1 - 2 F(tau) (vectorized)."""
    return _one_model(model, tau, "envelope", 1)


@dataclass(frozen=True)
class DipRecord:
    """One coherence dip: location, harmonic number, level repulsion, depth."""

    tau_dip: float
    harmonic_index: int
    delta: float
    depth: float


def dip_positions(model: TwoStateModel, tau_max: float, n_p: int = 1) -> list[DipRecord]:
    """All dip locations (roots of cos E(tau/2) = 0) in (0, tau_max].

    Roots are bracketed on a scan fine enough not to skip a harmonic and
    refined by Brent's method to double precision (better than 1e-10
    relative).  ``n_p`` only fills the depth field of each record.  A scan
    of more than MAX_DIP_GRID points raises CapacityError.
    """
    # Imported here, not at module level: SciPy is most of a cold start.
    from scipy.optimize import brentq

    if tau_max <= 0:
        raise ValidationError("tau_max must be > 0")
    omega_sum = model.omega_u + model.omega_d
    if omega_sum <= 0:
        return []
    step = min(math.pi / (20.0 * omega_sum), tau_max / 1000.0)
    if not tau_max <= MAX_DIP_GRID * step:
        raise CapacityError(f"dip search over tau up to {tau_max:g} s needs more than "
                            f"{MAX_DIP_GRID:.0e} grid points")
    grid = np.arange(step, tau_max + step, step)
    grid = grid[grid <= tau_max]
    if grid.size == 0:
        return []
    vals = cos_floquet_phase(model, grid / 2.0)
    records = []
    f = lambda t: float(cos_floquet_phase(model, t / 2.0))
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        # To double precision: at rtol 1e-10 the residual of the j-th root
        # grows like j pi 1e-10 and misses DIP_CONDITION_TOL near j = 1e4.
        root = brentq(f, lo, hi, xtol=math.ulp(lo))
        delta, depth = dip_depth(model, root, n_p)
        records.append(DipRecord(tau_dip=root, harmonic_index=len(records) + 1,
                                 delta=delta, depth=depth))
    return records


def dip_depth(model: TwoStateModel, tau_dip: float, n_p: int) -> tuple[float, float]:
    """``level_repulsion`` at ``tau_dip``, which must satisfy the dip
    condition E(tau_dip/2) = pi/2 within 1e-6 rad."""
    miss = abs(float(floquet_phase(model, tau_dip / 2.0)) - math.pi / 2.0)
    if miss > DIP_CONDITION_TOL:
        raise ValidationError(
            f"tau_dip misses the dip condition E(tau/2) = pi/2 by {miss:.3e} rad")
    return level_repulsion(model, tau_dip, n_p)


def level_repulsion(model: TwoStateModel, tau: float, n_p: int) -> tuple[float, float]:
    """Level repulsion delta = |pi - E(tau)| and depth 1 - 2 sin^2(n_p delta)."""
    # delta = pi - E ==> cos(delta) = -cos(E); arccos near +1 keeps small
    # delta at the sqrt(eps) precision floor instead of losing it outright.
    rhs = float(cos_floquet_phase(model, tau))
    delta = math.acos(min(1.0, max(-1.0, -rhs)))
    depth = 1.0 - 2.0 * math.sin(n_p * delta) ** 2
    return delta, depth


def omega_average(model: TwoStateModel) -> float:
    """Precession frequency of the time-averaged field, half |(h_u + h_d)/2|."""
    x_avg = 0.5 * (model.h_u.x + model.h_d.x)
    z_avg = 0.5 * (model.h_u.z + model.h_d.z)
    return 0.5 * math.hypot(x_avg, z_avg)


def avg_hamiltonian_dip(model: TwoStateModel) -> float:
    """First-dip estimate from the time-averaged Hamiltonian.

    tau_bar = pi / (2 sqrt(w_u^2 + w_d^2 + 2 w_u w_d cos(theta_u - theta_d))),
    algebraically identical to pi / (4 omega_average) when both fields share
    the transverse component.
    """
    w_u, w_d = model.omega_u, model.omega_d
    k = math.cos(model.theta_u - model.theta_d)
    arg = w_u * w_u + w_d * w_d + 2 * w_u * w_d * k
    scale = w_u * w_u + w_d * w_d
    if arg <= 1e-28 * max(scale, 1e-300):
        raise ValidationError(
            "averaged Hamiltonian vanishes (anti-aligned equal fields); no dip estimate")
    return math.pi / (2.0 * math.sqrt(arg))


class Regime(enum.Enum):
    """Validity regimes of the averaged-Hamiltonian dip estimate."""

    WEAK_COUPLING_I = "weak_coupling_i"
    ANTIALIGNED_II = "antialigned_ii"
    INTERMEDIATE = "intermediate"


def regime_classify(model: TwoStateModel) -> Regime:
    """Classify by r = |h_u + h_d| / |h_u - h_d| against REGIME_THRESHOLD."""
    h_sum = model.h_u.vector() + model.h_d.vector()
    h_diff = model.h_u.vector() - model.h_d.vector()
    num = float(np.linalg.norm(h_sum))
    den = float(np.linalg.norm(h_diff))
    if den == 0.0:
        return Regime.WEAK_COUPLING_I
    r = num / den
    if r >= REGIME_THRESHOLD:
        return Regime.WEAK_COUPLING_I
    if r <= 1.0 / REGIME_THRESHOLD:
        return Regime.ANTIALIGNED_II
    return Regime.INTERMEDIATE


def diamond_boundaries(model: TwoStateModel) -> tuple[float, float | None]:
    """Boundary curves of the high-decoherence diamonds.

    The sum- and difference-frequency families tau = (2j + 1) pi / (2 S) and
    tau = (2j + 1) pi / (2 D), with S = w_u + w_d and D = |w_u - w_d|, cut
    the (field, tau) plane into cells; every dip lies in a cell where
    cos(S tau) cos(D tau) < 0.  On the curves the envelope is exactly
    -cos(theta_u - theta_d) (sum family) and +cos(theta_u - theta_d)
    (difference family).

    Returns only the j = 0 members, (pi / (2 S), pi / (2 D)); the second
    value is None when the two frequencies coincide.
    """
    w_u, w_d = model.omega_u, model.omega_d
    s = w_u + w_d
    if s <= 0:
        raise ValidationError("diamond boundaries need a non-degenerate model")
    tau_plus = math.pi / (2.0 * s)
    diff = abs(w_d - w_u)
    tau_minus = math.pi / (2.0 * diff) if diff > 0 else None
    return tau_plus, tau_minus
