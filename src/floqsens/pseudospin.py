"""Closed-form Floquet theory of a two-state (spin or pseudospin) target.

The target precesses about one of two effective fields h_u, h_d in the
x-z plane depending on the sensor state.  With precession frequencies
omega_i = |h_i| / 2 and field orientations theta_i, every quantity comes
from the half cell of the CPMG cell with pulse interval s (``_half_cell``):

    a0 = cos(w_u s) cos(w_d s) - sin(w_u s) sin(w_d s) cos(theta_u - theta_d),
    y = sin(w_u s) sin(w_d s) sin(theta_u - theta_d).

a0 = cos E(s/2), at 2 s the paper's cos E(s); q = a0^2 + y^2 = cos^2(E(s)/2):

    E = 2 arccos(sqrt(q)),   delta = pi - E = 2 arcsin(sqrt(q)),   F = y^2 / q.

The bath-averaged coherence after n_p cells is L = 1 - 2 F sin^2(n_p E),
an n_p-independent envelope 1 - 2 F under a fast oscillation.  Coherence
dips sit at the roots of a0(tau) = 0, where F = 1 and the level repulsion
delta sets the depth 1 - 2 sin^2(n_p delta).  No form subtracts nearly
equal numbers: delta keeps an absolute error of a few eps (1 + (w_u + w_d) s)
and F full precision up to a true level crossing (q -> 0).  There F is
0/0 and taken as 0, as in the engine, which puts the eigenphases +-E of
a cell into one cluster once q <= CROSSING_Q.  ``two_state_grid`` gives
coherence or envelope for many models on one (models, tau) grid;
``coherence_analytic`` and ``envelope`` are its one-model calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import CapacityError, ValidationError, locate
from .linalg import PAULI_X, PAULI_Z

DIP_CONDITION_TOL = 1e-6
# Largest root-bracketing grid of dip_positions (points).  Memory and the
# root refinement grow with the grid; at this size a search finds about
# 1.3e4 dips in about 0.85 s and 55 MB (one Xeon core).
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


def _half_cell(models, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a0, y) of the half cell of each model at each pulse interval of the
    one-dimensional ``s``, as two (len(models), s.size) arrays."""
    au = np.array([m.omega_u for m in models])[:, None] * s
    ad = np.array([m.omega_d for m in models])[:, None] * s
    turn = np.array([m.theta_u - m.theta_d for m in models])[:, None]
    sin_sin = np.sin(au) * np.sin(ad)
    return np.cos(au) * np.cos(ad) - sin_sin * np.cos(turn), sin_sin * np.sin(turn)


def _cell(model: TwoStateModel, s) -> tuple[np.ndarray, np.ndarray]:
    """``_half_cell`` of one model, shaped like ``s``; an s that is not finite
    and >= 0 raises ValidationError."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s) & (s >= 0)):
        raise ValidationError("pulse interval must be finite and >= 0")
    return tuple(x.reshape(s.shape) for x in _half_cell([model], s.ravel()))


def _like(s, x):
    """``x`` (shaped like ``s``) as a float when ``s`` is a scalar."""
    return x if np.ndim(s) else float(x)


def cos_floquet_phase(model: TwoStateModel, s) -> np.ndarray | float:
    """cos E(s) of the cell with pulse interval s, the a0 of interval 2 s; vectorized over s."""
    return _like(s, _cell(model, 2.0 * np.asarray(s, dtype=float))[0])


def floquet_phase(model: TwoStateModel, s) -> np.ndarray | float:
    """Principal cell eigenphase E(s) = 2 arccos(sqrt(q)) in [0, pi]; vectorized over s."""
    a0, y = _cell(model, s)
    return _like(s, 2.0 * np.arccos(np.minimum(np.sqrt(a0 * a0 + y * y), 1.0)))


def two_state_grid(models, tau: np.ndarray, quantity: str, n_p: int = 1) -> np.ndarray:
    """``quantity`` of each model over the pulse intervals ``tau``, on one grid.

    'coherence' after n_p cells or the envelope 1 - 2 F, as a
    (len(models), tau.size) array, from F = y^2 / q and E = 2 arccos(sqrt(q))
    at every sample; F is 0 where q <= CROSSING_Q.  Both lie in [-1, 1]
    by construction (y^2 <= q).  A tau that is not finite and > 0 raises
    ValidationError with ``index`` 0.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0) & (tau < math.inf)):  # every model fails, the first one first
        raise locate(ValidationError("pulse interval must be finite and > 0"), 0)
    a0, y = _half_cell(models, tau)
    y2 = y * y
    q = a0 * a0 + y2
    f = np.divide(y2, q, out=np.zeros_like(q), where=q > CROSSING_Q)
    if quantity == "coherence":
        f *= np.sin(2 * n_p * np.arccos(np.minimum(np.sqrt(q), 1.0))) ** 2
    return 1.0 - 2.0 * f


def _one_model(model: TwoStateModel, tau, quantity: str, n_p: int):
    """``two_state_grid`` of one model, shaped like ``tau`` (a float for a scalar)."""
    return _like(tau, two_state_grid([model], np.ravel(tau), quantity, n_p).reshape(np.shape(tau)))


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
    """All dip locations (roots of a0(tau) = cos E(tau/2) = 0) in (0, tau_max].

    Roots are bracketed on a scan fine enough not to skip a harmonic and
    narrowed together to adjacent doubles by ``bisect_roots``.  ``n_p``
    only fills the depth field of each record.  A tau_max that is not
    finite and > 0 raises ValidationError, a scan of more than
    MAX_DIP_GRID points CapacityError.
    """
    if not 0 < tau_max < math.inf:
        raise ValidationError("tau_max must be finite and > 0")
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
    vals = _half_cell([model], grid)[0][0]
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    roots = bisect_roots(lambda t: _half_cell([model], t)[0][0], grid[i], grid[i + 1])
    deltas, depths = dip_depth(model, roots, n_p)
    return [DipRecord(tau_dip=root, harmonic_index=j, delta=delta, depth=depth)
            for j, (root, delta, depth) in enumerate(
                zip(roots.tolist(), deltas.tolist(), depths.tolist()), 1)]


def bisect_roots(f, lo, hi) -> np.ndarray:
    """Root of the vectorized ``f`` in each bracket [lo[k], hi[k]] over which it changes sign.

    All brackets are halved together until their ends are adjacent
    doubles; each root is the end where |f| is smaller (the lower end on a tie).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.array(f(lo), dtype=float), np.array(f(hi), dtype=float)
    while True:
        mid = lo + 0.5 * (hi - lo)
        k = np.flatnonzero((lo < mid) & (mid < hi))
        if not k.size:
            return np.where(np.abs(f_hi) < np.abs(f_lo), hi, lo)
        f_mid = f(mid[k])
        up = np.sign(f_mid) == np.sign(f_lo[k])   # the sign change lies above mid
        lo[k[up]], f_lo[k[up]] = mid[k[up]], f_mid[up]
        hi[k[~up]], f_hi[k[~up]] = mid[k[~up]], f_mid[~up]


def dip_depth(model: TwoStateModel, tau_dip, n_p: int):
    """``level_repulsion`` at ``tau_dip`` (vectorized), where each value must
    satisfy the dip condition E(tau_dip/2) = pi/2, |arcsin a0| <= DIP_CONDITION_TOL;
    the first that misses it raises ValidationError."""
    miss = np.arcsin(np.minimum(np.abs(_cell(model, tau_dip)[0]), 1.0))
    bad = np.flatnonzero(miss > DIP_CONDITION_TOL)
    if bad.size:
        raise ValidationError(f"tau_dip misses the dip condition E(tau/2) = pi/2 by "
                              f"{miss.flat[bad[0]]:.3e} rad")
    return level_repulsion(model, tau_dip, n_p)


def level_repulsion(model: TwoStateModel, tau, n_p: int):
    """Level repulsion delta = pi - E(tau) = 2 arcsin(sqrt(q)) and depth
    1 - 2 sin^2(n_p delta), vectorized over tau (floats for a scalar tau)."""
    a0, y = _cell(model, tau)
    delta = 2.0 * np.arcsin(np.minimum(np.sqrt(a0 * a0 + y * y), 1.0))
    return _like(tau, delta), _like(tau, 1.0 - 2.0 * np.sin(n_p * delta) ** 2)


def avg_hamiltonian_dip(model: TwoStateModel) -> float:
    """First-dip estimate from the time-averaged Hamiltonian.

    tau_bar = pi / (2 sqrt(w_u^2 + w_d^2 + 2 w_u w_d cos(theta_u - theta_d))),
    algebraically identical to pi / (4 Omega), Omega = |h_u + h_d| / 4 the
    precession frequency of the time-averaged field, when both fields
    share the transverse component.
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
