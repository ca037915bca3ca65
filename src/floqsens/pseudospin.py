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

Near a true level crossing (E(tau) -> pi) the F ratio degenerates to 0/0,
so samples with |cos(E(tau)/2)| below ``ANALYTIC_GUARD`` are delegated to
direct 2x2 propagation, which stays well conditioned there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import NumericalConsistencyError, ValidationError
from .linalg import PAULI_X, PAULI_Z

# Below this |cos(E(tau)/2)| the analytic F ratio loses more than ~1e-10
# of absolute accuracy in double precision; delegate to the numeric path.
ANALYTIC_GUARD = 1e-3

COS_RANGE_TOL = 1e-9
DIP_CONDITION_TOL = 1e-6


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


def _envelope_factor(model: TwoStateModel, tau: np.ndarray):
    """(F, cos E(tau), analytic-ok mask) on an array of pulse intervals."""
    cos_e = np.asarray(cos_floquet_phase(model, tau))
    q = np.maximum(0.5 * (1.0 + cos_e), 0.0)
    p = np.asarray(cos_floquet_phase(model, tau / 2.0)) ** 2
    ok = np.sqrt(q) >= ANALYTIC_GUARD
    f = np.where(ok, 1.0 - p / np.where(ok, q, 1.0), np.nan)
    return f, cos_e, ok


def _numeric_coherence(model: TwoStateModel, tau: float, n_p: int) -> float:
    seq = engine.PulseSequence(tau=float(tau), n_p=int(n_p))
    return engine.thermal_coherence_numeric(model.conditional(), seq)


def _numeric_envelope(model: TwoStateModel, tau: float) -> float:
    seq = engine.PulseSequence(tau=float(tau), n_p=1)
    pair = engine.floquet_pair(*engine.unit_cell(model.conditional(), seq))
    return engine.envelope_general(pair).floor


def coherence_analytic(model: TwoStateModel, tau, n_p: int,
                       return_flag: bool = False):
    """Bath-averaged coherence after n_p cells at interval tau (vectorized).

    Samples too close to a true level crossing are computed by direct
    propagation instead of the analytic formula; ``return_flag`` also
    returns the mask of such samples.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau_arr <= 0):
        raise ValidationError("pulse interval must be > 0")
    if model.h_u == model.h_d:
        # identical conditional evolution, exactly no signal
        vals = np.ones_like(tau_arr)
        ok = np.ones(tau_arr.shape, dtype=bool)
    else:
        f, cos_e, ok = _envelope_factor(model, tau_arr)
        e_tau = np.arccos(np.clip(cos_e, -1.0, 1.0))
        osc = np.sin(n_p * e_tau) ** 2
        vals = 1.0 - 2.0 * f * osc
        for i in np.nonzero(~ok)[0]:
            vals[i] = _numeric_coherence(model, tau_arr[i], n_p)
    bad = np.abs(vals) - 1.0
    if np.any(bad > COS_RANGE_TOL):
        raise NumericalConsistencyError(f"coherence left [-1, 1] by {bad.max():.3e}")
    vals = np.clip(vals, -1.0, 1.0)
    flags = ~ok
    if np.asarray(tau).ndim == 0:
        return (float(vals[0]), bool(flags[0])) if return_flag else float(vals[0])
    return (vals, flags) if return_flag else vals


def envelope(model: TwoStateModel, tau, return_flag: bool = False):
    """Pulse-number-independent coherence envelope 1 - 2 F(tau) (vectorized)."""
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau_arr <= 0):
        raise ValidationError("pulse interval must be > 0")
    if model.h_u == model.h_d:
        vals = np.ones_like(tau_arr)
        ok = np.ones(tau_arr.shape, dtype=bool)
    else:
        f, _, ok = _envelope_factor(model, tau_arr)
        vals = 1.0 - 2.0 * f
        for i in np.nonzero(~ok)[0]:
            vals[i] = _numeric_envelope(model, tau_arr[i])
    vals = np.clip(vals, -1.0, 1.0)
    flags = ~ok
    if np.asarray(tau).ndim == 0:
        return (float(vals[0]), bool(flags[0])) if return_flag else float(vals[0])
    return (vals, flags) if return_flag else vals


@dataclass(frozen=True)
class DipRecord:
    """One coherence dip: location, harmonic number, level repulsion, depth."""

    tau_dip: float
    harmonic_index: int
    delta: float
    depth: float


def _dip_function(model: TwoStateModel, tau) -> np.ndarray | float:
    """cos E(tau/2); dips are its roots."""
    return cos_floquet_phase(model, np.asarray(tau) / 2.0)


def _bisect(f, lo: float, hi: float, rtol: float = 1e-10, f_tol: float = 1e-9) -> float:
    """Bisection to relative tolerance, polished until |f| is small too.

    The residual polish keeps high-harmonic roots (large tau, steep f)
    accurate enough for the dip-condition contract of dip_depth.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo <= rtol * mid and abs(fm) <= f_tol):
            return mid
        if hi - lo <= 4.0 * math.ulp(mid):
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return mid


def dip_positions(model: TwoStateModel, tau_max: float, n_p: int = 1) -> list[DipRecord]:
    """All dip locations (roots of cos E(tau/2) = 0) in (0, tau_max].

    Roots are bracketed on a scan fine enough not to skip a harmonic and
    refined by bisection to 1e-10 relative.  ``n_p`` only fills the depth
    field of each record.
    """
    if tau_max <= 0:
        raise ValidationError("tau_max must be > 0")
    omega_sum = model.omega_u + model.omega_d
    if omega_sum <= 0:
        return []
    step = min(math.pi / (20.0 * omega_sum), tau_max / 1000.0)
    grid = np.arange(step, tau_max + step, step)
    grid = grid[grid <= tau_max]
    if grid.size == 0:
        return []
    vals = np.asarray(_dip_function(model, grid))
    records = []
    f = lambda t: float(_dip_function(model, t))
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        root = _bisect(f, float(grid[i]), float(grid[i + 1]))
        delta, depth = dip_depth(model, root, n_p)
        records.append(DipRecord(tau_dip=root, harmonic_index=len(records) + 1,
                                 delta=delta, depth=depth))
    return records


def dip_depth(model: TwoStateModel, tau_dip: float, n_p: int) -> tuple[float, float]:
    """Level repulsion delta = |pi - E(tau_dip)| and depth 1 - 2 sin^2(n_p delta).

    ``tau_dip`` must satisfy the dip condition E(tau_dip/2) = pi/2 within
    1e-6 rad.
    """
    miss = abs(float(floquet_phase(model, tau_dip / 2.0)) - math.pi / 2.0)
    if miss > DIP_CONDITION_TOL:
        raise ValidationError(
            f"tau_dip misses the dip condition E(tau/2) = pi/2 by {miss:.3e} rad")
    # delta = pi - E ==> cos(delta) = -cos(E); arccos near +1 keeps small
    # delta at the sqrt(eps) precision floor instead of losing it outright.
    rhs = float(cos_floquet_phase(model, tau_dip))
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


def regime_classify(model: TwoStateModel, threshold: float = 10.0) -> Regime:
    """Classify by r = |h_u + h_d| / |h_u - h_d| against the given threshold."""
    h_sum = model.h_u.vector() + model.h_d.vector()
    h_diff = model.h_u.vector() - model.h_d.vector()
    num = float(np.linalg.norm(h_sum))
    den = float(np.linalg.norm(h_diff))
    if den == 0.0:
        return Regime.WEAK_COUPLING_I
    r = num / den
    if r >= threshold:
        return Regime.WEAK_COUPLING_I
    if r <= 1.0 / threshold:
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
