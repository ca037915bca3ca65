"""Physical sensor models that reduce to two-state targets.

NV centers: the detected spin sees h_u = (omega_x, 0, a_par + omega_z) and
h_d = (omega_x, 0, omega_z), so the hyperfine component only shifts the
field in one sensor state.

Donors (e.g. Si:Bi): the sensor is one ESR transition |u> -> |d> of the
coupled electron-nuclear system H = gamma_e B0 (S_z - delta_gamma I_z)
+ A S.I.  A detected flip-flopping nuclear pair sees h_i = (C12, 0,
delta_a P_i) / 2, where the level polarization P_i = 2 <i|S_z|i> varies
strongly with field.  Fields where P_u = P_d are optimal working points:
the conditional dynamics coincide, avoided crossings narrow and the
coherence envelope collapses to a sharp dip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError, locate
from .linalg import MAX_DIM, block_slices, spin_operators
from .pseudospin import PseudoField, TwoStateModel

TWO_PI = 2.0 * math.pi

# Si:Bi constants (literature values): isotropic hyperfine, Bi-209 nuclear
# spin, electron gyromagnetic ratio and nuclear/electron ratio.
SI_BI_HYPERFINE = TWO_PI * 1.4754e9       # rad/s
SI_BI_NUCLEAR_SPIN = 4.5
SI_BI_GAMMA_E = TWO_PI * 27.997e9         # rad/s per tesla
SI_BI_DELTA_GAMMA = 2.488e-4
# owp_locate brackets P_u - P_d = 0 on this many scan fields and refines
# the first bracket to OWP_XTOL tesla.
OWP_SCAN_POINTS = 64
OWP_XTOL = 1e-6


@dataclass(frozen=True)
class NVModel:
    """NV-center effective-field parameters, all in rad/s."""

    omega_x: float
    omega_z: float
    a_par: float

    def __post_init__(self):
        vals = (self.omega_x, self.omega_z, self.a_par)
        if not all(np.isfinite(v) for v in vals):
            raise ValidationError(f"NV parameters must be finite, got {vals}")
        if self.a_par < 0:
            raise ValidationError(f"parallel hyperfine must be >= 0, got {self.a_par}")


def nv_two_state(nv: NVModel) -> TwoStateModel:
    """Two-state target of an NV sensor: hyperfine shifts only the u field."""
    return TwoStateModel(h_u=PseudoField(nv.omega_x, nv.a_par + nv.omega_z),
                         h_d=PseudoField(nv.omega_x, nv.omega_z))


@dataclass(frozen=True)
class DonorModel:
    """Electron-nuclear donor with the sensing transition level_u -> level_d.

    Levels are 1-based indices into the eigenstates sorted by ascending
    energy at the working field.  A space of 2(2I+1) > MAX_DIM raises
    CapacityError before any operator is built.
    """

    hyperfine_a: float
    nuclear_spin: float
    gamma_e: float
    delta_gamma: float
    level_u: int
    level_d: int

    def __post_init__(self):
        two_i = round(2 * self.nuclear_spin)
        if two_i < 1 or abs(2 * self.nuclear_spin - two_i) > 1e-12:
            raise ValidationError(f"nuclear spin must be a half-integer, got {self.nuclear_spin}")
        dim = self.dim
        if dim > MAX_DIM:
            raise CapacityError(f"donor space of dim {dim} exceeds maximum {MAX_DIM}")
        for name, level in (("level_u", self.level_u), ("level_d", self.level_d)):
            if not (1 <= level <= dim):
                raise ValidationError(f"{name} = {level} outside 1..{dim}")
        if self.level_u == self.level_d:
            raise ValidationError("transition levels must be distinct")

    @property
    def dim(self) -> int:
        return 2 * (round(2 * self.nuclear_spin) + 1)

    @cached_property
    def _operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S_z - delta_gamma I_z, A S.I, S_z) on the 2(2I+1) space, read-only.

        None depends on B0, so a model builds them once and every field
        reuses them.
        """
        sx, sy, sz = spin_operators(0.5)
        ix, iy, iz = spin_operators(self.nuclear_spin)
        eye_e = np.eye(2, dtype=complex)
        eye_n = np.eye(ix.shape[0], dtype=complex)
        electron_sz = np.kron(sz, eye_n)
        zeeman = electron_sz - self.delta_gamma * np.kron(eye_e, iz)
        hyperfine = self.hyperfine_a * (np.kron(sx, ix) + np.kron(sy, iy) + np.kron(sz, iz))
        for op in (zeeman, hyperfine, electron_sz):
            op.flags.writeable = False
        return zeeman, hyperfine, electron_sz


def si_bi(level_u: int = 12, level_d: int = 9) -> DonorModel:
    """Si:Bi donor; the default 12 -> 9 ESR transition has its OWP near 0.188 T."""
    return DonorModel(hyperfine_a=SI_BI_HYPERFINE, nuclear_spin=SI_BI_NUCLEAR_SPIN,
                      gamma_e=SI_BI_GAMMA_E, delta_gamma=SI_BI_DELTA_GAMMA,
                      level_u=level_u, level_d=level_d)


def donor_electron_sz(d: DonorModel) -> np.ndarray:
    """S_z of the donor electron on the full electron x nucleus space (read-only)."""
    return d._operators[2]


def donor_hamiltonian(d: DonorModel, b0) -> np.ndarray:
    """H = gamma_e B0 (S_z - delta_gamma I_z) + A S.I on the 2(2I+1) space.

    An array of fields gives the stack of their Hamiltonians, each equal
    bit for bit to that of its scalar field.  A field that is not finite
    and >= 0, or a non-finite H, raises ValidationError whose ``index`` is
    the flat index of that field.  H is Hermitian by construction.
    """
    fields = np.asarray(b0, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(fields) & (fields >= 0)))
    if bad.size:
        raise locate(ValidationError(f"magnetic field must be finite and >= 0, "
                                     f"got {float(fields.flat[bad[0]])}"), bad[0])
    zeeman, hyperfine, _ = d._operators
    # An overflowing field, and the inf * 0 it then meets off the Zeeman
    # diagonal, are reported as a non-finite H, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        h = d.gamma_e * fields[..., None, None] * zeeman + hyperfine
    bad = np.flatnonzero(~np.isfinite(h.view(float)).all(axis=(-2, -1)))
    if bad.size:
        raise locate(ValidationError("donor Hamiltonian has non-finite entries"), bad[0])
    return h


def donor_eigensystem(d: DonorModel, b0) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of the donor at b0
    (one batched ``eigh`` for an array of fields)."""
    w, v = np.linalg.eigh(donor_hamiltonian(d, b0))
    return w, v


def _polarization(state: np.ndarray, sz: np.ndarray) -> float:
    """P = 2 Re <state|S_z|state> of a normalized donor state."""
    return 2.0 * float(np.real(np.vdot(state, sz @ state)))


def donor_polarization(d: DonorModel, b0: float, level: int) -> float:
    """Polarization P = 2 <level|S_z|level> of the 1-based energy-sorted level."""
    if not (1 <= level <= d.dim):
        raise ValidationError(f"level {level} outside 1..{d.dim}")
    _, v = donor_eigensystem(d, b0)
    return _polarization(v[:, level - 1], donor_electron_sz(d))


@dataclass(frozen=True)
class PairTarget:
    """Flip-flopping nuclear pair: hyperfine detuning and dipolar coupling (rad/s)."""

    delta_a: float
    c12: float

    def __post_init__(self):
        if not (np.isfinite(self.delta_a) and np.isfinite(self.c12)):
            raise ValidationError(f"pair couplings must be finite, got {self}")
        if self.c12 == 0.0:
            raise ValidationError("c12 = 0 gives no flip-flop dynamics")

    @property
    def ratio(self) -> float:
        """Coupling ratio R = delta_a / c12."""
        return self.delta_a / self.c12

    def two_state(self, p_u: float, p_d: float) -> TwoStateModel:
        """Two-state target at sensor polarizations P_u, P_d: h_i = (c12, 0, delta_a P_i) / 2."""
        return TwoStateModel(h_u=PseudoField(self.c12 / 2.0, self.delta_a * p_u / 2.0),
                             h_d=PseudoField(self.c12 / 2.0, self.delta_a * p_d / 2.0))


def donor_pair_polarizations(d: DonorModel, b0):
    """(P_u, P_d) of the donor transition levels at b0: two floats, or for an
    array of fields two arrays of its shape, equal bit for bit to the scalar
    results.  Fields are diagonalized by batched ``eigh`` in ``block_slices``
    of the (D, D) Hamiltonians."""
    fields = np.asarray(b0, dtype=float)
    flat = fields.reshape(-1)
    sz = donor_electron_sz(d)
    pols = []
    for block in block_slices(flat.size, 16 * d.dim ** 2):
        try:
            _, v = donor_eigensystem(d, flat[block])
        except ValidationError as exc:
            raise locate(exc, block.start + exc.index)
        pols += [(_polarization(m[:, d.level_u - 1], sz), _polarization(m[:, d.level_d - 1], sz))
                 for m in v]
    if fields.ndim == 0:
        return pols[0]
    p_u, p_d = np.array(pols).T
    return p_u.reshape(fields.shape), p_d.reshape(fields.shape)


def owp_locate(d: DonorModel, b0_min: float, b0_max: float) -> float | None:
    """Field where P_u(B0) = P_d(B0), by sign-change scan plus Brent's method.

    The first bracketing pair of OWP_SCAN_POINTS scan points is refined to
    OWP_XTOL tesla.  Returns None when the polarization difference has no
    sign change in the range; raises ValidationError when the transition is
    degenerate (the difference vanishes identically).
    """
    # Imported here, not at module level: SciPy is most of a cold start.
    from scipy.optimize import brentq

    if not (0 <= b0_min < b0_max):
        raise ValidationError(f"need 0 <= b0_min < b0_max, got [{b0_min}, {b0_max}]")

    def dp(b0: float) -> float:
        p_u, p_d = donor_pair_polarizations(d, b0)
        return p_u - p_d

    grid = np.linspace(b0_min, b0_max, OWP_SCAN_POINTS)
    vals = np.array([dp(b) for b in grid])
    if np.all(np.abs(vals) < 1e-12):
        raise ValidationError("polarization difference vanishes identically; "
                              "every field is a working point")
    signs = np.sign(vals)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if idx.size == 0:
        roots = np.nonzero(signs == 0)[0]
        return float(grid[roots[0]]) if roots.size else None
    return brentq(dp, float(grid[idx[0]]), float(grid[idx[0] + 1]), xtol=OWP_XTOL)
