"""Physical sensor models that reduce to two-state targets.

NV centers: the detected spin sees h_u = (omega_x, 0, a_par + omega_z) and
h_d = (omega_x, 0, omega_z), so the hyperfine component only shifts the
field in one sensor state.

Donors (e.g. Si:Bi): the sensor is one ESR transition |u> -> |d> of the
coupled electron-nuclear system H = gamma_e B0 (S_z - delta_gamma I_z)
+ A S.I.  H conserves m_S + m_I, so it splits into blocks of at most
2 x 2 and every level has a closed-form (Breit-Rabi) energy and
polarization (``donor_levels``); no Hamiltonian matrix is built.  A
detected flip-flopping nuclear pair sees h_i = (C12, 0, delta_a P_i) / 2,
where the level polarization P_i = 2 <i|S_z|i> varies strongly with
field.  Fields where P_u = P_d are optimal working points: the
conditional dynamics coincide, avoided crossings narrow and the
coherence envelope collapses to a sharp dip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError, locate
from .linalg import MAX_DIM, block_slices
from .pseudospin import PseudoField, TwoStateModel, bisect_roots

TWO_PI = 2.0 * math.pi

# Si:Bi constants (literature values): isotropic hyperfine, Bi-209 nuclear
# spin, electron gyromagnetic ratio and nuclear/electron ratio.
SI_BI_HYPERFINE = TWO_PI * 1.4754e9       # rad/s
SI_BI_NUCLEAR_SPIN = 4.5
SI_BI_GAMMA_E = TWO_PI * 27.997e9         # rad/s per tesla
SI_BI_DELTA_GAMMA = 2.488e-4
# owp_locate brackets P_u - P_d = 0 on this many scan fields.
OWP_SCAN_POINTS = 64


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
    energy at the working field; at B0 = 0 each level is its B0 -> 0+
    limit (``donor_levels``).  A space of 2(2I+1) > MAX_DIM raises
    CapacityError, and A = 0 (no electron-nuclear coupling) ValidationError.
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
        if self.hyperfine_a == 0:
            raise ValidationError("hyperfine coupling A = 0 decouples electron and nucleus")

    @property
    def dim(self) -> int:
        return 2 * (round(2 * self.nuclear_spin) + 1)


def si_bi(level_u: int = 12, level_d: int = 9) -> DonorModel:
    """Si:Bi donor; the default 12 -> 9 ESR transition has its OWP near 0.188 T."""
    return DonorModel(hyperfine_a=SI_BI_HYPERFINE, nuclear_spin=SI_BI_NUCLEAR_SPIN,
                      gamma_e=SI_BI_GAMMA_E, delta_gamma=SI_BI_DELTA_GAMMA,
                      level_u=level_u, level_d=level_d)


def donor_levels(d: DonorModel, b0) -> tuple[np.ndarray, np.ndarray]:
    """Energies E (rad/s) and polarizations P = 2 <S_z> of every donor level
    at b0: two arrays of shape b0.shape + (d.dim,), column k - 1 holding the
    1-based level k.

    H conserves m = m_S + m_I.  The blocks m = -+(I + 1/2) hold one state,
    |-+1/2, -+I> with P = -+1; every other block holds |+1/2, m - 1/2> and
    |-1/2, m + 1/2>, whose diagonal has the mean -delta_gamma z m - A/4 and
    the half-difference s = z' + A m / 2, with z = gamma_e B0 and
    z' = z (1 + delta_gamma) / 2.  Its levels are mean -+ g with P = -+s / g
    (Breit-Rabi), where g^2 = s^2 + A^2 ((I + 1/2)^2 - m^2) / 4
    = x^2 + z' (z' + A m) and x = |A| (I + 1/2) / 2.  g is evaluated as
    x + z' (z' + A m) / (g + x), which is x exactly at B0 = 0, so the
    F = I +- 1/2 multiplets there are exactly degenerate.  Levels are
    sorted by energy, then by the Zeeman slope dE/dB0 =
    gamma_e ((1 + delta_gamma) P / 2 - delta_gamma m), so each level at
    B0 = 0 is its B0 -> 0+ limit.  A field that is not finite and >= 0, or
    one at which H overflows, raises ValidationError whose ``index`` is the
    flat index of that field.
    """
    fields = np.asarray(b0, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(fields) & (fields >= 0)))
    if bad.size:
        raise locate(ValidationError(f"magnetic field must be finite and >= 0, "
                                     f"got {float(fields.flat[bad[0]])}"), bad[0])
    i, a, dg = d.nuclear_spin, d.hyperfine_a, d.delta_gamma
    m = np.arange(-i - 0.5, i + 1.0)   # ascending; m[1:-1] are the 2 x 2 blocks
    x = 0.5 * abs(a) * (i + 0.5)
    # An overflowing field, and the inf - inf it then meets, are reported
    # as a non-finite H, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        z = d.gamma_e * fields.reshape(-1, 1)
        zh = z * (0.5 + 0.5 * dg)
        mean = -dg * z * m - 0.25 * a
        s = zh + 0.5 * a * m
        g = np.hypot(s[:, 1:-1], 0.5 * a * np.sqrt((i + 0.5) ** 2 - m[1:-1] ** 2))
        g = x + zh * ((zh + a * m[1:-1]) / (g + x))
        p = s[:, 1:-1] / g
        energies = np.concatenate([mean[:, :1] - s[:, :1], mean[:, 1:-1] - g,
                                   mean[:, 1:-1] + g, mean[:, -1:] + s[:, -1:]], axis=1)
    bad = np.flatnonzero(~np.isfinite(energies).all(axis=1))
    if bad.size:
        raise locate(ValidationError("donor Hamiltonian has non-finite entries"), bad[0])
    one = np.ones_like(z)
    pols = np.concatenate([-one, -p, p, one], axis=1)
    slope = d.gamma_e * (0.5 * (1 + dg) * pols - dg * np.concatenate([m[:-1], m[1:]]))
    order = np.lexsort((slope, energies), axis=-1)
    shape = fields.shape + (d.dim,)
    return (np.take_along_axis(energies, order, axis=-1).reshape(shape),
            np.take_along_axis(pols, order, axis=-1).reshape(shape))


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
    results.  ``donor_levels`` runs on ``block_slices`` of the fields."""
    fields = np.asarray(b0, dtype=float)
    flat = fields.reshape(-1)
    p_u, p_d = np.empty(flat.size), np.empty(flat.size)
    for block in block_slices(flat.size, 8 * d.dim):
        try:
            _, pols = donor_levels(d, flat[block])
        except ValidationError as exc:
            raise locate(exc, block.start + exc.index)
        p_u[block], p_d[block] = pols[:, d.level_u - 1], pols[:, d.level_d - 1]
    if fields.ndim == 0:
        return float(p_u[0]), float(p_d[0])
    return p_u.reshape(fields.shape), p_d.reshape(fields.shape)


def owp_locate(d: DonorModel, b0_min: float, b0_max: float) -> float | None:
    """Field where P_u(B0) = P_d(B0), by a sign-change scan plus bisection.

    P_u - P_d is evaluated on OWP_SCAN_POINTS scan fields in one call, and
    its first sign change is narrowed to adjacent doubles by
    ``bisect_roots``.  Returns None when the polarization difference has no
    sign change in the range; raises ValidationError when the transition is
    degenerate (the difference vanishes identically).
    """
    if not (0 <= b0_min < b0_max):
        raise ValidationError(f"need 0 <= b0_min < b0_max, got [{b0_min}, {b0_max}]")

    def dp(b0):
        p_u, p_d = donor_pair_polarizations(d, b0)
        return p_u - p_d

    grid = np.linspace(b0_min, b0_max, OWP_SCAN_POINTS)
    vals = dp(grid)
    if np.all(np.abs(vals) < 1e-12):
        raise ValidationError("polarization difference vanishes identically; "
                              "every field is a working point")
    signs = np.sign(vals)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if idx.size == 0:
        roots = np.nonzero(signs == 0)[0]
        return float(grid[roots[0]]) if roots.size else None
    return float(bisect_roots(dp, grid[idx[:1]], grid[idx[:1] + 1])[0])
