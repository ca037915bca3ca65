"""Reference values for output checks, computed without importing floqsens.

Everything is rebuilt from the model definitions: the conditional bath
Hamiltonians H_u, H_d of each system kind, the cells

    T_u2 = e^{-i H_u tau} e^{-i H_d 2 tau} e^{-i H_u tau},
    T_d2 = e^{-i H_d tau} e^{-i H_u 2 tau} e^{-i H_d tau}

from ``scipy.linalg.expm``, and then

* coherence  (1/D) Re tr[(T_u2^n)^dag T_d2^n];
* envelope floor  (2/D) sum_l |<phi_d,l|phi_u,l>|^2 - 1, with the modes of
  T_u2 and T_d2 from ``numpy.linalg.eig`` paired by equal eigenvalue (the
  n-independent part of the phase/overlap expansion of the coherence);
* spectrum phases  -arg of the eigenvalues of T_u2 from ``numpy.linalg.eig``.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np
import scipy.linalg

from workloads import Command

# Absolute tolerance of a checked coherence or envelope value.
ATOL = 1e-9
# A cell phase is only known to about eps times the phase the cell
# accumulates, 2 tau (|H_u| + |H_d|), which reaches 1e7 rad for joint_full
# (donor energies ~1e10 rad/s); phases get ATOL plus this share of it.
PHASE_RTOL = 1e-14
# The envelope floor pairs modes by eigenvalue; closer eigenvalues make the
# pairing ambiguous, so such points are not used for the envelope check.
MIN_PAIRING_GAP = 1e-4
SAMPLES_PER_COMMAND = 32

TWO_PI = 2.0 * math.pi
# Si:Bi donor: isotropic hyperfine A, nuclear spin I, electron gyromagnetic
# ratio and nuclear/electron ratio; the sensing transition is 12 -> 9
# (1-based, ascending energy).
SI_BI = {"a": TWO_PI * 1.4754e9, "spin": 4.5, "gamma_e": TWO_PI * 27.997e9,
         "delta_gamma": 2.488e-4, "level_u": 12, "level_d": 9}

SX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
SZ = np.array([[1, 0], [0, -1]], dtype=complex) / 2
S_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)


def spin_matrices(s: float):
    """(Sx, Sy, Sz) for spin s in the basis m = s, ..., -s."""
    m = s - np.arange(int(round(2 * s)) + 1)
    plus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    return (plus + plus.T) / 2, (plus - plus.T) / 2j, np.diag(m).astype(complex)


@lru_cache(maxsize=None)
def donor_levels(b0: float):
    """Energies and <S_z> of the Si:Bi transition levels (u, d) at field b0."""
    sx, sy, sz = spin_matrices(0.5)
    ix, iy, iz = spin_matrices(SI_BI["spin"])
    one_e, one_n = np.eye(2), np.eye(ix.shape[0])
    sz_full = np.kron(sz, one_n)
    h = (SI_BI["gamma_e"] * b0 * (sz_full - SI_BI["delta_gamma"] * np.kron(one_e, iz))
         + SI_BI["a"] * (np.kron(sx, ix) + np.kron(sy, iy) + np.kron(sz, iz)))
    energies, states = np.linalg.eigh(h)
    out = []
    for level in (SI_BI["level_u"], SI_BI["level_d"]):
        psi = states[:, level - 1]
        out.append((float(energies[level - 1]), float(np.vdot(psi, sz_full @ psi).real)))
    return out


def pair_hamiltonian(delta_a: float, c12: float, sz_expect: float) -> np.ndarray:
    """Pseudospin of a flip-flopping pair: field (c12, 0, delta_a P) / 2, P = 2<S_z>."""
    return c12 / 2 * SX + delta_a * sz_expect * SZ


def site(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """A 2x2 operator acting on factor k of n two-level factors."""
    return np.kron(np.kron(np.eye(2 ** k), op), np.eye(2 ** (n - k - 1)))


def cluster_parts(cluster: dict):
    """(sum_k A_k Iz_k, secular dipolar part) of a spin-1/2 cluster."""
    a, c = cluster["a_rad_s"], cluster["c_rad_s"]
    n = len(a)
    iz = [site(SZ, k, n) for k in range(n)]
    sp = [site(S_PLUS, k, n) for k in range(n)]
    h_a = sum(a[k] * iz[k] for k in range(n))
    h_c = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            flip = sp[j] @ sp[k].conj().T
            h_c += c[j][k] * (iz[j] @ iz[k] - (flip + flip.conj().T) / 4)
    return h_a, h_c


def conditional(system: dict, field: float | None) -> tuple[np.ndarray, np.ndarray]:
    """H_u, H_d of a generated system block at one field-axis value."""
    kind = system["kind"]
    if kind == "nv":
        omega_x = TWO_PI * field
        omega_z = TWO_PI * system["omega_z_hz"]
        a_par = TWO_PI * system["a_par_hz"]
        return (omega_x * SX + (a_par + omega_z) * SZ, omega_x * SX + omega_z * SZ)
    b0 = system.get("b0_tesla", field)
    levels = donor_levels(float(b0))
    if kind == "donor_pair":
        pair = system["pair"]
        return tuple(pair_hamiltonian(pair["delta_a_rad_s"], pair["c12_rad_s"], sz)
                     for _, sz in levels)
    if kind == "independent_pairs":
        n = len(system["pairs"])
        return tuple(sum(site(pair_hamiltonian(p["delta_a_rad_s"], p["c12_rad_s"], sz), k, n)
                         for k, p in enumerate(system["pairs"]))
                     for _, sz in levels)
    h_a, h_c = cluster_parts(system["cluster"])
    if kind == "cluster3":
        return tuple(sz * h_a + h_c for _, sz in levels)
    if kind == "joint_full":
        return tuple(energy * np.eye(h_a.shape[0]) + sz * h_a + h_c
                     for energy, sz in levels)
    raise ValueError(f"no reference for system kind {kind!r}")


def cells(h_u: np.ndarray, h_d: np.ndarray, tau: float):
    u1, d1 = scipy.linalg.expm(-1j * h_u * tau), scipy.linalg.expm(-1j * h_d * tau)
    u2, d2 = scipy.linalg.expm(-2j * h_u * tau), scipy.linalg.expm(-2j * h_d * tau)
    return u1 @ d2 @ u1, d1 @ u2 @ d1


def coherence(t_u2: np.ndarray, t_d2: np.ndarray, n_p: int) -> float:
    p_u = np.linalg.matrix_power(t_u2, n_p)
    p_d = np.linalg.matrix_power(t_d2, n_p)
    return float(np.trace(p_u.conj().T @ p_d).real) / t_u2.shape[0]


def envelope_floor(t_u2: np.ndarray, t_d2: np.ndarray) -> float | None:
    """Envelope floor, or None where two eigenvalues are too close to pair modes."""
    lam_u, phi_u = np.linalg.eig(t_u2)
    lam_d, phi_d = np.linalg.eig(t_d2)
    dist = np.abs(lam_u[:, None] - lam_u[None, :]) + np.eye(lam_u.size) * 4
    if dist.min() < MIN_PAIRING_GAP:
        return None
    partner = np.abs(lam_u[:, None] - lam_d[None, :]).argmin(axis=1)
    overlaps = np.abs(np.einsum("il,il->l", phi_d[:, partner].conj(), phi_u)) ** 2
    return 2.0 / lam_u.size * float(overlaps.sum()) - 1.0


def spectrum_phases(t_u2: np.ndarray) -> np.ndarray:
    phases = -np.angle(np.linalg.eigvals(t_u2))
    return np.where(phases <= -math.pi, phases + TWO_PI, phases)


def axis_values(axis: dict) -> np.ndarray:
    """Grid of a generated (linearly spaced) axis."""
    return np.linspace(axis["start"], axis["stop"], axis["count"])


def expected(command: Command, seed: int) -> list[dict]:
    """Seeded sample of output rows with their reference values.

    Each entry names the 0-based data line of the command's CSV, the axis
    values it must carry, the reference quantity (``value`` for maps,
    ``phases`` for spectra) and its absolute tolerance ``atol``.
    """
    cfg = command.config
    axes = cfg["axes"]
    taus = axis_values(axes["tau_s"])
    field_name = next((k for k in axes if k != "tau_s"), None)
    fields = axis_values(axes[field_name]) if field_name else np.array([np.nan])
    n_p = cfg["sequence"]["n_p"]
    quantity = cfg.get("output", {}).get("quantity", "coherence")
    rng = random.Random(f"{command.name}:{seed}:sample")
    points = sorted(rng.sample(range(fields.size * taus.size), SAMPLES_PER_COMMAND))
    out = []
    for point in points:
        i, j = divmod(point, taus.size)
        field = None if field_name is None else float(fields[i])
        h_u, h_d = conditional(cfg["system"], field)
        t_u2, t_d2 = cells(h_u, h_d, float(taus[j]))
        entry = {"line": point, "tau": float(taus[j]), "atol": ATOL}
        if command.subcommand == "spectrum":
            entry["phases"] = spectrum_phases(t_u2).tolist()
            accumulated = 2 * taus[j] * (np.linalg.norm(h_u, 2) + np.linalg.norm(h_d, 2))
            entry["atol"] = ATOL + PHASE_RTOL * float(accumulated)
        else:
            entry["field"] = field
            value = (coherence(t_u2, t_d2, n_p) if quantity == "coherence"
                     else envelope_floor(t_u2, t_d2))
            if value is None:
                continue
            entry["value"] = value
        out.append(entry)
    return out
