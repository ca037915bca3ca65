import numpy as np
import pytest

from floqsens import ValidationError


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(dim, rng, real=False):
    a = rng.standard_normal((dim, dim))
    if not real:
        a = a + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_two_state(rng, scale=1.0):
    from floqsens import TwoStateModel
    x_u, z_u, x_d, z_d = rng.uniform(-2 * scale, 2 * scale, size=4)
    return TwoStateModel.from_components(x_u, z_u, x_d, z_d)


def near_crossing(model, taus, bound=1e-3):
    """Mask of the taus where |cos(E(tau)/2)| < bound: within about 2 bound
    of a true level crossing E = pi, where F = y^2 / q is 0/0 at the limit."""
    from floqsens import cos_floquet_phase
    q = np.maximum(0.5 * (1.0 + cos_floquet_phase(model, np.asarray(taus, dtype=float))), 0.0)
    return np.sqrt(q) < bound


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for spin s in the basis m = s, s-1, ..., -s."""
    two_s = round(2 * s)
    if two_s < 1 or abs(2 * s - two_s) > 1e-12:
        raise ValidationError(f"spin must be a positive half-integer, got {s}")
    dim = two_s + 1
    m = s - np.arange(dim)
    sz = np.diag(m.astype(complex))
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    return sx, sy, sz


def donor_eigh(d, b0) -> tuple[np.ndarray, np.ndarray]:
    """Reference donor levels: ``eigh`` of H = gamma_e B0 (S_z - delta_gamma I_z)
    + A S.I built from kron products on the full 2(2I+1) space.

    Returns the ascending energies and the polarizations 2 <S_z> of their
    eigenvectors, each of shape b0.shape + (D,).
    """
    sx, sy, sz = spin_operators(0.5)
    ix, iy, iz = spin_operators(d.nuclear_spin)
    eye_e, eye_n = np.eye(2), np.eye(ix.shape[0])
    electron_sz = np.kron(sz, eye_n)
    zeeman = electron_sz - d.delta_gamma * np.kron(eye_e, iz)
    hyperfine = d.hyperfine_a * (np.kron(sx, ix) + np.kron(sy, iy) + np.kron(sz, iz))
    w, v = np.linalg.eigh(d.gamma_e * np.asarray(b0, dtype=float)[..., None, None] * zeeman
                          + hyperfine)
    return w, 2.0 * np.einsum("...il,ij,...jl->...l", v.conj(), electron_sz, v).real


def level_gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each level of the ascending energies w (..., D) to its nearest neighbour."""
    far = np.full(w.shape[:-1] + (1,), np.inf)
    gaps = np.diff(w, axis=-1)
    return np.minimum(np.concatenate([far, gaps], axis=-1), np.concatenate([gaps, far], axis=-1))


def two_state_hamiltonians(models):
    """Conditional Hamiltonians sum_k (x_k sigma_x,k + z_k sigma_z,k) / 2 of the
    independent two-state targets ``models`` on their joint 2^k space, target 0
    the most significant bit (the order of a kron chain): sigma_z,k is diagonal
    with the sign of bit k, sigma_x,k one entry per basis state, at the index
    with bit k flipped.  The library computes these systems in closed form; the
    engine runs on this space only in tests."""
    from floqsens import ConditionalHamiltonians
    k = len(models)
    idx = np.arange(2 ** k)
    out = []
    for fields in ([m.h_u for m in models], [m.h_d for m in models]):
        h = np.zeros((idx.size, idx.size))
        for site, f in enumerate(fields):
            h[idx, idx] += (0.5 * f.z) * (1.0 - 2.0 * ((idx >> (k - 1 - site)) & 1))
            h[idx ^ (1 << (k - 1 - site)), idx] += 0.5 * f.x
        out.append(h.astype(complex))
    return ConditionalHamiltonians(h_u=out[0], h_d=out[1])


# The Floquet oracle of the differential tests.  It imports nothing from
# floqsens: cells come from scipy.linalg.expm on the full space, coherence
# from np.linalg.matrix_power and phases, modes and the envelope floor from
# scipy.linalg.schur, as in perfbench/reference.py.
def oracle_cells(h_u, h_d, taus, pulse_duration=0.0, h_pulse=None):
    """Half periods (W_u, W_d) as (n_tau, D, D) stacks, T_u2 = W_u W_d, T_d2 = W_d W_u.

    The free interval is tau + pulse_duration; with ``h_pulse`` it is tau
    and the pulse factor exp(-i h_pulse 2 pulse_duration) sits between
    the two factors of each half period.
    """
    import scipy.linalg
    taus = np.asarray(taus, dtype=float).reshape(-1, 1, 1)
    pulse = np.eye(len(h_u))
    if h_pulse is None:
        taus = taus + pulse_duration
    else:
        pulse = scipy.linalg.expm(-2j * pulse_duration * np.asarray(h_pulse))
    t_u, t_d = (scipy.linalg.expm(-1j * np.asarray(h) * taus) for h in (h_u, h_d))
    return t_u @ pulse @ t_d, t_d @ pulse @ t_u


def oracle_powers(w_u, w_d, n_p):
    """(T_u2^n_p, T_d2^n_p) of each cell, by np.linalg.matrix_power."""
    return np.linalg.matrix_power(w_u @ w_d, n_p), np.linalg.matrix_power(w_d @ w_u, n_p)


def oracle_coherence(w_u, w_d, n_p):
    """(1/D) Re tr[(T_u2^n_p)^dag T_d2^n_p] per cell."""
    p_u, p_d = oracle_powers(w_u, w_d, n_p)
    return np.einsum("nij,nij->n", p_u.conj(), p_d).real / w_u.shape[-1]


def oracle_basis_coherences(w_u, w_d, n_p):
    """<b|(T_u2^n_p)^dag T_d2^n_p|b> of every basis state b, as (n_tau, D)."""
    p_u, p_d = oracle_powers(w_u, w_d, n_p)
    return np.einsum("nij,nij->nj", p_u.conj(), p_d)


def schur_modes(cells):
    """Eigenphases E in (-pi, pi] (U Phi = e^{-i E} Phi) and Schur vectors of each cell."""
    import scipy.linalg
    t, q = scipy.linalg.schur(cells, output="complex")
    phases = -np.angle(np.diagonal(t, axis1=-2, axis2=-1))
    return np.where(phases <= -np.pi, phases + 2 * np.pi, phases), q


def schur_floquet(w_u, w_d):
    """(phases, M, same) per cell: the Schur phases and vectors Phi of T_u2,
    M = Phi^dag W_d Phi, whose |M_ll'|^2 are the overlaps of u-mode l' with
    the d-partner W_d Phi_l of u-mode l, and the mask of mode pairs whose
    cell eigenvalues lie within 1e-8 (a cluster, where the Schur vectors
    are an arbitrary basis)."""
    phases, q = schur_modes(w_u @ w_d)
    lam = np.exp(-1j * phases)
    same = np.abs(lam[..., :, None] - lam[..., None, :]) < 1e-8
    return phases, q.conj().swapaxes(-1, -2) @ w_d @ q, same


def schur_floor(w_u, w_d):
    """Envelope floor (2/D) sum_{l,l' same cluster} |M_ll'|^2 - 1 per cell."""
    _, m, same = schur_floquet(w_u, w_d)
    return 2.0 / m.shape[-1] * (np.abs(m) ** 2 * same).sum(axis=(-2, -1)) - 1.0


def floquet_sum(phases, m, n_p):
    """The coherence from the Floquet expansion of one cell,
    (1/D) Re sum_{l,l'} e^{i n_p (E_l - E_l')} |M_ll'|^2."""
    turn = np.exp(1j * n_p * phases)
    return float((turn.conj() @ np.abs(m) ** 2 @ turn).real) / len(phases)


def circular_gap(a, b):
    """Pairwise distance of phases a[..., i], b[..., j] on the circle."""
    diff = np.abs(a[..., :, None] - b[..., None, :]) % (2 * np.pi)
    return np.minimum(diff, 2 * np.pi - diff)


def matched_gap(a, b):
    """Largest circular distance of the best one-to-one matching of two phase multisets."""
    from scipy.optimize import linear_sum_assignment
    gaps = circular_gap(a, b)
    rows, cols = linear_sum_assignment(gaps)
    return gaps[rows, cols].max()


def kernel_residual(t_u2, t_d2, w_d, symmetric=False):
    """The row kernel's half-period residual ||T_d2 W_d Phi - lambda W_d Phi|| per
    cell, for the modes of its one ``eig_unitaries`` solve of T_u2."""
    import floqsens.engine as engine
    return engine._floquet_modes(*engine.eig_unitaries(t_u2, symmetric), w_d, t_d2)[2]


def kernel_sector_values(w_u, w_d, n_p, quantities, symmetric=False):
    """The row kernel's per-cell values of the sector cells (W_u, W_d), d times
    a row's values, from its one ``eig_unitaries`` solve of T_u2 = W_u W_d."""
    import floqsens.engine as engine
    from floqsens.linalg import matmul
    phases, modes = engine.eig_unitaries(matmul(w_u, w_d), symmetric)
    return engine._sector_values(phases, modes, w_d, matmul(w_d, w_u), n_p, quantities)
