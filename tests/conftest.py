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
