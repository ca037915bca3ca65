"""Dense complex linear algebra for small spin systems (dim <= a few hundred).

All matrices are plain complex ``numpy`` arrays.  Propagators follow the
physics convention U = exp(-i H t) with H in rad/s and t in seconds, and
eigenphases E are reported through U |phi> = exp(-i E) |phi| with
E in (-pi, pi] (a tie at -pi is folded to +pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_DIM = 4096
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max elementwise magnitude of M - M^dagger."""
    return float(np.abs(m - m.conj().T).max())


def unitarity_defect(u: np.ndarray) -> float | np.ndarray:
    """Max elementwise magnitude of U U^dagger - 1, per matrix of a (..., D, D) stack."""
    gram = u @ u.conj().swapaxes(-1, -2)
    return np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL,
                      name: str = "matrix") -> np.ndarray:
    m = require_square(m, name)
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValidationError(f"{name} is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    return m


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator exp(-i h t) of a Hermitian generator, via eigh."""
    h = require_hermitian(h, name="generator")
    if not np.isfinite(t) or t < 0:
        raise ValidationError(f"evolution time must be finite and >= 0, got {t}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


@dataclass(frozen=True)
class EigenSystem:
    """Eigenphases (ascending, in (-pi, pi]) and orthonormal modes of a unitary.

    Column l of ``modes`` belongs to ``phases[l]``; the matrix reconstructs as
    U = modes @ diag(exp(-i phases)) @ modes^dagger.
    """

    phases: np.ndarray
    modes: np.ndarray

    @property
    def dim(self) -> int:
        return self.modes.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.exp(-1j * self.phases)

    def reconstruction_defect(self, u: np.ndarray) -> float:
        rebuilt = (self.modes * np.exp(-1j * self.phases)) @ self.modes.conj().T
        return float(np.abs(rebuilt - u).max())


def eig_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> EigenSystem:
    """Eigenphases and modes of a unitary matrix via the complex Schur form.

    For a normal matrix the Schur factor is diagonal to machine precision,
    so the orthonormal Schur vectors are the eigenmodes; this stays robust
    at the near-degeneracies that avoided-crossing scans deliberately probe.
    """
    # Imported here, not at module level: SciPy is most of a cold start.
    from scipy.linalg import schur

    u = require_square(u, "unitary")
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValidationError(f"matrix is not unitary: defect {defect:.3e} > {tol:.1e}")
    t, q = schur(u, output="complex")
    phases = -np.angle(np.diag(t))
    phases[phases <= -np.pi] += 2 * np.pi
    order = np.argsort(phases, kind="stable")
    return EigenSystem(phases=phases[order], modes=q[:, order])


def polar_unitary(u: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor) of an almost-unitary matrix, per matrix of a stack."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


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
