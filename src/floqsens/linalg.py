"""Dense complex linear algebra for small spin systems (dim <= a few hundred).

All matrices are plain complex ``numpy`` arrays, except the modes of a
complex symmetric unitary, which ``eig_unitaries`` returns real.
Propagators follow the physics convention U = exp(-i H t) with H in rad/s
and t in seconds, and eigenphases E are reported through
U |phi> = exp(-i E) |phi| with E in (-pi, pi] (a tie at -pi is folded to
+pi).  Every stacked product of the engine's sector kernels, and the gram
of ``unitarity_defect``, goes through ``matmul``: two real products for a
real right operand, one real product of the realified operand for complex
cells of 2 to SMALL_PRODUCT_DIM states, where NumPy's per-cell complex
BLAS call costs most, and a @ b otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalConsistencyError, ValidationError, locate

MAX_DIM = 4096
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
# Largest Cayley eigenvalue |tan((E + cut) / 2)| accepted by eig_unitaries:
# above it an eigenphase lies within about 2e-3 rad of the cut, and the
# absolute error eps |A| of eigh starts to mix modes of the other phases.
MAX_CAYLEY_TAN = 1e3
# Re-solves of one matrix with a new cut before eig_unitaries gives up.  A
# solve whose transform was huge (an eigenvalue within rounding of the cut)
# gives only rough phases, so its next cut can land near an eigenvalue;
# the solve after that has accurate phases.
CAYLEY_RECUTS = 3
# Byte budget of one array of a batched kernel (a stack of cells or donor
# Hamiltonians, or a (rows, tau) grid); longer batches are processed in
# blocks.  At 64 KiB the stacks stay in cache; larger blocks measured no
# faster on D = 8 and 16.
BLOCK_BYTES = 64 * 1024
# Largest inner dimension d of a complex stacked product that ``matmul`` runs
# as one real product.  NumPy hands each complex d x d product of a stack to
# the BLAS zgemm, whose fixed cost per call dominates small cells.  On one
# block of BLOCK_BYTES the real product won both the plain and the gram form
# for 2 <= d <= 7 in every run of scripts/product_crossover.py, and lost the
# gram from d = 8 on (OpenBLAS 0.3.31, Haswell kernels, one thread; see
# README).  At d = 1 NumPy skips the BLAS and a @ b is fastest.
SMALL_PRODUCT_DIM = 7

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max elementwise magnitude of M - M^dagger."""
    return float(np.abs(m - m.conj().T).max())


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of (..., d, k) and (..., k, m) stacks, by the cheapest product for their types.

    * A real b and a complex a: the real and imaginary parts of a times b,
      two real products that sum the terms of the complex product.
    * Both complex with 2 <= k <= SMALL_PRODUCT_DIM: one real product of
      a viewed as (..., d, 2k) pairs (Re, Im) and the realified b of
      (..., 2k, 2m), whose entry b_lj is the block [[Re, Im], [-Im, Re]]
      (rows 2l and 2l + 1 are the pairs of b_l and i b_l); its
      (..., d, 2m) result is the (Re, Im) pairs of a @ b.  It sums the
      same products as the complex one, in the BLAS's order, so the two
      differ by rounding alone.
    * Anything else: a @ b.

    Each matrix of a stack is computed from its own operands alone, so a
    stacked call gives every matrix the bits of a call on it alone.
    """
    if not np.iscomplexobj(b):
        if not np.iscomplexobj(a):
            return a @ b
        out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=complex)
        out.real = a.real @ b
        out.imag = a.imag @ b
        return out
    if np.iscomplexobj(a) and 2 <= b.shape[-2] <= SMALL_PRODUCT_DIM:
        return _realified_matmul(a, b)
    return a @ b


def _realified_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of complex stacks as one real product (see ``matmul``); the rows
    i b_l come from one complex multiply, exact but for the sign of a zero."""
    k, m = b.shape[-2:]
    real = np.empty(b.shape[:-1] + (2, m), dtype=complex)  # rows b_l and i b_l
    real[..., 0, :] = b
    np.multiply(b, 1j, out=real[..., 1, :])
    real = real.view(float).reshape(b.shape[:-2] + (2 * k, 2 * m))
    return (np.ascontiguousarray(a).view(float) @ real).view(complex)


def unitarity_defect(u: np.ndarray) -> float | np.ndarray:
    """Max elementwise magnitude of U U^dagger - 1, per matrix of a (..., D, D)
    stack; the gram U U^dagger is a ``matmul`` product, and a non-finite
    entry gives a NaN or inf defect."""
    gram = matmul(u, u.conj().swapaxes(-1, -2))
    return np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = require_square(m, name)
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise ValidationError(
            f"{name} is not Hermitian: defect {defect:.3e} > {HERMITICITY_TOL:.1e}")
    return m


def require_unitary(cells: np.ndarray) -> None:
    """Raise ValidationError at the index of the first matrix of a (n, D, D) stack
    that fails UNITARITY_TOL; a NaN defect fails."""
    defect = unitarity_defect(cells)
    bad = np.flatnonzero(~(defect <= UNITARITY_TOL))
    if bad.size:
        raise locate(ValidationError(
            f"matrix is not unitary: defect {defect[bad[0]]:.3e} > {UNITARITY_TOL:.1e}"), bad[0])


def block_slices(count: int, item_bytes: int):
    """Consecutive slices of range(count), each of as many items of ``item_bytes``
    as fit BLOCK_BYTES and at least one, so an item above the budget is a block."""
    step = max(1, BLOCK_BYTES // item_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly: Dekker's two-product,
    on Veltkamp halves of at most 26 bits, whose products are exact (no
    fused multiply-add needed)."""
    p = a * b
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split v = hi + lo into halves of at most 26 bits."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator exp(-i h t) of a Hermitian generator, via eigh (the
    benchmark's per-layer counters read this name)."""
    h = require_hermitian(h, name="generator")
    if not np.isfinite(t) or t < 0:
        raise ValidationError(f"evolution time must be finite and >= 0, got {t}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def eig_unitaries(u: np.ndarray, symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and orthonormal modes of each unitary of an (n, D, D) stack.

    Returns (phases, modes) with phases (n, D) ascending in (-pi, pi] and
    column l of modes[k] belonging to phases[k, l], so that
    U_k = modes[k] diag(exp(-i phases[k])) modes[k]^dag.  Unitarity is the
    caller's check (``require_unitary``).

    A unitary U is normal, so its Cayley transform
    A = i (1 - U') (1 + U')^-1 with U' = e^{-i cut} U is Hermitian, with the
    modes of U and the eigenvalues -tan((E + cut) / 2), one to one in E.
    A batched ``eigh`` of A therefore gives orthonormal modes at any phase
    gap, degenerate clusters included, and the phases are the Rayleigh
    quotients -arg(Phi^dag U Phi).  With ``symmetric`` the caller states
    that every U is complex symmetric (U = U^T, as the palindromic cells of
    a real Hamiltonian pair are): then U' = R + i I has commuting real
    symmetric parts and A is real symmetric, so the ``eigh`` and the
    Rayleigh quotients run in real arithmetic and the modes are real.  The
    solve stays complex: the real form A = -(1 + R)^-1 I magnifies the
    rounding of 1 + R by (1 + tan^2) / 2, not about |tan| / 2.  Every
    matrix is solved with cut 0 first; one whose transform exceeds
    MAX_CAYLEY_TAN (an eigenvalue within about 2e-3 rad of the cut) is
    solved again with the cut in the middle of its largest phase gap,
    which is at least 2 pi / D wide, up to CAYLEY_RECUTS times.  A matrix
    still above it raises NumericalConsistencyError; its ``index`` is that
    matrix's stack index.  A 1 x 1 matrix u has the phase -arg u and the
    real mode 1, without a transform.
    """
    if u.shape[-1] == 1:
        phases = -np.angle(u[:, 0])
        modes = np.ones(u.shape)
    else:
        size, modes = _cayley_eigh(u, np.zeros(len(u)), symmetric)
        phases = _rayleigh_phases(u, modes)
        todo = np.flatnonzero(size > MAX_CAYLEY_TAN)
        for _ in range(CAYLEY_RECUTS):
            if not todo.size:
                break
            size, modes[todo] = _cayley_eigh(u[todo], np.pi - _largest_gap_middle(phases[todo]),
                                             symmetric)
            phases[todo] = _rayleigh_phases(u[todo], modes[todo])
            todo = todo[size > MAX_CAYLEY_TAN]
        if todo.size:
            raise locate(NumericalConsistencyError(
                f"Cayley transform exceeds {MAX_CAYLEY_TAN:.0e} at every cut tried"), todo[0])
    phases[phases <= -np.pi] += 2 * np.pi
    order = np.argsort(phases, axis=-1, kind="stable")
    return (np.take_along_axis(phases, order, axis=-1),
            np.take_along_axis(modes, order[:, None, :], axis=-1))


def _cayley_eigh(u: np.ndarray, cut: np.ndarray,
                 symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """Size and ``eigh`` modes of the Cayley transform of each e^{-i cut} U.

    The transform is solved as a = (1 + U')^-1 (1 - U') and A = i a made
    Hermitian; for a symmetric U', a = -i A with A real symmetric, so A is
    taken as the symmetric part of -Im a and its ``eigh`` is real.  The size
    is the largest |tan| of A, or the largest entry of the transform as
    solved if that is larger.  An eigenvalue within rounding of the cut
    gives 1 + U' a tiny eigenvalue of arbitrary complex phase, and its huge
    term in the solved transform can be anti-Hermitian and vanish from A.
    An eigenvalue exactly on the cut (-1 at cut 0) makes 1 + U' singular:
    size inf and unit modes, so the matrix is solved again at the largest
    gap of its diagonal phases.
    """
    eye = np.eye(u.shape[-1])  # with every cut 0, U' is U itself
    shifted = u * np.exp(-1j * cut)[:, None, None] if cut.any() else u
    try:
        a = np.linalg.solve(eye + shifted, eye - shifted)
    except np.linalg.LinAlgError:
        a = np.full_like(shifted, np.inf)
        for k in range(len(u)):
            try:
                a[k] = np.linalg.solve(eye + shifted[k], eye - shifted[k])
            except np.linalg.LinAlgError:
                pass
    size = np.abs(a).max(axis=(-2, -1))
    singular = ~np.isfinite(size)
    a[singular] = 0.0
    if symmetric:
        tans, modes = np.linalg.eigh(-0.5 * (a.imag + a.imag.swapaxes(-1, -2)))
    else:
        tans, modes = np.linalg.eigh(0.5j * (a - a.conj().swapaxes(-1, -2)))
    modes[singular] = eye
    return np.maximum(size, np.abs(tans).max(axis=-1)), modes


def _rayleigh_phases(u: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """-arg(Phi^dag U Phi) for every mode column Phi of a (n, D, D) stack;
    real modes take Phi^T Re(U) Phi and Phi^T Im(U) Phi in real arithmetic."""
    if np.iscomplexobj(modes):
        return -np.angle(np.einsum("nil,nil->nl", modes.conj(), u @ modes))
    return -np.arctan2(np.einsum("nil,nil->nl", modes, u.imag @ modes),
                       np.einsum("nil,nil->nl", modes, u.real @ modes))


def _largest_gap_middle(phases: np.ndarray) -> np.ndarray:
    """Middle of the largest circular gap between the phases of each row."""
    ordered = np.sort(phases, axis=-1)
    gaps = np.diff(ordered, axis=-1, append=ordered[:, :1] + 2 * np.pi)
    k = gaps.argmax(axis=-1)
    rows = np.arange(len(phases))
    return ordered[rows, k] + gaps[rows, k] / 2
