import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import floqsens.linalg as linalg
from floqsens import EigenSystem, NumericalConsistencyError, ValidationError, eig_unitary, \
    expm_hermitian
from floqsens.linalg import PAULI_X, PAULI_Z, eig_unitaries, hermiticity_defect, \
    unitarity_defect

from conftest import random_hermitian, spin_operators


class TestExpmHermitian:
    def test_zero_time_is_identity(self, rng):
        h = random_hermitian(5, rng)
        assert np.abs(expm_hermitian(h, 0.0) - np.eye(5)).max() < 1e-15

    def test_diagonal_closed_form(self):
        # H = (1/2) Z sigma_z with Z = 2 rad/s for t = pi gives -1
        u = expm_hermitian(0.5 * 2.0 * PAULI_Z, np.pi)
        assert np.abs(u + np.eye(2)).max() < 1e-14

    def test_matches_scaling_squaring_oracle(self, rng):
        h = random_hermitian(8, rng)
        u = expm_hermitian(h, 0.3)
        oracle = scipy.linalg.expm(-1j * h * 0.3)
        assert np.abs(u - oracle).max() < 1e-10

    def test_result_is_unitary(self, rng):
        for dim in (2, 4, 16):
            u = expm_hermitian(random_hermitian(dim, rng), 1.7)
            assert unitarity_defect(u) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
    def test_additivity(self, t1, t2):
        h = random_hermitian(4, np.random.default_rng(7))
        lhs = expm_hermitian(h, t1) @ expm_hermitian(h, t2)
        assert np.abs(lhs - expm_hermitian(h, t1 + t2)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            expm_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValidationError):
            expm_hermitian(random_hermitian(2, rng), -1.0)


class TestEigUnitary:
    def test_identity(self):
        es = eig_unitary(np.eye(3))
        assert np.abs(es.phases).max() == 0.0
        assert np.abs(es.modes.conj().T @ es.modes - np.eye(3)).max() < 1e-14

    def test_diagonal_unitary(self):
        u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
        es = eig_unitary(u)
        assert np.allclose(es.phases, [-0.3, 0.3], atol=1e-14)

    def test_su2_product_conjugate_pair(self, rng):
        # cell operator of two random 2x2 Hermitian generators
        tau = 0.4
        h_u = random_hermitian(2, rng)
        h_d = random_hermitian(2, rng)
        h_u -= np.trace(h_u) / 2 * np.eye(2)
        h_d -= np.trace(h_d) / 2 * np.eye(2)
        u = expm_hermitian(h_u, tau) @ expm_hermitian(h_d, 2 * tau) @ expm_hermitian(h_u, tau)
        assert abs(np.linalg.det(u) - 1) < 1e-12
        es = eig_unitary(u)
        # oracle: characteristic polynomial of a 2x2 unitary with det 1
        e_oracle = np.arccos(np.clip(np.trace(u).real / 2, -1, 1))
        assert np.allclose(es.phases, [-e_oracle, e_oracle], atol=1e-10)

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 5, 8):
            u = expm_hermitian(random_hermitian(dim, rng), 0.9)
            es = eig_unitary(u)
            assert es.reconstruction_defect(u) < 1e-10
            gram = es.modes.conj().T @ es.modes
            assert np.abs(gram - np.eye(dim)).max() < 1e-10
            assert np.abs(np.abs(es.eigenvalues()) - 1).max() < 1e-10
            assert np.all(np.diff(es.phases) >= 0)

    def test_phase_fold_at_pi(self):
        es = eig_unitary(-np.eye(2))
        assert np.allclose(es.phases, [np.pi, np.pi])

    def test_matches_general_eigensolver(self, rng):
        # independent route: numpy's general (non-Schur) eigensolver
        for dim in (3, 8):
            u = expm_hermitian(random_hermitian(dim, rng), 1.3)
            es = eig_unitary(u)
            lam = np.linalg.eigvals(u)
            got = np.sort_complex(es.eigenvalues())
            want = np.sort_complex(lam)
            assert np.abs(got - want).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="defect"):
            eig_unitary(np.eye(2) * 1.5)


def schur_phases(u):
    """Eigenphases of a unitary from its complex Schur form (the independent oracle)."""
    t, _ = scipy.linalg.schur(u, output="complex")
    return -np.angle(np.diag(t))


def circle_distance(a, b):
    """Largest distance on the unit circle between two phase multisets, matched optimally."""
    dist = np.abs(np.exp(-1j * a)[:, None] - np.exp(-1j * b)[None, :])
    rows, cols = linear_sum_assignment(dist)
    return dist[rows, cols].max()


@st.composite
def unitary_spectra(draw):
    """(U, phases) with U = Q diag(exp(-i phases)) Q^dag, Q a random unitary or a permutation.

    Spectra are generic, near-degenerate (gaps down to 1e-13), exactly
    degenerate, next to the -1 cut of the first Cayley solve, or with an
    eigenvalue at exactly -1.
    """
    dim = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["generic", "near", "degenerate", "near_cut", "minus_one"]))
    phases = rng.uniform(-np.pi, np.pi, dim)
    if kind == "near":
        phases[1:] = phases[:-1] + 10.0 ** rng.uniform(-13, -4, dim - 1)
    elif kind == "degenerate":
        phases = np.repeat(phases[: (dim + 1) // 2], 2)[:dim]
    elif kind == "near_cut":
        phases[: max(1, dim // 3)] = np.pi - 10.0 ** rng.uniform(-14, -2, max(1, dim // 3))
    elif kind == "minus_one":
        phases[: draw(st.integers(1, dim))] = np.pi
    if draw(st.booleans()):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
    else:
        q = np.eye(dim)[rng.permutation(dim)]
    return (q * np.exp(-1j * phases)) @ q.conj().T


class TestEigUnitaries:
    @settings(max_examples=300, deadline=None)
    @given(u=unitary_spectra())
    def test_matches_schur_oracle(self, u):
        phases, modes = eig_unitaries(u[None])
        phases, modes = phases[0], modes[0]
        dim = u.shape[0]
        assert np.abs(modes.conj().T @ modes - np.eye(dim)).max() <= 1e-13
        assert EigenSystem(phases, modes).reconstruction_defect(u) <= 1e-12
        assert np.all(np.diff(phases) >= 0)
        assert np.all((phases > -np.pi) & (phases <= np.pi))
        assert circle_distance(phases, schur_phases(u)) <= 1e-12

    @pytest.mark.parametrize("seed", [207, 6076, 17702])
    def test_eigenvalue_within_rounding_of_the_cut(self, seed):
        # An eigenvalue at -1 up to rounding makes the first solve huge and
        # its phases rough.  When found, seed 207 lost its -1 mode to the
        # Hermitization (size from tan values alone), and 6076 and 17702
        # needed a second re-cut because the first landed near an eigenvalue.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 17))
        phases = rng.uniform(-np.pi, np.pi, dim)
        phases[0] = np.pi
        q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        u = (q * np.exp(-1j * phases)) @ q.conj().T
        es = eig_unitary(u)
        assert np.abs(es.modes.conj().T @ es.modes - np.eye(dim)).max() <= 1e-13
        assert es.reconstruction_defect(u) <= 1e-12

    def test_stack_equals_one_matrix_at_a_time(self, rng):
        cells = np.stack([expm_hermitian(random_hermitian(6, rng), 0.8) for _ in range(5)])
        cells[2] = -np.eye(6)
        phases, modes = eig_unitaries(cells)
        for k, cell in enumerate(cells):
            es = eig_unitary(cell)
            assert es.phases.tobytes() == phases[k].tobytes()
            assert es.modes.tobytes() == modes[k].tobytes()

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_one_state_cells_are_their_own_phase(self, symmetric):
        # A 1 x 1 cell u has the phase -arg u, folded into (-pi, pi], and the
        # mode 1, bit for bit; where the transform of the general path
        # solves at cut 0 it gives the same bits.
        values = np.concatenate([np.exp(-1j * np.linspace(-np.pi, np.pi, 101)),
                                 [1.0, -1.0, 1j, -1j, complex(-1.0, -0.0), complex(-1.0, 1e-300),
                                  np.exp(-1j * np.nextafter(np.pi, 0))]])
        u = values[:, None, None]
        phases, modes = eig_unitaries(u, symmetric)
        want = -np.angle(values)
        want[want <= -np.pi] += 2 * np.pi
        assert phases[:, 0].tobytes() == want.tobytes()
        assert modes.dtype == float and np.all(modes == 1.0)
        size, general = linalg._cayley_eigh(u, np.zeros(len(u)), symmetric)
        solved = size <= linalg.MAX_CAYLEY_TAN
        assert solved.sum() > 90 and np.all(general[solved] == 1.0)
        assert linalg._rayleigh_phases(u, general)[solved].tobytes() == phases[solved].tobytes()

    def test_unresolved_cut_raises(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_CAYLEY_TAN", 0.0)
        cells = np.stack([expm_hermitian(random_hermitian(3, rng), 0.8) for _ in range(2)])
        with pytest.raises(NumericalConsistencyError, match="at every cut tried"):
            eig_unitaries(cells)


class TestSpinOperators:
    """The spin operators of the kron-product donor oracle (``conftest.donor_eigh``)."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 4.5])
    def test_commutation_and_casimir(self, s):
        sx, sy, sz = spin_operators(s)
        assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.abs(casimir - s * (s + 1) * np.eye(sx.shape[0])).max() < 1e-12

    def test_spin_half_is_half_pauli(self):
        sx, sy, sz = spin_operators(0.5)
        assert np.abs(sx - PAULI_X / 2).max() < 1e-15
        assert np.abs(sz - PAULI_Z / 2).max() < 1e-15

    def test_hermitian(self):
        for op in spin_operators(1.5):
            assert hermiticity_defect(op) < 1e-15

    def test_rejects_bad_spin(self):
        with pytest.raises(ValidationError):
            spin_operators(0.3)
