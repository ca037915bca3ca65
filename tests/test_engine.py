import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from floqsens import (
    ConditionalHamiltonians,
    EigenSystem,
    FloquetPair,
    PulseSequence,
    SymmetryViolationError,
    ValidationError,
    coherence_floquet,
    coherence_numeric,
    envelope_general,
    eig_unitary,
    expm_hermitian,
    floquet_pair,
    half_period_check,
    half_period_operators,
    spectrum_scan,
    thermal_coherence_numeric,
    unit_cell,
)
from floqsens.engine import _stacked_floor, unitary_power

from conftest import random_hermitian


def random_conditional(dim, rng, real=False):
    return ConditionalHamiltonians(random_hermitian(dim, rng, real),
                                   random_hermitian(dim, rng, real))


class TestPulseSequence:
    def test_total_time(self):
        seq = PulseSequence(tau=2e-6, n_p=5, pulse_duration=1e-7)
        assert seq.total_time == pytest.approx(4 * 5 * 2.1e-6)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValidationError):
            PulseSequence(tau=0.0, n_p=1)


class TestUnitCell:
    def test_equal_hamiltonians_collapse(self, rng):
        h = random_hermitian(4, rng)
        ch = ConditionalHamiltonians(h, h)
        t_u2, t_d2 = unit_cell(ch, PulseSequence(tau=0.7, n_p=1))
        expected = expm_hermitian(h, 4 * 0.7)
        assert np.abs(t_u2 - expected).max() < 1e-12
        assert np.abs(t_d2 - expected).max() < 1e-12

    def test_matches_four_factor_oracle(self, rng):
        ch = random_conditional(2, rng)
        tau = 0.45
        t_u2, t_d2 = unit_cell(ch, PulseSequence(tau=tau, n_p=1))
        t_u = scipy.linalg.expm(-1j * ch.h_u * tau)
        t_d = scipy.linalg.expm(-1j * ch.h_d * tau)
        assert np.abs(t_u2 - t_u @ t_d @ t_d @ t_u).max() < 1e-12
        assert np.abs(t_d2 - t_d @ t_u @ t_u @ t_d).max() < 1e-12

    def test_finite_pulse_without_hamiltonian_shifts_interval(self, rng):
        # a trivial pulse window only stretches the effective interval
        ch = random_conditional(4, rng)
        t_u2, t_d2 = unit_cell(ch, PulseSequence(tau=0.3, n_p=1, pulse_duration=0.1))
        r_u2, r_d2 = unit_cell(ch, PulseSequence(tau=0.4, n_p=1))
        assert np.abs(t_u2 - r_u2).max() < 1e-13
        assert np.abs(t_d2 - r_d2).max() < 1e-13

    def test_explicit_pulse_hamiltonian_inserted(self, rng):
        ch = random_conditional(2, rng)
        h_pulse = random_hermitian(2, rng)
        seq = PulseSequence(tau=0.3, n_p=1, pulse_duration=0.05,
                            intra_pulse_hamiltonian=h_pulse)
        t_u2, _ = unit_cell(ch, seq)
        t_u = scipy.linalg.expm(-1j * ch.h_u * 0.3)
        t_d = scipy.linalg.expm(-1j * ch.h_d * 0.3)
        t_pi = scipy.linalg.expm(-1j * h_pulse * 0.1)
        assert np.abs(t_u2 - t_u @ t_pi @ t_d @ t_d @ t_pi @ t_u).max() < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            ConditionalHamiltonians(random_hermitian(2, rng), random_hermitian(4, rng))


class TestFloquetPair:
    def test_identical_cells_identity_pairing(self, rng):
        h = random_hermitian(3, rng)
        ch = ConditionalHamiltonians(h, h)
        pair = floquet_pair(*unit_cell(ch, PulseSequence(tau=0.3, n_p=1)))
        matched = np.abs(pair.overlaps[pair.pairing, np.arange(3)])
        assert np.all(matched > 1 - 1e-10)

    def test_pseudospin_conjugate_pair(self, rng):
        ch = random_conditional(2, rng)
        ch = ConditionalHamiltonians(ch.h_u - np.trace(ch.h_u) / 2 * np.eye(2),
                                     ch.h_d - np.trace(ch.h_d) / 2 * np.eye(2))
        pair = floquet_pair(*unit_cell(ch, PulseSequence(tau=0.5, n_p=1)))
        assert pair.phases[0] == pytest.approx(-pair.phases[1], abs=1e-12)

    def test_phase_multisets_agree_random(self, rng):
        for dim in (2, 4, 8):
            for _ in range(10):
                ch = random_conditional(dim, rng)
                tau = rng.uniform(0.05, 1.5)
                t_u2, t_d2 = unit_cell(ch, PulseSequence(tau=tau, n_p=1))
                su, sd = eig_unitary(t_u2), eig_unitary(t_d2)
                lam_u = np.sort_complex(su.eigenvalues())
                lam_d = np.sort_complex(sd.eigenvalues())
                assert np.abs(lam_u - lam_d).max() < 1e-12

    def test_mismatched_cells_raise(self, rng):
        u1 = expm_hermitian(random_hermitian(3, rng), 0.4)
        u2 = expm_hermitian(random_hermitian(3, rng), 0.4)
        with pytest.raises(SymmetryViolationError):
            floquet_pair(u1, u2)


class TestHalfPeriod:
    def test_equal_hamiltonians_zero_residual(self, rng):
        h = random_hermitian(4, rng)
        ch = ConditionalHamiltonians(h, h)
        seq = PulseSequence(tau=0.4, n_p=1)
        pair = floquet_pair(*unit_cell(ch, seq))
        assert half_period_check(ch, seq, pair) < 1e-12

    def test_random_two_level(self, rng):
        for _ in range(20):
            ch = random_conditional(2, rng)
            seq = PulseSequence(tau=rng.uniform(0.1, 1.0), n_p=1)
            pair = floquet_pair(*unit_cell(ch, seq))
            assert half_period_check(ch, seq, pair) < 1e-10

    def test_finite_pulse_with_trivial_pulse_operator(self, rng):
        for _ in range(5):
            ch = random_conditional(8, rng)
            seq = PulseSequence(tau=rng.uniform(0.1, 0.8), n_p=1,
                                pulse_duration=0.07,
                                intra_pulse_hamiltonian=np.zeros((8, 8)))
            pair = floquet_pair(*unit_cell(ch, seq))
            assert half_period_check(ch, seq, pair) < 1e-10

    def test_factorization_consistency(self, rng):
        ch = random_conditional(4, rng)
        seq = PulseSequence(tau=0.33, n_p=1)
        w_u, w_d = half_period_operators(ch, seq)
        t_u2, t_d2 = unit_cell(ch, seq)
        assert np.abs(w_u @ w_d - t_u2).max() < 1e-13
        assert np.abs(w_d @ w_u - t_d2).max() < 1e-13


class TestUnitaryPower:
    def test_matches_naive_power(self, rng):
        u = expm_hermitian(random_hermitian(3, rng), 0.8)
        naive = np.linalg.matrix_power(u, 37)
        assert np.abs(unitary_power(u, 37) - naive).max() < 1e-10

    def test_zero_power(self, rng):
        u = expm_hermitian(random_hermitian(3, rng), 0.8)
        assert np.array_equal(unitary_power(u, 0), np.eye(3))


class TestCoherence:
    def test_zero_repetitions(self, rng):
        ch = random_conditional(4, rng)
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0
        val = coherence_numeric(ch, PulseSequence(tau=0.5, n_p=0), state)
        assert val == pytest.approx(1.0)

    def test_equal_hamiltonians_unit_coherence(self, rng):
        h = random_hermitian(4, rng)
        ch = ConditionalHamiltonians(h, h)
        state = np.ones(4, dtype=complex) / 2
        for n_p in (1, 11, 64):
            val = coherence_numeric(ch, PulseSequence(tau=0.5, n_p=n_p), state)
            assert abs(val - 1.0) < 1e-12

    def test_rejects_bad_norm(self, rng):
        ch = random_conditional(2, rng)
        with pytest.raises(ValidationError):
            coherence_numeric(ch, PulseSequence(tau=0.5, n_p=1), np.array([1.0, 1.0]))

    def test_floquet_sum_matches_basis_average(self, rng):
        for dim in (2, 4, 8):
            ch = random_conditional(dim, rng)
            seq = PulseSequence(tau=0.45, n_p=9)
            pair = floquet_pair(*unit_cell(ch, seq))
            from_floquet = coherence_floquet(pair, 9)
            acc = 0.0
            for j in range(dim):
                state = np.zeros(dim, dtype=complex)
                state[j] = 1.0
                acc += coherence_numeric(ch, seq, state).real
            assert abs(from_floquet - acc / dim) < 1e-9

    def test_identical_pair_gives_one(self, rng):
        h = random_hermitian(3, rng)
        ch = ConditionalHamiltonians(h, h)
        pair = floquet_pair(*unit_cell(ch, PulseSequence(tau=0.4, n_p=1)))
        assert coherence_floquet(pair, 17) == pytest.approx(1.0, abs=1e-12)

    def test_dip_limit_reaches_minus_one(self):
        # synthetic two-level pair at a dip: phases +-(pi - delta) and fully
        # swapped modes; n_p delta = pi/2 gives the maximal dip, L = -1
        n_p = 10
        delta = np.pi / (2 * n_p)
        phases = np.array([-(np.pi - delta), np.pi - delta])
        modes_u = np.eye(2, dtype=complex)
        modes_d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        pair = FloquetPair(spectrum_u=EigenSystem(phases, modes_u),
                           spectrum_d=EigenSystem(phases, modes_d),
                           pairing=np.array([0, 1]),
                           overlaps=modes_d.conj().T @ modes_u)
        assert coherence_floquet(pair, n_p) == pytest.approx(-1.0, abs=1e-12)

    def test_two_level_imaginary_part_vanishes(self, rng):
        ch = random_conditional(2, rng)
        seq = PulseSequence(tau=0.6, n_p=13)
        pair = floquet_pair(*unit_cell(ch, seq))
        # the imag_tol contract is enforceable at D = 2
        coherence_floquet(pair, 13, imag_tol=1e-12)

    def test_thermal_equals_trace_route(self, rng):
        ch = random_conditional(4, rng)
        seq = PulseSequence(tau=0.35, n_p=6)
        acc = 0.0
        for j in range(4):
            state = np.zeros(4, dtype=complex)
            state[j] = 1.0
            acc += coherence_numeric(ch, seq, state).real
        assert thermal_coherence_numeric(ch, seq) == pytest.approx(acc / 4, abs=1e-12)


class TestEnvelope:
    def test_two_level_single_term(self, rng):
        ch = random_conditional(2, rng)
        seq = PulseSequence(tau=0.5, n_p=1)
        pair = floquet_pair(*unit_cell(ch, seq))
        terms = envelope_general(pair)
        assert terms.coefficients.shape == (1,)
        w = np.abs(pair.overlaps) ** 2
        assert terms.coefficients[0] == pytest.approx(w[0, 1] + w[1, 0], abs=1e-12)

    def test_identical_modes_zero_coefficients(self, rng):
        h = random_hermitian(4, rng)
        ch = ConditionalHamiltonians(h, h)
        pair = floquet_pair(*unit_cell(ch, PulseSequence(tau=0.5, n_p=1)))
        terms = envelope_general(pair)
        assert np.abs(terms.coefficients).max() < 1e-12

    def test_reconstruction_identity(self, rng):
        ch = random_conditional(8, rng)
        seq = PulseSequence(tau=0.4, n_p=1)
        pair = floquet_pair(*unit_cell(ch, seq))
        terms = envelope_general(pair)
        for n_p in range(1, 51):
            assert abs(terms.reconstruct(n_p) - coherence_floquet(pair, n_p)) < 1e-9

    def test_overlap_matrix_unitary(self, rng):
        ch = random_conditional(8, rng)
        pair = floquet_pair(*unit_cell(ch, PulseSequence(tau=0.4, n_p=1)))
        gram = pair.overlaps.conj().T @ pair.overlaps
        assert np.abs(gram - np.eye(8)).max() < 1e-10

    def test_floor_bounds_reconstruction(self, rng):
        ch = random_conditional(4, rng)
        pair = floquet_pair(*unit_cell(ch, PulseSequence(tau=0.7, n_p=1)))
        terms = envelope_general(pair)
        vals = [terms.reconstruct(n) for n in range(1, 120)]
        assert terms.floor <= min(vals) + 1e-12

    def test_modes_paired_across_the_pi_cut(self):
        # Both cells share their modes; one shared phase sits just below +pi
        # in T_u2 and just above -pi in T_d2, so the phase-sorted orders differ.
        # The phases of W_d straddle the cut the same way.
        t_u2 = np.diag(np.exp(-1j * np.array([np.pi - 1e-10, 2.4])))
        t_d2 = np.diag(np.exp(-1j * np.array([-np.pi + 1e-10, 2.4])))
        w_d = np.diag(np.exp(-1j * np.array([np.pi - 1e-10, -np.pi + 1e-10])))
        pair = floquet_pair(t_u2, t_d2)
        assert pair.pairing.tolist() == [1, 0]
        assert envelope_general(pair).floor == pytest.approx(1.0, abs=1e-12)
        assert coherence_floquet(pair, 3) == pytest.approx(1.0, abs=1e-12)
        # Diagonal cells are symmetric: both eigensolver paths apply.
        for symmetric in (False, True):
            floor, _, residual = _stacked_floor(t_u2[None], t_d2[None], w_d[None], symmetric)
            assert floor[0] == pytest.approx(1.0, abs=1e-12)
            assert residual[0] < 1e-9


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2 ** 32 - 1),
       tau=st.floats(0.01, 3.0), n_p=st.integers(0, 200))
def test_coherence_floquet_matches_thermal_numeric(dim, seed, tau, n_p):
    rng = np.random.default_rng(seed)
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    seq = PulseSequence(tau=tau, n_p=n_p)
    pair = floquet_pair(*unit_cell(ch, seq))
    assert coherence_floquet(pair, n_p) == pytest.approx(
        thermal_coherence_numeric(ch, seq), abs=1e-10)


class TestShortTimeAndBounds:
    def test_coherence_bounded_and_unity_at_short_time(self, rng):
        for dim in (2, 4, 8):
            ch = random_conditional(dim, rng)
            scale = max(np.abs(ch.h_u).max(), np.abs(ch.h_d).max())
            state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state /= np.linalg.norm(state)
            for tau in (1e-9 / scale, 0.3 / scale, 3.0 / scale):
                val = coherence_numeric(ch, PulseSequence(tau=float(tau), n_p=25), state)
                assert abs(val) <= 1.0 + 1e-10
            tiny = coherence_numeric(ch, PulseSequence(tau=1e-9 / scale, n_p=25), state)
            assert abs(tiny - 1.0) < 1e-6

    def test_thermal_short_time_limit(self, rng):
        ch = random_conditional(8, rng)
        scale = max(np.abs(ch.h_u).max(), np.abs(ch.h_d).max())
        val = thermal_coherence_numeric(ch, PulseSequence(tau=1e-9 / scale, n_p=40))
        assert val == pytest.approx(1.0, abs=1e-6)


class TestSpectrumScan:
    def test_collinear_linear_trajectories(self):
        from floqsens import TwoStateModel
        model = TwoStateModel.from_components(0.0, 2.0, 0.0, 1.2)
        ch = model.conditional()
        taus = np.linspace(0.01, 2.5, 120)
        scan = spectrum_scan(ch, taus)
        eps0 = 0.5 * (model.omega_u + model.omega_d) * 2  # slope of E = 4 eps0 tau / 2...
        lines = 2 * (model.omega_u + model.omega_d) * taus
        wrapped = np.angle(np.exp(1j * lines))
        for i in range(taus.size):
            got = np.sort(scan.phases[i])
            want = np.sort([wrapped[i], -wrapped[i]])
            assert np.allclose(got, want, atol=1e-9)

    def test_crossing_flags_near_pi(self):
        from floqsens import TwoStateModel
        model = TwoStateModel.from_components(0.0, 2.0, 0.0, 1.2)
        taus = np.linspace(0.01, 2.5, 400)
        scan = spectrum_scan(model.conditional(), taus, gap_threshold=0.05)
        # true crossings whenever 2 (w_u + w_d) tau hits pi (mod 2 pi)
        lines = 2 * (model.omega_u + model.omega_d) * taus
        near = np.abs(np.angle(np.exp(1j * (lines - np.pi)))) < 0.02
        assert np.all(scan.crossings[near])

    @pytest.mark.parametrize("threshold", [-1e-2, float("nan")])
    def test_gap_threshold_must_be_non_negative(self, threshold):
        from floqsens import TwoStateModel
        ch = TwoStateModel.from_components(0.0, 2.0, 0.0, 1.2).conditional()
        with pytest.raises(ValidationError, match="gap_threshold must be >= 0"):
            spectrum_scan(ch, np.linspace(0.01, 2.5, 10), gap_threshold=threshold)

    def test_trajectory_continuity(self, rng):
        ch = random_conditional(4, rng)
        taus = np.linspace(0.02, 1.2, 300)
        scan = spectrum_scan(ch, taus)
        # continuity-tracked columns move smoothly except at branch wraps
        step = np.abs(np.diff(scan.phases, axis=0))
        step = np.minimum(step, 2 * np.pi - step)
        assert np.median(step) < 0.05
