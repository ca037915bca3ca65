"""The Floquet kernels ``floquet_rows`` and ``spectrum_scan`` on general
Hamiltonian pairs, against the full-space SciPy oracle of ``conftest``."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from floqsens import (
    ConditionalHamiltonians,
    SymmetryViolationError,
    ValidationError,
    expm_hermitian,
    spectrum_scan,
)
import floqsens.engine as engine
from floqsens import SpinCluster, conditional_cluster_hamiltonians
from floqsens.engine import floquet_rows
from floqsens.linalg import eig_unitaries

from conftest import (floquet_sum, kernel_residual, kernel_sector_values, matched_gap,
                      oracle_cells, oracle_coherence, oracle_powers, random_hermitian,
                      schur_floor, schur_floquet, schur_modes)


def random_conditional(dim, rng, real=False):
    return ConditionalHamiltonians(random_hermitian(dim, rng, real),
                                   random_hermitian(dim, rng, real))


def row(ch, taus, n_p, quantity, pulse_duration=0.0):
    """One quantity of the one-row kernel call over ``taus``."""
    return floquet_rows([ch], np.atleast_1d(taus), n_p, (quantity,),
                        pulse_duration=pulse_duration)[quantity][0]


def kernel_cells(ch, taus):
    """(W_u, W_d) of the kernels' cell builder for a pair of one sector, in its
    H_u eigenbasis; the oracle cells of the same pair less its offsets are
    similar to them."""
    (stack,) = ch.sectors
    _, d_u, y = next(engine._cell_blocks(stack.energies_u, stack.energies_d, stack.transfer,
                                         np.zeros(len(taus), dtype=int), np.asarray(taus)))
    return d_u[:, :, None] * y, y * d_u[:, None, :]


def half_period_residual(w_u, w_d):
    """The engine's largest ||T_d2 W_d Phi - lambda W_d Phi|| per cell, from its one
    solve of T_u2 = W_u W_d, with T_d2 = W_d W_u."""
    return kernel_residual(w_u @ w_d, w_d @ w_u, w_d)


def floor(w_u, w_d):
    """The engine's envelope floor per cell, from d (floor + 1) of ``_sector_values``."""
    d = w_u.shape[-1]
    return kernel_sector_values(w_u, w_d, 1, ("envelope",))["envelope"] / d - 1.0


def offset_free_cells(ch, taus, pulse_duration=0.0):
    eye = np.eye(ch.dim)
    return oracle_cells(ch.h_u - ch.h_u[0, 0].real * eye, ch.h_d - ch.h_d[0, 0].real * eye,
                        taus, pulse_duration)


class TestPulseSequence:
    def test_total_time(self, rng):
        # n_p cells of equal Hamiltonians are one evolution over 4 n_p (tau + delta).
        h = random_hermitian(4, rng)
        p_u, p_d = oracle_powers(*oracle_cells(h, h, [2e-1], 1e-2), 5)
        want = expm_hermitian(h, 4 * 5 * 0.21)
        assert np.abs(p_u[0] - want).max() < 1e-12
        assert np.abs(p_d[0] - want).max() < 1e-12
        ch = ConditionalHamiltonians(h, h)
        assert row(ch, 0.2, 5, "coherence", 1e-2)[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_tau(self, rng):
        ch = random_conditional(2, rng)
        with pytest.raises(ValidationError, match="tau must be > 0"):
            floquet_rows([ch], [0.0], 1)
        with pytest.raises(ValidationError, match="tau must be > 0"):
            spectrum_scan(ch, [0.0])


class TestUnitCell:
    def test_equal_hamiltonians_collapse(self, rng):
        h = random_hermitian(4, rng)
        w_u, w_d = oracle_cells(h, h, [0.7])
        expected = expm_hermitian(h, 4 * 0.7)
        assert np.abs(w_u @ w_d - expected).max() < 1e-12
        assert np.abs(w_d @ w_u - expected).max() < 1e-12
        ch = ConditionalHamiltonians(h, h)
        assert matched_gap(spectrum_scan(ch, [0.7]).phases[0], schur_modes(expected)[0]) < 1e-12

    def test_matches_four_factor_oracle(self, rng):
        ch = random_conditional(2, rng)
        tau = 0.45
        w_u, w_d = oracle_cells(ch.h_u, ch.h_d, [tau])
        t_u, t_d = expm_hermitian(ch.h_u, tau), expm_hermitian(ch.h_d, tau)
        assert np.abs(w_u[0] @ w_d[0] - t_u @ t_d @ t_d @ t_u).max() < 1e-12
        assert np.abs(w_d[0] @ w_u[0] - t_d @ t_u @ t_u @ t_d).max() < 1e-12
        phases = schur_modes(t_u @ t_d @ t_d @ t_u)[0]
        assert matched_gap(spectrum_scan(ch, [tau]).phases[0], phases) < 1e-12

    def test_finite_pulse_without_hamiltonian_shifts_interval(self, rng):
        # a pulse window without an intra-pulse Hamiltonian only stretches
        # the free interval: bit for bit in the kernels
        ch = random_conditional(4, rng)
        taus = np.array([0.3, 0.8])
        for call in (lambda t, d: floquet_rows([ch], t, 7, pulse_duration=d),
                     lambda t, d: {"phases": spectrum_scan(ch, t, pulse_duration=d).phases}):
            got, want = call(taus, 0.1), call(taus + 0.1, 0.0)
            for q in want:
                assert got[q].tobytes() == want[q].tobytes()

    def test_explicit_pulse_hamiltonian_inserted(self, rng):
        # the oracle's pulse factor sits between the two factors of each half period
        ch = random_conditional(2, rng)
        h_pulse = random_hermitian(2, rng)
        w_u, w_d = oracle_cells(ch.h_u, ch.h_d, [0.3], 0.05, h_pulse)
        t_u = scipy.linalg.expm(-1j * ch.h_u * 0.3)
        t_d = scipy.linalg.expm(-1j * ch.h_d * 0.3)
        t_pi = scipy.linalg.expm(-1j * h_pulse * 0.1)
        assert np.abs(w_u[0] @ w_d[0] - t_u @ t_pi @ t_d @ t_d @ t_pi @ t_u).max() < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            ConditionalHamiltonians(random_hermitian(2, rng), random_hermitian(4, rng))


class TestFloquetPair:
    def test_identical_cells_identity_pairing(self, rng):
        # equal Hamiltonians: each d-mode is its u-mode, so the floor is 1
        h = random_hermitian(3, rng)
        ch = ConditionalHamiltonians(h, h)
        assert row(ch, 0.3, 1, "envelope")[0] == pytest.approx(1.0, abs=1e-10)
        assert schur_floor(*oracle_cells(h, h, [0.3]))[0] == pytest.approx(1.0, abs=1e-10)

    def test_pseudospin_conjugate_pair(self, rng):
        ch = random_conditional(2, rng)
        ch = ConditionalHamiltonians(ch.h_u - np.trace(ch.h_u) / 2 * np.eye(2),
                                     ch.h_d - np.trace(ch.h_d) / 2 * np.eye(2))
        phases = spectrum_scan(ch, [0.5]).phases[0]
        assert phases[0] == pytest.approx(-phases[1], abs=1e-12)

    def test_phase_multisets_agree_random(self, rng):
        for dim in (2, 4, 8):
            for _ in range(10):
                ch = random_conditional(dim, rng)
                tau = rng.uniform(0.05, 1.5)
                w_u, w_d = oracle_cells(ch.h_u, ch.h_d, [tau])
                phases_u, phases_d = schur_modes(w_u @ w_d)[0], schur_modes(w_d @ w_u)[0]
                assert matched_gap(phases_u[0], phases_d[0]) < 1e-12
                assert matched_gap(spectrum_scan(ch, [tau]).phases[0], phases_u[0]) < 1e-12

    def test_mismatched_cells_raise(self, rng):
        # cells of unrelated Hamiltonians fail the half-period residual
        u1 = expm_hermitian(random_hermitian(3, rng), 0.4)[None]
        u2 = expm_hermitian(random_hermitian(3, rng), 0.4)[None]
        assert kernel_residual(u1, u2, u2)[0] > engine.PHASE_MATCH_TOL
        w_u, w_d = kernel_cells(random_conditional(3, rng), [0.4])
        assert half_period_residual(w_u, w_d)[0] < 1e-12


class TestHalfPeriod:
    def test_equal_hamiltonians_zero_residual(self, rng):
        h = random_hermitian(4, rng)
        w_u, w_d = oracle_cells(h, h, [0.4])
        assert half_period_residual(w_u, w_d)[0] < 1e-12

    def test_random_two_level(self, rng):
        for _ in range(20):
            ch = random_conditional(2, rng)
            w_u, w_d = oracle_cells(ch.h_u, ch.h_d, [rng.uniform(0.1, 1.0)])
            assert half_period_residual(w_u, w_d)[0] < 1e-10
            assert floor(w_u, w_d)[0] == pytest.approx(schur_floor(w_u, w_d)[0], abs=1e-12)

    def test_finite_pulse_with_trivial_pulse_operator(self, rng):
        for _ in range(5):
            ch = random_conditional(8, rng)
            tau = rng.uniform(0.1, 0.8)
            w_u, w_d = oracle_cells(ch.h_u, ch.h_d, [tau], 0.07, np.zeros((8, 8)))
            assert half_period_residual(w_u, w_d)[0] < 1e-10
            # a pulse factor of 1: the bath rests through the pulse window
            assert row(ch, tau, 1, "envelope")[0] == pytest.approx(floor(w_u, w_d)[0],
                                                                   abs=1e-10)

    def test_factorization_consistency(self, rng):
        # the kernels' half periods in the H_u eigenbasis share the eigenphases
        # of the oracle's, and their products are the cells
        ch = random_conditional(4, rng)
        w_u, w_d = kernel_cells(ch, [0.33])
        r_u, r_d = offset_free_cells(ch, [0.33])
        for kernel, oracle in ((w_u, r_u), (w_d, r_d), (w_u @ w_d, r_u @ r_d)):
            assert matched_gap(schur_modes(kernel)[0][0], schur_modes(oracle)[0][0]) < 1e-12


class TestCoherence:
    def test_zero_repetitions(self, rng):
        # parse_config takes n_p >= 1 only; the kernel rejects 0 as well
        ch = random_conditional(4, rng)
        for n_p in (0, 2.5):
            with pytest.raises(ValidationError, match="n_p must be a positive integer"):
                row(ch, 0.5, n_p, "coherence")

    def test_equal_hamiltonians_unit_coherence(self, rng):
        h = random_hermitian(4, rng)
        ch = ConditionalHamiltonians(h, h)
        for n_p in (1, 11, 64):
            assert abs(row(ch, 0.5, n_p, "coherence")[0] - 1.0) < 1e-12

    def test_floquet_sum_matches_basis_average(self, rng):
        # the oracle's Floquet expansion against its basis-state average
        for dim in (2, 4, 8):
            ch = random_conditional(dim, rng)
            w_u, w_d = oracle_cells(ch.h_u, ch.h_d, [0.45])
            phases, m, _ = schur_floquet(w_u, w_d)
            p_u, p_d = oracle_powers(w_u, w_d, 9)
            basis = [np.vdot(p_u[0][:, j], p_d[0][:, j]).real for j in range(dim)]
            assert abs(floquet_sum(phases[0], m[0], 9) - np.mean(basis)) < 1e-9
            assert abs(row(ch, 0.45, 9, "coherence")[0] - np.mean(basis)) < 1e-9

    def test_identical_pair_gives_one(self, rng):
        h = random_hermitian(3, rng)
        ch = ConditionalHamiltonians(h, h)
        assert row(ch, 0.4, 17, "coherence")[0] == pytest.approx(1.0, abs=1e-12)

    def test_dip_limit_reaches_minus_one(self):
        # synthetic two-level cell at a dip: phases +-(pi - delta) and a half
        # period that swaps the modes; n_p delta = pi/2 gives the maximal
        # dip, L = -1, and the floor -1
        n_p = 10
        delta = np.pi / (2 * n_p)
        t_u2 = np.diag(np.exp(-1j * np.array([-(np.pi - delta), np.pi - delta])))
        w_d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        values = kernel_sector_values((t_u2 @ w_d)[None], w_d[None], n_p, engine.QUANTITIES)
        assert values["coherence"][0] / 2 == pytest.approx(-1.0, abs=1e-12)
        assert values["envelope"][0] / 2 - 1 == pytest.approx(-1.0, abs=1e-12)

    def test_two_level_imaginary_part_vanishes(self, rng):
        # at D = 2 tr(P_u^dag P_d) is real, so the kernel's real part is all of it
        ch = random_conditional(2, rng)
        p_u, p_d = oracle_powers(*oracle_cells(ch.h_u, ch.h_d, [0.6]), 13)
        full = np.trace(p_u[0].conj().T @ p_d[0]) / 2
        assert abs(full.imag) < 1e-12
        assert row(ch, 0.6, 13, "coherence")[0] == pytest.approx(full.real, abs=1e-12)

    def test_thermal_equals_trace_route(self, rng):
        ch = random_conditional(4, rng)
        want = oracle_coherence(*oracle_cells(ch.h_u, ch.h_d, [0.35]), 6)[0]
        assert row(ch, 0.35, 6, "coherence")[0] == pytest.approx(want, abs=1e-12)


class TestEnvelope:
    def test_two_level_single_term(self, rng):
        ch = random_conditional(2, rng)
        _, m, _ = schur_floquet(*oracle_cells(ch.h_u, ch.h_d, [0.5]))
        w = np.abs(m[0]) ** 2
        assert row(ch, 0.5, 1, "envelope")[0] == pytest.approx(1 - w[0, 1] - w[1, 0], abs=1e-12)

    def test_identical_modes_zero_coefficients(self, rng):
        h = random_hermitian(4, rng)
        ch = ConditionalHamiltonians(h, h)
        assert abs(row(ch, 0.5, 1, "envelope")[0] - 1.0) < 1e-12

    def test_reconstruction_identity(self, rng):
        # the kernel's coherence at every n_p against the oracle's Floquet expansion
        ch = random_conditional(8, rng)
        phases, m, _ = schur_floquet(*oracle_cells(ch.h_u, ch.h_d, [0.4]))
        for n_p in range(1, 51):
            want = floquet_sum(phases[0], m[0], n_p)
            assert abs(row(ch, 0.4, n_p, "coherence")[0] - want) < 1e-9

    def test_overlap_matrix_unitary(self, rng):
        # M = Phi^dag W_d Phi from the kernels' modes and cells
        w_u, w_d = kernel_cells(random_conditional(8, rng), [0.4])
        _, modes = eig_unitaries(w_u @ w_d)
        m = modes[0].conj().T @ w_d[0] @ modes[0]
        assert np.abs(m.conj().T @ m - np.eye(8)).max() < 1e-10

    def test_floor_bounds_reconstruction(self, rng):
        ch = random_conditional(4, rng)
        floor = row(ch, 0.7, 1, "envelope")[0]
        vals = [row(ch, 0.7, n, "coherence")[0] for n in range(1, 120)]
        assert floor <= min(vals) + 1e-12

    def test_modes_paired_across_the_pi_cut(self):
        # Both cells share their modes; one shared phase sits just below +pi
        # in T_u2 and just above -pi in T_d2, so the phase-sorted orders differ.
        # The phases of W_d straddle the cut the same way.
        t_u2 = np.diag(np.exp(-1j * np.array([np.pi - 1e-10, 2.4])))
        t_d2 = np.diag(np.exp(-1j * np.array([-np.pi + 1e-10, 2.4])))
        w_d = np.diag(np.exp(-1j * np.array([np.pi - 1e-10, -np.pi + 1e-10])))
        # Diagonal cells are symmetric: both eigensolver paths apply.
        for symmetric in (False, True):
            assert kernel_residual(t_u2[None], t_d2[None], w_d[None], symmetric)[0] < 1e-9
            values = kernel_sector_values((t_u2 @ w_d.conj().T)[None], w_d[None], 3,
                                          engine.QUANTITIES, symmetric)
            assert values["envelope"][0] / 2 - 1 == pytest.approx(1.0, abs=1e-12)
            assert values["coherence"][0] == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2 ** 32 - 1),
       tau=st.floats(0.01, 3.0), n_p=st.integers(1, 200))
def test_coherence_floquet_matches_thermal_numeric(dim, seed, tau, n_p):
    # the oracle's Floquet expansion on Schur modes against the kernel's on Cayley modes
    rng = np.random.default_rng(seed)
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    phases, m, _ = schur_floquet(*oracle_cells(ch.h_u, ch.h_d, [tau]))
    assert floquet_sum(phases[0], m[0], n_p) == pytest.approx(
        row(ch, tau, n_p, "coherence")[0], abs=1e-10)


class TestShortTimeAndBounds:
    def test_coherence_bounded_and_unity_at_short_time(self, rng):
        for dim in (2, 4, 8):
            ch = random_conditional(dim, rng)
            scale = max(np.abs(ch.h_u).max(), np.abs(ch.h_d).max())
            vals = row(ch, np.array([1e-9, 0.3, 3.0]) / scale, 25, "coherence")
            assert np.all(np.abs(vals) <= 1.0 + 1e-10)
            assert abs(vals[0] - 1.0) < 1e-6

    def test_thermal_short_time_limit(self, rng):
        ch = random_conditional(8, rng)
        scale = max(np.abs(ch.h_u).max(), np.abs(ch.h_d).max())
        assert row(ch, 1e-9 / scale, 40, "coherence")[0] == pytest.approx(1.0, abs=1e-6)


class TestSpectrumScan:
    def test_collinear_linear_trajectories(self):
        from floqsens import TwoStateModel
        model = TwoStateModel.from_components(0.0, 2.0, 0.0, 1.2)
        ch = model.conditional()
        taus = np.linspace(0.01, 2.5, 120)
        scan = spectrum_scan(ch, taus)
        lines = 2 * (model.omega_u + model.omega_d) * taus
        wrapped = np.angle(np.exp(1j * lines))
        for i in range(taus.size):
            got = np.sort(scan.phases[i])
            want = np.sort([wrapped[i], -wrapped[i]])
            assert np.allclose(got, want, atol=1e-9)

    def test_crossing_flags_near_pi(self):
        # Collinear fields conserve sigma_z: two one-state sectors whose
        # phases truly cross whenever 2 (w_u + w_d) tau hits pi (mod 2 pi),
        # and no tau is flagged.  A small transverse field joins them into one
        # sector whose crossings become avoided, narrower than the threshold.
        from floqsens import TwoStateModel
        taus = np.linspace(0.01, 2.5, 400)
        model = TwoStateModel.from_components(0.0, 2.0, 0.0, 1.2)
        scan = spectrum_scan(model.conditional(), taus, gap_threshold=0.05)
        lines = 2 * (model.omega_u + model.omega_d) * taus
        near = np.abs(np.angle(np.exp(1j * (lines - np.pi)))) < 0.02
        assert near.any() and not scan.crossings.any()
        assert np.isinf(scan.min_gaps).all()
        tilted = TwoStateModel.from_components(1e-3, 2.0, 1e-3, 1.2)
        scan = spectrum_scan(tilted.conditional(), taus, gap_threshold=0.05)
        assert np.all(scan.crossings[near]) and not scan.crossings.all()
        assert scan.min_gaps.min() > 0  # the phases repel

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


def shipped_cluster(couplings=1.0):
    """The cluster3 pair of the shipped configs (sectors of 1, 3, 3 and 1
    states); with couplings 0 every sector holds one state."""
    c = couplings * np.array([[0.0, 1050.0, 2200.0], [1050.0, 0.0, 1050.0],
                              [2200.0, 1050.0, 0.0]])
    return conditional_cluster_hamiltonians(SpinCluster([180e3, 0.0, 100e3], c), 0.6, -0.4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteCells:
    @pytest.mark.parametrize("couplings", [1.0, 0.0], ids=["three-state", "one-state"])
    @pytest.mark.parametrize("call", ["floquet_rows", "spectrum_scan"])
    def test_overflowing_interval_is_rejected_at_its_tau(self, couplings, call):
        # tau + delta overflows from tau[1] on; the first such tau is named,
        # without a NumPy overflow warning, also where every sector holds one
        # state and no cell is built.
        ch = shipped_cluster(couplings)
        taus = np.array([1e-5, 1e308, 1.5e308])
        with pytest.raises(ValidationError, match=r"^tau\[1\] = 1e\+308: tau \+ "
                                                  r"pulse_duration 1e\+308 overflows$") as info:
            if call == "floquet_rows":
                floquet_rows([ch], taus, 100, pulse_duration=1e308)
            else:
                spectrum_scan(ch, taus, pulse_duration=1e308)
        assert info.value.index == 1

    def test_overflowing_interval_of_one_cell(self):
        with pytest.raises(ValidationError, match=r"^tau\[0\] = 1e\+308: .* overflows$"):
            floquet_rows([shipped_cluster()], [1e308], 1, pulse_duration=1e308)

    def test_nan_residual_fails_the_half_period_check(self, monkeypatch):
        # Modes that are NaN at tau[1] give a NaN residual there, which
        # fails the check as a residual above PHASE_MATCH_TOL would.
        solve = engine.eig_unitaries

        def nan_at_one(u, symmetric=False):
            phases, modes = solve(u, symmetric)
            modes[1] = np.nan
            return phases, modes

        monkeypatch.setattr(engine, "eig_unitaries", nan_at_one)
        ch = conditional_cluster_hamiltonians(SpinCluster([180e3, 0.0], [[0.0, 1050.0],
                                                                         [1050.0, 0.0]]), 0.6, -0.4)
        assert [stack.index.shape[1] for stack in ch.sectors] == [1, 2]
        with pytest.raises(SymmetryViolationError, match=r"^tau\[1\] = 0\.0002: u/d eigenphase "
                                                         r"residual nan > 1\.0e-08$"):
            floquet_rows([ch], np.array([1e-4, 2e-4, 3e-4]), 100, ("envelope",))
