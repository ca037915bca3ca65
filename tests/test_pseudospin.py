import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floqsens import (
    CapacityError,
    PseudoField,
    Regime,
    TwoStateModel,
    ValidationError,
    avg_hamiltonian_dip,
    coherence_analytic,
    cos_floquet_phase,
    diamond_boundaries,
    dip_depth,
    dip_positions,
    envelope,
    floquet_phase,
    regime_classify,
)

from floqsens import pseudospin
from floqsens.engine import floquet_rows
from floqsens.pseudospin import MAX_DIP_GRID, bisect_roots, level_repulsion, two_state_grid
from conftest import (near_crossing, oracle_cells, oracle_coherence, random_two_state,
                      schur_floor, schur_modes, two_state_hamiltonians)


def oracle_cell(model, taus, pulse_duration=0.0):
    """Half periods (W_u, W_d) of the full-space oracle for a two-state model."""
    ch = two_state_hamiltonians([model])
    return oracle_cells(ch.h_u, ch.h_d, np.atleast_1d(taus), pulse_duration)


def cell_phases(model, tau):
    """Ascending Schur eigenphases (-E, +E) of the oracle cell T_u2 at tau."""
    w_u, w_d = oracle_cell(model, tau)
    return np.sort(schur_modes(w_u @ w_d)[0][0])


def golden_section_min(f, lo, hi, rtol=1e-12):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rtol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestFloquetPhase:
    def test_aligned_fields_closed_form(self):
        model = TwoStateModel.from_angles(1.0, 0.0, 1.0, 0.0)
        assert floquet_phase(model, math.pi / 4) == pytest.approx(math.pi)

    def test_zero_interval(self, rng):
        model = random_two_state(rng)
        assert floquet_phase(model, 0.0) == 0.0

    def test_matches_cell_eigenphase(self):
        model = TwoStateModel.from_angles(0.6, 0.9, 1.1, 0.2)
        s = 0.5
        assert floquet_phase(model, s) == pytest.approx(cell_phases(model, s)[1], abs=1e-12)

    def test_random_models_match_cell(self, rng):
        for _ in range(25):
            model = random_two_state(rng)
            s = rng.uniform(0.05, 2.0)
            assert floquet_phase(model, s) == pytest.approx(
                abs(cell_phases(model, s)[1]), abs=1e-10)

    def test_small_tau_linearity(self, rng):
        for _ in range(10):
            model = random_two_state(rng)
            k = math.cos(model.theta_u - model.theta_d)
            eps0 = 0.5 * math.sqrt(model.omega_u ** 2 + model.omega_d ** 2
                                   + 2 * model.omega_u * model.omega_d * k)
            if eps0 < 1e-3:
                continue
            tau = 1e-6 / eps0
            slope = floquet_phase(model, tau) / tau
            assert slope == pytest.approx(4 * eps0, rel=1e-4)

    @pytest.mark.parametrize("s", [1e-9, 1e-7, 1e-3])
    def test_short_interval_matches_mpmath(self, s):
        # E = 2 atan2(|v|, sqrt(a0^2 + y^2)) subtracts nothing, so E keeps its
        # relative precision as s -> 0; 2 arccos(sqrt(a0^2 + y^2)) read 0.0
        # at s = 1e-9 and was 8.3e-4 relative off at 1e-7.
        model = TwoStateModel.from_angles(1.0, 0.7, 0.6, -0.2)
        with mpmath.workdps(50):
            ref = mpmath.pi - delta_mpmath(model, s)
            assert abs(floquet_phase(model, s) - ref) <= 2 * np.finfo(float).eps * ref

    def test_rejects_negative_interval(self, rng):
        with pytest.raises(ValidationError):
            floquet_phase(random_two_state(rng), -0.1)


class TestCoherence:
    def test_identical_fields(self, rng):
        f = PseudoField(1.3, -0.4)
        model = TwoStateModel(h_u=f, h_d=f)
        taus = np.linspace(0.1, 5.0, 17)
        assert np.allclose(coherence_analytic(model, taus, 7), 1.0, atol=1e-12)

    def test_revival_when_oscillation_vanishes(self):
        # pick tau with E(tau) = pi/2 exactly; then n_p = 2 makes sin(n_p E) = 0
        model = TwoStateModel.from_angles(1.0, 0.0, 1.0, 0.0)
        tau = math.pi / 8  # E(tau) = 4 tau = pi/2
        assert floquet_phase(model, tau) == pytest.approx(math.pi / 2)
        assert coherence_analytic(model, tau, 2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numeric_oracle(self, rng):
        worst = 0.0
        for _ in range(30):
            model = random_two_state(rng)
            tau = rng.uniform(0.05, 3.0)
            val = coherence_analytic(model, tau, 10)
            ref = oracle_coherence(*oracle_cell(model, tau), 10)[0]
            worst = max(worst, abs(val - ref))
        assert worst < 1e-9

    def test_short_time_limit(self, rng):
        for _ in range(10):
            model = random_two_state(rng)
            scale = max(model.omega_u + model.omega_d, 1e-3)
            assert coherence_analytic(model, 1e-9 / scale, 40) == pytest.approx(1.0, abs=1e-9)

    def test_bounded(self, rng):
        model = random_two_state(rng)
        taus = np.linspace(0.05, 8.0, 400)
        vals = coherence_analytic(model, taus, 23)
        assert np.all(vals <= 1.0) and np.all(vals >= -1.0)

    def test_branch_safety(self, rng):
        # the formula is invariant under E -> 2 pi - E and E -> E + 2 pi
        for _ in range(10):
            model = random_two_state(rng)
            tau = rng.uniform(0.1, 2.0)
            n_p = 9
            e_tau = floquet_phase(model, tau)
            q = math.cos(e_tau / 2) ** 2
            if math.sqrt(q) < 1e-3:
                continue
            p = math.cos(float(floquet_phase(model, tau / 2))) ** 2
            f = 1.0 - p / q
            ref = coherence_analytic(model, tau, n_p)
            for e_alt in (2 * math.pi - e_tau, e_tau + 2 * math.pi):
                val = 1.0 - 2.0 * (1.0 - math.cos(float(floquet_phase(model, tau / 2))) ** 2
                                   / math.cos(e_alt / 2) ** 2) * math.sin(n_p * e_alt) ** 2
                assert val == pytest.approx(ref, abs=1e-8)

    def test_finite_pulse_equals_analytic_at_shifted_interval(self, rng):
        # the default finite-pulse cell is the ideal cell at tau + delta,
        # so the analytic formula applies with the shifted interval
        for _ in range(8):
            model = random_two_state(rng)
            tau = rng.uniform(0.2, 1.5)
            delta = rng.uniform(0.01, 0.2)
            ref = floquet_rows([two_state_hamiltonians([model])], [tau], 8, ("coherence",),
                               pulse_duration=delta)["coherence"][0, 0]
            assert float(coherence_analytic(model, tau + delta, 8)) == \
                pytest.approx(ref, abs=1e-9)

    def test_true_crossing_has_no_signal(self):
        # collinear (commuting) fields have a true crossing at E(tau) = pi
        model = TwoStateModel.from_angles(1.0, 0.0, 0.5, 0.0)
        tau = math.pi / 3  # E = 2 (w_u + w_d) tau = pi exactly
        assert coherence_analytic(model, tau, 5) == 1.0


class TestEnvelope:
    def test_identical_fields(self):
        f = PseudoField(0.8, 0.1)
        model = TwoStateModel(h_u=f, h_d=f)
        taus = np.linspace(0.1, 6.0, 40)
        assert np.allclose(envelope(model, taus), 1.0, atol=1e-12)

    def test_collinear_fields_flat(self):
        model = TwoStateModel.from_components(0.0, 1.9, 0.0, 0.6)
        taus = np.linspace(0.05, 8.0, 60)
        vals = envelope(model, taus)
        mask = np.abs(cos_floquet_phase(model, taus)) < 1 - 1e-6  # skip crossings
        assert np.allclose(vals[mask], 1.0, atol=1e-9)

    def test_lower_bounds_coherence(self, rng):
        for _ in range(5):
            model = random_two_state(rng)
            taus = np.linspace(0.05, 4.0, 50)
            env = envelope(model, taus)
            for n_p in (1, 3, 10, 40):
                coh = coherence_analytic(model, taus, n_p)
                assert np.all(coh >= env - 1e-9)

    def test_nv_envelope_min_bounds_pulse_sweep(self):
        from floqsens import NVModel, nv_two_state
        model = nv_two_state(NVModel(omega_x=2 * math.pi * 30e3, omega_z=0.0,
                                     a_par=2 * math.pi * 50e3))
        taus = np.linspace(2e-6, 2.4e-5, 400)
        env_min = float(np.min(envelope(model, taus)))
        sweep_min = min(float(np.min(coherence_analytic(model, taus, n_p)))
                        for n_p in range(1, 201))
        assert env_min <= sweep_min + 1e-12
        assert sweep_min - env_min < 5e-3

    def test_matches_numeric_mode_overlap(self, rng):
        for _ in range(15):
            model = random_two_state(rng)
            tau = rng.uniform(0.1, 2.5)
            if abs(math.cos(floquet_phase(model, tau) / 2)) < 1e-3:
                continue
            want = schur_floor(*oracle_cell(model, tau))[0]
            assert envelope(model, tau) == pytest.approx(want, abs=1e-8)


class TestDips:
    def test_collinear_closed_form(self):
        model = TwoStateModel.from_angles(0.9, 0.0, 0.4, 0.0)
        w = model.omega_u + model.omega_d
        records = dip_positions(model, 10.0)
        expected = [(2 * k + 1) * math.pi / (2 * w) for k in range(len(records))]
        assert len(records) >= 3
        for rec, want in zip(records, expected):
            assert rec.tau_dip == pytest.approx(want, rel=1e-9)
            assert rec.harmonic_index == expected.index(want) + 1

    def test_high_harmonics_meet_the_dip_condition(self):
        model = TwoStateModel.from_components(1.4e4, 4.2e4, 1.4e4, -2.2e4)
        step = math.pi / (20.0 * (model.omega_u + model.omega_d))
        records = dip_positions(model, 0.99 * MAX_DIP_GRID * step)
        assert len(records) > 10 ** 4
        residual = np.abs(cos_floquet_phase(model, np.array([r.tau_dip for r in records]) / 2))
        assert residual.max() <= 1e-9
        with pytest.raises(CapacityError):
            dip_positions(model, 1.01 * MAX_DIP_GRID * step)

    def test_roots_match_envelope_minimizer(self, rng):
        checked = 0
        while checked < 12:
            model = random_two_state(rng)
            records = dip_positions(model, 6.0)
            if not records or records[0].delta < 1e-4:
                continue
            rec = records[0]
            lo, hi = 0.8 * rec.tau_dip, 1.2 * rec.tau_dip
            if len(records) > 1:
                hi = min(hi, 0.5 * (rec.tau_dip + records[1].tau_dip))
            t_min = golden_section_min(lambda t: float(envelope(model, t)), lo, hi)
            assert abs(t_min - rec.tau_dip) / rec.tau_dip < 1e-3
            checked += 1

    def test_no_roots_is_empty(self):
        model = TwoStateModel.from_angles(0.5, 0.2, 0.5, 0.4)
        assert dip_positions(model, 1e-4) == []

    def test_depth_matches_full_coherence(self, rng):
        checked = 0
        while checked < 10:
            model = random_two_state(rng)
            records = dip_positions(model, 6.0)
            if not records:
                continue
            rec = records[0]
            delta, depth = dip_depth(model, rec.tau_dip, 10)
            assert depth == pytest.approx(
                float(coherence_analytic(model, rec.tau_dip, 10)), abs=1e-9)
            checked += 1

    def test_zero_repulsion_no_dip(self):
        model = TwoStateModel.from_angles(1.0, 0.0, 0.7, 0.0)
        rec = dip_positions(model, 3.0)[0]
        delta, depth = dip_depth(model, rec.tau_dip, 25)
        assert delta < 1e-7
        assert depth == pytest.approx(1.0, abs=1e-9)

    def test_maximal_dip(self):
        model = TwoStateModel.from_angles(1.0, 1.1, 0.8, -0.4)
        rec = dip_positions(model, 5.0)[0]
        n_p = max(1, round(math.pi / (2 * rec.delta)))
        depth = dip_depth(model, rec.tau_dip, n_p)[1]
        assert depth == pytest.approx(1 - 2 * math.sin(n_p * rec.delta) ** 2, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(1e-8, 1e3), slope=st.floats(1e-3, 1e3), cubic=st.floats(0.0, 1e3),
           kind=st.sampled_from(["cubic", "tanh", "sin"]),
           below=st.floats(1e-6, 0.5), above=st.floats(1e-6, 0.5))
    def test_bisect_roots_match_brentq(self, root, slope, cubic, kind, below, above):
        # On these increasing functions the bisection ends on the sign change
        # itself, so no point has a smaller |f|.  brentq stops within its
        # rtol of 4 eps, which can leave it a few ulp away where the
        # bisection met an exact zero of f; otherwise the two agree to 1 ulp.
        from scipy.optimize import brentq
        f = {"cubic": lambda t: slope * (t - root) + cubic * (t - root) ** 3,
             "tanh": lambda t: np.tanh(slope * (t - root)),
             "sin": lambda t: np.sin(min(slope, 1.0) * (t - root) / root)}[kind]
        lo, hi = root * (1 - below), root * (1 + above)
        got = float(bisect_roots(f, [lo], [hi])[0])
        want = brentq(lambda t: float(f(t)), lo, hi, xtol=math.ulp(lo))
        ulps = abs(int(np.float64(got).view(np.int64)) - int(np.float64(want).view(np.int64)))
        assert ulps <= 1 or f(got) == 0.0
        assert abs(f(got)) <= abs(f(want))

    def test_contract_error_off_condition(self, rng):
        model = TwoStateModel.from_angles(1.0, 0.7, 0.6, -0.2)
        rec = dip_positions(model, 5.0)[0]
        with pytest.raises(ValidationError):
            dip_depth(model, rec.tau_dip * 1.05, 10)

    def test_roots_are_scored_as_their_one_root_calls(self):
        # dip_positions scores every root in one dip_depth call; each record
        # equals the one-root call, and among roots off the dip condition
        # the first one fails, with its one-root message.
        model = TwoStateModel.from_components(1.4e4, 4.2e4, 1.4e4, -2.2e4)
        records = dip_positions(model, 2e-2, n_p=10)
        assert len(records) > 50
        for rec in records:
            assert dip_depth(model, rec.tau_dip, 10) == (rec.delta, rec.depth)
        roots = np.array([rec.tau_dip for rec in records])
        roots[[7, 3]] *= 1.05
        with pytest.raises(ValidationError) as one:
            dip_depth(model, float(roots[3]), 10)
        with pytest.raises(ValidationError) as every:
            dip_depth(model, roots, 10)
        assert str(every.value) == str(one.value)


class TestNonFiniteTau:
    MODEL = TwoStateModel.from_angles(1.0, 0.7, 0.6, -0.2)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, [0.4, math.nan], -0.4],
                             ids=repr)
    @pytest.mark.parametrize("name, args", [
        ("envelope", ()), ("coherence_analytic", (3,)), ("floquet_phase", ()),
        ("cos_floquet_phase", ()), ("level_repulsion", (3,)), ("dip_depth", (3,))])
    def test_one_model_calls_reject_it(self, name, args, tau):
        with pytest.raises(ValidationError):
            getattr(pseudospin, name)(self.MODEL, tau, *args)

    def test_dip_depth_rejects_a_mirrored_dip(self):
        # a0 is even in tau, so -tau_dip meets the dip condition: only the sign check stops it
        rec = dip_positions(self.MODEL, 5.0)[0]
        with pytest.raises(ValidationError, match="finite and >= 0"):
            pseudospin.dip_depth(self.MODEL, -rec.tau_dip, 3)

    @pytest.mark.parametrize("tau_max", [math.nan, math.inf])
    def test_dip_search_rejects_it_as_invalid_not_too_large(self, tau_max):
        with pytest.raises(ValidationError, match="^tau_max must be finite and > 0$"):
            dip_positions(self.MODEL, tau_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_names_the_first_model(self, bad):
        with pytest.raises(ValidationError, match="finite and > 0") as failure:
            two_state_grid([self.MODEL, self.MODEL], np.array([1e-3, bad]), "envelope")
        assert failure.value.index == 0


def delta_mpmath(model, tau):
    """pi - E(tau) at 50 digits from the full-angle cell formula, taking the
    model's double omega, theta and tau as exact."""
    with mpmath.workdps(50):
        w_u, w_d, t = (mpmath.mpf(v) for v in (model.omega_u, model.omega_d, tau))
        turn = mpmath.mpf(model.theta_u) - mpmath.mpf(model.theta_d)
        cos_e = (mpmath.cos(2 * w_u * t) * mpmath.cos(2 * w_d * t)
                 - mpmath.sin(2 * w_u * t) * mpmath.sin(2 * w_d * t) * mpmath.cos(turn))
        return mpmath.pi - mpmath.acos(cos_e)


@settings(max_examples=200, deadline=None)
@given(w_u=st.floats(0.1, 10.0), w_d=st.floats(0.1, 10.0), theta_u=st.floats(-3.0, 3.0),
       log_turn=st.floats(-12.0, 0.0), sign=st.sampled_from([-1.0, 1.0]),
       harmonics=st.integers(1, 30))
def test_dip_repulsion_matches_mpmath(w_u, w_d, theta_u, log_turn, sign, harmonics):
    # Nearly parallel fields narrow the dips: delta ~ |theta_u - theta_d|
    # down to 1e-12.  At every located dip, delta of the record and of
    # level_repulsion and E of floquet_phase may carry only the absolute
    # error of the half cell, a few eps (1 + (w_u + w_d) tau), however
    # small delta is.  Turns up to 1 rad keep delta <= 2 at a dip
    # (|y| <= sin 1), clear of the arcsin floor at delta -> pi.
    model = TwoStateModel.from_angles(w_u, theta_u, w_d, theta_u - sign * 10.0 ** log_turn)
    records = dip_positions(model, harmonics * math.pi / (model.omega_u + model.omega_d))
    assume(records)
    taus = np.array([rec.tau_dip for rec in records])
    deltas = level_repulsion(model, taus, 1)[0]
    phases = floquet_phase(model, taus)
    for rec, delta, phase in zip(records, deltas, phases):
        ref = delta_mpmath(model, rec.tau_dip)
        tol = 4 * np.finfo(float).eps * (1 + (model.omega_u + model.omega_d) * rec.tau_dip) \
            + 1e-12 * float(ref)
        assert abs(rec.delta - ref) <= tol
        assert abs(delta - ref) <= tol
        with mpmath.workdps(50):
            assert abs(phase - (mpmath.pi - ref)) <= tol


class TestAvgHamiltonian:
    def test_collinear_closed_form(self):
        model = TwoStateModel.from_angles(1.2, 0.3, 0.7, 0.3)
        want = math.pi / (2 * (model.omega_u + model.omega_d))
        assert avg_hamiltonian_dip(model) == pytest.approx(want, rel=1e-12)

    def test_pseudofield_identity(self, rng):
        # exact algebraic identity tau_bar = pi / (4 Omega), with Omega half
        # the magnitude of the averaged field (h_u + h_d) / 2
        for _ in range(1000):
            model = random_two_state(rng)
            try:
                tau_bar = avg_hamiltonian_dip(model)
            except ValidationError:
                continue
            omega = math.hypot(model.h_u.x + model.h_d.x, model.h_u.z + model.h_d.z) / 4
            assert tau_bar == pytest.approx(math.pi / (4 * omega), rel=1e-12)

    def test_divergence_error(self):
        model = TwoStateModel.from_components(0.5, 0.5, -0.5, -0.5)
        with pytest.raises(ValidationError):
            avg_hamiltonian_dip(model)


class TestRegimes:
    def test_identical_fields(self):
        f = PseudoField(0.3, 1.0)
        assert regime_classify(TwoStateModel(h_u=f, h_d=f)) is Regime.WEAK_COUPLING_I

    def test_antialigned(self):
        model = TwoStateModel.from_components(0.3, 1.0, -0.3, -1.0)
        assert regime_classify(model) is Regime.ANTIALIGNED_II

    def test_intermediate(self):
        model = TwoStateModel.from_components(1.0, 1.0, 1.0, -1.0)
        assert regime_classify(model) is Regime.INTERMEDIATE


class TestDiamondBoundaries:
    def test_ordering(self, rng):
        for _ in range(20):
            model = random_two_state(rng)
            if min(model.omega_u, model.omega_d) < 1e-6:
                continue
            tau_plus, tau_minus = diamond_boundaries(model)
            if tau_minus is not None:
                assert tau_plus < tau_minus

    def test_degenerate_frequencies(self):
        model = TwoStateModel.from_angles(1.0, 0.4, 1.0, -0.4)
        tau_plus, tau_minus = diamond_boundaries(model)
        assert tau_minus is None
        assert tau_plus == pytest.approx(math.pi / 4)

    def test_envelope_on_curves_is_minus_plus_k(self, rng):
        checked = 0
        for _ in range(200):
            model = random_two_state(rng)
            if min(model.omega_u, model.omega_d) < 1e-6:
                continue
            k = math.cos(model.theta_u - model.theta_d)
            if abs(k) > 0.99:
                continue
            omega_sum = model.omega_u + model.omega_d
            omega_diff = abs(model.omega_u - model.omega_d)
            tau_plus, tau_minus = diamond_boundaries(model)
            # skip vertices, where the other family's cosine vanishes too
            if abs(math.cos(omega_diff * tau_plus)) >= 0.05:
                assert envelope(model, tau_plus) == pytest.approx(-k, abs=1e-9)
                checked += 1
            if tau_minus is not None and abs(math.cos(omega_sum * tau_minus)) >= 0.05:
                assert envelope(model, tau_minus) == pytest.approx(k, abs=1e-9)
                checked += 1
        assert checked > 200

    def test_vanishing_lower_frequency(self):
        model = TwoStateModel.from_components(0.0, 2.0, 0.0, 0.0)
        tau_plus, tau_minus = diamond_boundaries(model)
        assert tau_minus == pytest.approx(math.pi / 2)  # from omega_u alone


@settings(max_examples=40, deadline=None)
@given(x_u=st.floats(-2, 2), z_u=st.floats(-2, 2),
       x_d=st.floats(-2, 2), z_d=st.floats(-2, 2),
       tau=st.floats(0.05, 3.0), n_p=st.integers(1, 40))
def test_coherence_in_range_property(x_u, z_u, x_d, z_d, tau, n_p):
    model = TwoStateModel.from_components(x_u, z_u, x_d, z_d)
    val = coherence_analytic(model, tau, n_p)
    assert -1.0 <= val <= 1.0


@settings(max_examples=30, deadline=None)
@given(tau=st.floats(0.05, 2.0))
def test_analytic_equals_numeric_property(tau):
    model = TwoStateModel.from_components(0.9, -0.3, 0.2, 1.4)
    ref = oracle_coherence(*oracle_cell(model, tau), 7)[0]
    assert abs(coherence_analytic(model, tau, 7) - ref) < 1e-9


# Relative offsets from a true level crossing, on both sides of it; at the
# closest points |cos(E/2)| < 1e-3, the farthest lie well away from it.
CROSSING_OFFSETS = np.concatenate([-np.geomspace(1e-6, 1e-1, 11), np.geomspace(1e-6, 1e-1, 11)])


@settings(max_examples=40, deadline=None)
@given(m_u=st.integers(1, 4), m_d=st.integers(0, 3), theta_u=st.floats(-3.0, 3.0),
       theta_d=st.floats(-3.0, 3.0), scale=st.floats(0.3, 3.0), n_p=st.integers(1, 60))
def test_analytic_matches_numeric_across_a_crossing(m_u, m_d, theta_u, theta_d, scale, n_p):
    # 2 w_u s = m_u pi and 2 w_d s = m_d pi with m_u + m_d odd put E(s) = pi
    # exactly at s = pi / (2 scale): a true crossing, where F is 0/0.
    if (m_u + m_d) % 2 == 0:
        m_d += 1
    model = TwoStateModel.from_angles(m_u * scale, theta_u, m_d * scale, theta_d)
    taus = math.pi / (2.0 * scale) * (1.0 + CROSSING_OFFSETS)
    coh = coherence_analytic(model, taus, n_p)
    env = envelope(model, taus)
    near = near_crossing(model, taus)
    assert near.any() and not near.all()
    w_u, w_d = oracle_cell(model, taus)
    np.testing.assert_allclose(coh, oracle_coherence(w_u, w_d, n_p), rtol=0, atol=1e-9)
    np.testing.assert_allclose(env, schur_floor(w_u, w_d), rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-3.0, 3.0), z=st.floats(-3.0, 3.0), power=st.integers(0, 3),
       swap=st.booleans(), n_p=st.integers(1, 60))
def test_commuting_fields_give_exactly_one(x, z, power, swap, n_p):
    # h_d = 2^power h_u points the same way exactly (h_u = h_d at power 0), so
    # y = 0 at every tau: no signal, at the true crossings
    # 2 (w_u + w_d) tau = (2 j + 1) pi too.
    assume(math.hypot(x, z) > 1e-3)
    fields = PseudoField(x, z), PseudoField(x * 2.0 ** power, z * 2.0 ** power)
    model = TwoStateModel(*(fields[::-1] if swap else fields))
    assert model.theta_u == model.theta_d
    crossings = (2 * np.arange(40) + 1) * math.pi / (2 * (model.omega_u + model.omega_d))
    taus = np.concatenate([crossings, crossings * (1 + 1e-9), np.linspace(0.01, 20.0, 200)])
    assert np.all(coherence_analytic(model, taus, n_p) == 1.0)
    assert np.all(envelope(model, taus) == 1.0)


@settings(max_examples=40, deadline=None)
@given(m_u=st.integers(1, 4), m_d=st.integers(0, 3), theta_u=st.floats(-3.0, 3.0),
       theta_d=st.floats(-3.0, 3.0), scale=st.floats(0.3, 3.0), n_p=st.integers(1, 60))
def test_near_crossing_matches_the_2x2_kernel(m_u, m_d, theta_u, theta_d, scale, n_p):
    # 1e-3 <= |cos(E/2)| <= 1e-2 next to a true crossing (the construction of
    # test_analytic_matches_numeric_across_a_crossing): there 1 - a0^2 / q
    # would lose up to 1e-10, while F = y^2 / q keeps its precision.
    if (m_u + m_d) % 2 == 0:
        m_d += 1
    model = TwoStateModel.from_angles(m_u * scale, theta_u, m_d * scale, theta_d)
    offsets = np.geomspace(1e-5, 1e-1, 200)
    taus = math.pi / (2.0 * scale) * (1.0 + np.concatenate([-offsets, offsets]))
    taus = taus[near_crossing(model, taus, 1e-2) & ~near_crossing(model, taus, 1e-3)]
    assume(taus.size)
    ref = {q: v[0] for q, v in floquet_rows([two_state_hamiltonians([model])], taus, n_p).items()}
    assert np.abs(coherence_analytic(model, taus, n_p) - ref["coherence"]).max() <= 2e-11
    assert np.abs(envelope(model, taus) - ref["envelope"]).max() <= 2e-11
