import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqsens.sensors as sensors
from floqsens import (
    NVModel,
    PairTarget,
    Regime,
    ValidationError,
    avg_hamiltonian_dip,
    dip_positions,
    donor_levels,
    donor_polarization,
    envelope,
    nv_two_state,
    owp_locate,
    regime_classify,
    si_bi,
)
from floqsens.sensors import DonorModel, donor_pair_polarizations

from conftest import donor_eigh, level_gaps

TWO_PI = 2 * math.pi


def block_levels(d, b0):
    """Independent closed-form oracle: diagonalize each m = m_s + m_i block.

    Returns (energies, polarizations) sorted by energy.
    """
    a, g, dg, i_spin = d.hyperfine_a, d.gamma_e, d.delta_gamma, d.nuclear_spin
    entries = []
    m = -(i_spin + 0.5)
    while m <= i_spin + 0.5 + 1e-9:
        mi_up = m - 0.5   # nuclear projection when electron is up
        mi_dn = m + 0.5
        has_up = abs(mi_up) <= i_spin + 1e-9
        has_dn = abs(mi_dn) <= i_spin + 1e-9
        e_up = g * b0 * (0.5 - dg * mi_up) + a * 0.5 * mi_up
        e_dn = g * b0 * (-0.5 - dg * mi_dn) - a * 0.5 * mi_dn
        if has_up and has_dn:
            off = 0.5 * a * math.sqrt(i_spin * (i_spin + 1) - m * m + 0.25)
            half_gap = math.hypot(0.5 * (e_up - e_dn), off)
            mean = 0.5 * (e_up + e_dn)
            pol_plus = (0.5 * (e_up - e_dn)) / half_gap
            entries.append((mean - half_gap, -pol_plus))
            entries.append((mean + half_gap, pol_plus))
        elif has_up:
            entries.append((e_up, 1.0))
        elif has_dn:
            entries.append((e_dn, -1.0))
        m += 1.0
    entries.sort()
    return np.array([e for e, _ in entries]), np.array([p for _, p in entries])


class TestNV:
    def test_field_assignment(self):
        nv = NVModel(omega_x=1.0, omega_z=0.2, a_par=3.0)
        model = nv_two_state(nv)
        assert (model.h_u.x, model.h_u.z) == (1.0, 3.2)
        assert (model.h_d.x, model.h_d.z) == (1.0, 0.2)

    def test_no_transverse_component_is_silent(self):
        model = nv_two_state(NVModel(omega_x=0.0, omega_z=0.0, a_par=2.5))
        assert model.theta_u == model.theta_d == 0.0
        taus = np.linspace(0.05, 8.0, 80)
        mask = np.abs(np.cos(2 * (model.omega_u + model.omega_d) * taus)) < 1 - 1e-6
        assert np.allclose(envelope(model, taus)[mask], 1.0, atol=1e-9)

    def test_weak_coupling_regime(self):
        nv = NVModel(omega_x=2.0, omega_z=40.0, a_par=0.05)
        model = nv_two_state(nv)
        assert regime_classify(model) is Regime.WEAK_COUPLING_I
        tau_bar = avg_hamiltonian_dip(model)
        assert tau_bar == pytest.approx(
            math.pi / (2 * (model.omega_u + model.omega_d)), rel=1e-3)
        first = dip_positions(model, 3 * tau_bar)[0].tau_dip
        assert first == pytest.approx(tau_bar, rel=1e-3)

    def test_rejects_negative_hyperfine(self):
        with pytest.raises(ValidationError):
            NVModel(omega_x=0.0, omega_z=0.0, a_par=-1.0)


class TestDonorHamiltonian:
    def test_zero_field_multiplets(self):
        d = si_bi()
        w, _ = donor_levels(d, 0.0)
        a, i_spin = d.hyperfine_a, d.nuclear_spin
        lower = w[np.abs(w + a * (i_spin + 1) / 2) < 1e-3 * a]
        upper = w[np.abs(w - a * i_spin / 2) < 1e-3 * a]
        assert lower.size == round(2 * i_spin)       # 2I states
        assert upper.size == round(2 * i_spin) + 2   # 2I + 2 states

    def test_traceless(self):
        d = si_bi()
        for b0 in (0.0, 0.05, 0.188, 0.9):
            w, _ = donor_levels(d, b0)
            assert abs(w.sum()) < 1e-10 * np.abs(w).max()

    def test_spectrum_matches_block_oracle(self):
        d = si_bi()
        for b0 in (0.02, 0.1, 0.188, 0.35):
            w, _ = donor_levels(d, b0)
            w_ref, _ = block_levels(d, b0)
            assert np.abs(w - w_ref).max() < 1e-6 * np.abs(w_ref).max()

    @settings(max_examples=80, deadline=None)
    @given(two_i=st.integers(1, 9), a_hz=st.floats(5e7, 2e9), sign=st.sampled_from([1.0, -1.0]),
           delta_gamma=st.floats(0.0, 1e-3),
           fields=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12).map(lambda f: [0.0] + f))
    def test_levels_match_eigh_oracle(self, two_i, a_hz, sign, delta_gamma, fields):
        d = DonorModel(hyperfine_a=sign * TWO_PI * a_hz, nuclear_spin=two_i / 2,
                       gamma_e=TWO_PI * 27.997e9, delta_gamma=delta_gamma, level_u=1, level_d=2)
        energies, pols = donor_levels(d, np.array(fields))
        w, p = donor_eigh(d, np.array(fields))
        scale = np.abs(w).max(axis=-1, keepdims=True)
        assert np.all(np.abs(energies - w) <= 1e-14 * scale)
        resolved = level_gaps(w) > 1e-3 * abs(d.hyperfine_a)
        assert np.all(np.abs(pols - p)[resolved] <= 1e-13)

    def test_zero_field_is_its_zero_plus_limit(self):
        # At B0 = 0 the F = I -+ 1/2 multiplets are degenerate; each level
        # is defined by its Zeeman slope, not by the basis eigh returns.
        d = si_bi()
        p0 = donor_pair_polarizations(d, 0.0)
        assert p0 == pytest.approx((-0.6, 0.8), abs=1e-12)
        assert p0 == pytest.approx(donor_pair_polarizations(d, 1e-9), abs=1e-7)

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            si_bi(level_u=9, level_d=9)
        with pytest.raises(ValidationError):
            si_bi(level_u=0)
        with pytest.raises(ValidationError, match="A = 0"):
            DonorModel(hyperfine_a=0.0, nuclear_spin=4.5, gamma_e=1.0, delta_gamma=0.0,
                       level_u=12, level_d=9)


class TestPolarization:
    def test_high_field_limits(self):
        d = si_bi()
        assert donor_polarization(d, 5.0, 20) == pytest.approx(1.0, abs=1e-3)
        assert donor_polarization(d, 5.0, 1) == pytest.approx(-1.0, abs=1e-3)

    def test_matches_block_oracle(self):
        d = si_bi()
        _, p_ref = block_levels(d, 0.05)
        for level in (9, 12, 3, 17):
            assert donor_polarization(d, 0.05, level) == pytest.approx(
                p_ref[level - 1], abs=1e-9)

    def test_owp_condition_near_188mT(self):
        d = si_bi()
        p_u, p_d = donor_pair_polarizations(d, 0.188)
        assert abs(p_u - p_d) < 0.01

    def test_sweep_is_continuous_and_bounded(self):
        d = si_bi()
        grid = np.linspace(0.05, 0.35, 61)
        p = np.array([donor_pair_polarizations(d, float(b0)) for b0 in grid]).T
        assert np.abs(p).max() <= 1.0 + 1e-12
        assert np.abs(np.diff(p, axis=1)).max() < 0.08
        dp = np.abs(p[0] - p[1])
        assert dp.max() <= 2.0
        assert dp[0] >= 0.2 and dp[-1] >= 0.2  # sweep-edge detuning range

    def test_sweep_matches_sorted_levels(self):
        d = si_bi()
        for b0 in (0.05, 0.2, 0.35):
            p_u, p_d = donor_pair_polarizations(d, b0)
            assert p_u == pytest.approx(donor_polarization(d, b0, 12), abs=1e-9)
            assert p_d == pytest.approx(donor_polarization(d, b0, 9), abs=1e-9)

    def test_invalid_level(self):
        with pytest.raises(ValidationError):
            donor_polarization(si_bi(), 0.1, 21)


class TestPairTarget:
    def test_ratio(self):
        assert PairTarget(delta_a=180e3, c12=1.8e3).ratio == pytest.approx(100.0)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValidationError):
            PairTarget(delta_a=1.0, c12=0.0)

    def test_zero_detuning_silences_pair(self):
        d = si_bi()
        model = PairTarget(delta_a=0.0, c12=2e3).two_state(*donor_pair_polarizations(d, 0.12))
        assert model.h_u == model.h_d
        taus = np.linspace(1e-6, 1e-3, 30)
        from floqsens import coherence_analytic
        assert np.allclose(np.asarray(coherence_analytic(model, taus, 15)),
                           1.0, atol=1e-12)

    def test_antialigned_regime_away_from_owp(self):
        d = si_bi()
        pair = PairTarget(delta_a=180e3, c12=1.8e3)
        model = pair.two_state(*donor_pair_polarizations(d, 0.34))
        assert regime_classify(model) is Regime.ANTIALIGNED_II


class TestOwp:
    def test_si_bi_owp_location(self):
        b_owp = owp_locate(si_bi(), 0.05, 0.35)
        assert b_owp == pytest.approx(0.188, abs=0.005)

    def test_delta_is_locally_minimal(self):
        d = si_bi()
        pair = PairTarget(delta_a=180e3, c12=9e3)
        b_owp = owp_locate(d, 0.05, 0.35)

        def first_delta(b0):
            model = pair.two_state(*donor_pair_polarizations(d, b0))
            cap = 3 * avg_hamiltonian_dip(model)
            records = dip_positions(model, cap)
            while not records:
                cap *= 2
                records = dip_positions(model, cap)
            return records[0].delta

        assert first_delta(b_owp) < first_delta(b_owp - 0.02)
        assert first_delta(b_owp) < first_delta(b_owp + 0.02)

    def test_range_without_owp(self):
        assert owp_locate(si_bi(), 0.25, 0.35) is None

    def test_degenerate_transition_rejected(self, monkeypatch):
        d = si_bi()
        monkeypatch.setattr(sensors, "donor_pair_polarizations",
                            lambda model, b0: (0.37, 0.37))
        with pytest.raises(ValidationError, match="every field"):
            owp_locate(d, 0.05, 0.35)
