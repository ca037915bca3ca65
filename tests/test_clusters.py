from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqsens.clusters as clusters_module
from floqsens import (
    CapacityError,
    PairSet,
    PseudoField,
    SpinCluster,
    TwoStateModel,
    ValidationError,
    coherence_analytic,
    conditional_cluster_hamiltonians,
    doublet_dip_estimates,
    joint_full_model,
    secular_quasienergies,
    si_bi,
    spectrum_scan,
)
from floqsens.config import parse_config
from floqsens.engine import floquet_rows
from floqsens.scans import compute_trace
from floqsens.sensors import PairTarget, donor_levels, donor_pair_polarizations

from conftest import (floquet_sum, oracle_basis_coherences, oracle_cells, schur_floquet,
                      two_state_hamiltonians)


def kernel_row(ch, taus, n_p, quantity="coherence"):
    """One quantity of the one-row ``floquet_rows`` call over ``taus``."""
    return floquet_rows([ch], np.atleast_1d(taus), n_p, (quantity,))[quantity][0]


def paper_like_cluster():
    return SpinCluster(a=np.array([180e3, 0.0, 100e3]),
                       c=np.array([[0.0, 1.05e3, 2.2e3],
                                   [1.05e3, 0.0, 1.05e3],
                                   [2.2e3, 1.05e3, 0.0]]))


def pairs_trace(ps, p_u, p_d, taus, n_p):
    """The coherence trace of ``ps`` from compute_trace on the grid linspace(*taus)."""
    cfg = parse_config({
        "system": {"kind": "independent_pairs", "p_u": p_u, "p_d": p_d,
                   "pairs": [{"delta_a_rad_s": t.delta_a, "c12_rad_s": t.c12}
                             for t in ps.pairs]},
        "sequence": {"n_p": n_p},
        "axes": {"tau_s": dict(zip(("start", "stop", "count"), taus))}})
    return compute_trace(cfg, None, ("coherence",))


def total_iz(n):
    iz = np.zeros((2 ** n, 2 ** n))
    for k in range(n):
        pattern = np.array([0.5, -0.5])
        op = np.eye(1)
        for j in range(n):
            op = np.kron(op, np.diag(pattern) if j == k else np.eye(2))
        iz += op
    return iz


class TestConditionalHamiltonians:
    def test_ising_only_bath_is_silent(self, rng):
        cl = SpinCluster(a=np.array([1.5e5, 3e4, 8e4]),
                         c=np.zeros((3, 3)))
        ch = conditional_cluster_hamiltonians(cl, 0.6, -0.3)
        assert np.abs(ch.h_u - np.diag(np.diag(ch.h_u))).max() == 0.0
        assert np.abs(kernel_row(ch, [1e-5, 7e-5], 25) - 1.0).max() <= 1e-12

    def test_two_spin_block_reduces_to_pseudospin(self):
        delta_a, c12 = 1.7e5, 2.1e3
        cl = SpinCluster(a=np.array([delta_a, 0.0]),
                         c=np.array([[0.0, c12], [c12, 0.0]]))
        for p in (0.41, -0.18):
            ch = conditional_cluster_hamiltonians(cl, p, p)
            block = ch.h_u[1:3, 1:3]  # {up-down, down-up} subspace
            shift = np.trace(block) / 2
            model_h = 0.5 * (PseudoField(-c12 / 2, delta_a * p / 2).x
                             * np.array([[0, 1], [1, 0]])
                             + PseudoField(-c12 / 2, delta_a * p / 2).z
                             * np.diag([1.0, -1.0]))
            assert np.abs(block - shift * np.eye(2) - model_h).max() < 1e-9

    def test_two_spin_thermal_matches_pseudospin(self):
        delta_a, c12 = 1.7e5, 2.1e3
        cl = SpinCluster(a=np.array([delta_a, 0.0]),
                         c=np.array([[0.0, c12], [c12, 0.0]]))
        p_u, p_d = 0.41, -0.18
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        model = TwoStateModel(h_u=PseudoField(c12 / 2, delta_a * p_u / 2),
                              h_d=PseudoField(c12 / 2, delta_a * p_d / 2))
        taus = np.linspace(2e-6, 6e-5, 23)
        # the two frozen aligned basis states contribute unity each
        want = 0.5 * (1.0 + np.asarray(coherence_analytic(model, taus, 12)))
        np.testing.assert_allclose(kernel_row(ch, taus, 12), want, rtol=0, atol=1e-8)

    def test_subspace_block_structure(self, rng):
        cl = paper_like_cluster()
        ch = conditional_cluster_hamiltonians(cl, 0.3, -0.7)
        iz = total_iz(3)
        for h in (ch.h_u, ch.h_d):
            assert np.abs(h @ iz - iz @ h).max() == 0.0
            # entries between different total-Iz sectors vanish identically
            vals = np.diag(iz)
            mask = vals[:, None] != vals[None, :]
            assert np.abs(h[mask]).max() == 0.0

    def test_capacity_limit(self):
        n = 7
        cl = SpinCluster(a=np.zeros(n), c=np.zeros((n, n)))
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(CapacityError, match=r"^bath of 7 spins exceeds maximum 6$"):
                conditional_cluster_hamiltonians(cl, 1.0, -1.0)

    def test_cyclic_identity(self, rng):
        a = rng.uniform(-2e5, 2e5, size=3)
        cl = SpinCluster(a=a, c=np.zeros((3, 3)))
        assert cl.delta(0, 1) + cl.delta(1, 2) + cl.delta(2, 0) == pytest.approx(0.0, abs=1e-6)

    def test_hyperfine_offset_invariance(self, rng):
        cl = paper_like_cluster()
        shifted = SpinCluster(a=cl.a + 7.7e4, c=cl.c)
        for p_u, p_d in ((0.3, -0.7), (0.5, -0.5), (0.4, 0.1)):
            ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
            ch_shift = conditional_cluster_hamiltonians(shifted, p_u, p_d)
            taus = [1.2e-5, 3.4e-5]
            np.testing.assert_allclose(kernel_row(ch, taus, 30), kernel_row(ch_shift, taus, 30),
                                       rtol=0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpinCluster(a=np.array([1.0, 2.0]), c=np.eye(2))


class TestThermalCoherence:
    def test_matches_floquet_sum(self, rng):
        a = rng.uniform(-2e5, 2e5, size=3)
        c = rng.uniform(-3e3, 3e3, size=(3, 3))
        c = (c + c.T) / 2
        np.fill_diagonal(c, 0.0)
        cl = SpinCluster(a=a, c=c)
        ch = conditional_cluster_hamiltonians(cl, 0.52, -0.33)
        # the kernel against the oracle's Floquet expansion
        taus = [8e-6, 2.4e-5]
        for got, phases, m in zip(kernel_row(ch, taus, 14),
                                  *schur_floquet(*oracle_cells(ch.h_u, ch.h_d, taus))[:2]):
            assert got == pytest.approx(floquet_sum(phases, m, 14), abs=1e-9)

    def test_stretched_states_stay_coherent(self):
        cl = paper_like_cluster()
        p_u, p_d = donor_pair_polarizations(si_bi(), 0.15)
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        est = doublet_dip_estimates(cl, p_u, p_d)
        tau = est[0].tau
        vals = oracle_basis_coherences(*oracle_cells(ch.h_u, ch.h_d, [tau]), 100)[0]
        # |up,up,up> and |down,down,down> are the first and last basis states
        assert vals[0].real > 0.99
        assert vals[-1].real > 0.99

    def test_doublet_lines_come_from_separate_iz_sectors(self):
        cl = paper_like_cluster()
        p_u, p_d = donor_pair_polarizations(si_bi(), 0.15)
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        est = {r.subspace: r.tau for r in doublet_dip_estimates(cl, p_u, p_d)
               if r.pair == (1, 2)}
        sectors = {+1: [1, 2, 4], -1: [3, 5, 6]}  # basis indices by total Iz sign
        taus = np.linspace(0.93 * min(est.values()), 1.07 * max(est.values()), 800)
        vals = oracle_basis_coherences(*oracle_cells(ch.h_u, ch.h_d, taus), 100).real
        for sign, idx in sectors.items():
            prof = vals[:, idx].mean(axis=1)
            tau_min = taus[int(np.argmin(prof))]
            assert abs(tau_min - est[sign]) / est[sign] < 0.02
            assert abs(tau_min - est[-sign]) > abs(tau_min - est[sign])

    def test_pair_tensor_cell_phases_are_signed_sums(self):
        # each traceless 2x2 cell contributes +-E_k; the joint cell phases
        # are exactly the eight signed sums (mod 2 pi)
        from floqsens import floquet_phase
        ps = PairSet.from_cluster(paper_like_cluster())
        p_u, p_d = 0.45, -0.2
        tau = 2.7e-5
        ch = two_state_hamiltonians(ps.two_state_models(p_u, p_d))
        got = np.sort(spectrum_scan(ch, [tau]).phases[0])
        single = [float(floquet_phase(m, tau)) for m in ps.two_state_models(p_u, p_d)]
        sums = []
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                for s3 in (+1, -1):
                    total = s1 * single[0] + s2 * single[1] + s3 * single[2]
                    sums.append(float(np.angle(np.exp(1j * total))))
        assert np.allclose(got, np.sort(sums), atol=1e-9)

    def test_weak_coupling_cluster_spectrum_tracks_pair_phases(self):
        # near the working point the cluster's decoherence channels sit at
        # the pair eigenphase gaps, shifted by at most the secular Ising scale
        from floqsens import floquet_phase, owp_locate
        cl = paper_like_cluster()
        donor = si_bi()
        b_owp = owp_locate(donor, 0.05, 0.35)
        p_u, p_d = donor_pair_polarizations(donor, b_owp + 0.003)
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        ps = PairSet.from_cluster(cl)
        scan = spectrum_scan(ch, [3e-5, 6e-5])
        for tau, phases in zip(scan.taus, scan.phases):
            gaps = np.abs(phases[:, None] - phases[None, :])[np.triu_indices(phases.size, 1)]
            ising_scale = 2 * np.abs(cl.c).sum() / 2 * tau
            for model in ps.two_state_models(p_u, p_d):
                target = 2 * float(floquet_phase(model, tau))
                assert np.abs(gaps - target).min() < ising_scale

    def test_weak_coupling_cluster_behaves_like_pairs(self):
        from floqsens import owp_locate
        cl = paper_like_cluster()
        donor = si_bi()
        b_owp = owp_locate(donor, 0.05, 0.35)
        p_u, p_d = donor_pair_polarizations(donor, b_owp + 0.005)
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        ps = PairSet.from_cluster(cl)
        first = min(r.tau for r in doublet_dip_estimates(cl, p_u, p_d))
        product = pairs_trace(ps, p_u, p_d, (5e-6, 0.9 * first, 18), 20)
        np.testing.assert_allclose(kernel_row(ch, product.taus, 20), product.coherence,
                                   rtol=0, atol=5e-3)


class TestSecularEstimates:
    def test_ising_free_patterns(self):
        cl = SpinCluster(a=np.array([2.0e5, 0.0, 0.0]), c=np.zeros((3, 3)))
        eps = secular_quasienergies(cl, 0.4, 0.2)
        p_sum = 0.6
        assert eps[0] == pytest.approx(0.5 * 2.0e5 * p_sum)
        assert eps[1] == pytest.approx(-0.5 * 2.0e5 * p_sum)
        assert eps[2] == pytest.approx(-0.5 * 2.0e5 * p_sum)
        assert eps[0] - eps[1] == pytest.approx(2.0e5 * p_sum)

    def test_matches_diagonal_extraction(self, rng):
        a = rng.uniform(-2e5, 2e5, size=3)
        c = rng.uniform(-3e3, 3e3, size=(3, 3))
        c = (c + c.T) / 2
        np.fill_diagonal(c, 0.0)
        cl = SpinCluster(a=a, c=c)
        p_u, p_d = 0.37, -0.52
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        h_sum = (ch.h_u + ch.h_d).real
        # basis order: |uuu>, |uud>, |udu>, |udd>, |duu>, |dud>, |ddu>, |ddd>
        # spin-i-up states of the Iz = -1/2 sector: |udd>, |dud>, |ddu>
        idx = [3, 5, 6]
        eps = secular_quasienergies(cl, p_u, p_d)
        for level, state in enumerate(idx):
            assert eps[level] == pytest.approx(2.0 * h_sum[state, state], rel=1e-12)

    def test_wrong_size_rejected(self):
        cl = SpinCluster(a=np.zeros(4), c=np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            secular_quasienergies(cl, 1.0, 0.0)

    def test_doublet_splitting_set_by_dipolar_couplings(self):
        cl = paper_like_cluster()
        p_u, p_d = 0.3, 0.2
        est = {r.subspace: r.tau for r in doublet_dip_estimates(cl, p_u, p_d)
               if r.pair == (1, 2)}
        rate_split = abs(2 * np.pi / est[+1] - 2 * np.pi / est[-1])
        assert rate_split == pytest.approx(2 * abs(2 * (cl.c[2, 0] - cl.c[1, 2])),
                                           rel=1e-12)

    def test_doublet_splitting_collapses(self):
        cl = SpinCluster(a=np.array([180e3, 0.0, 100e3]),
                         c=np.array([[0.0, 1.05e3, 2.2e3],
                                     [1.05e3, 0.0, 2.2e3],
                                     [2.2e3, 2.2e3, 0.0]]))  # c23 == c31
        est = doublet_dip_estimates(cl, 0.3, 0.2)
        first = sorted(r.tau for r in est if r.pair == (1, 2))
        assert first[0] == pytest.approx(first[1], rel=1e-12)

    def test_doublet_positions_bracket_envelope_minima(self):
        cl = paper_like_cluster()
        p_u, p_d = donor_pair_polarizations(si_bi(), 0.15)
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        first_pair = sorted(r.tau for r in doublet_dip_estimates(cl, p_u, p_d)
                            if r.pair == (1, 2))
        lo, hi = 0.9 * min(first_pair), 1.1 * max(first_pair)
        taus = np.linspace(lo, hi, 3001)
        env = kernel_row(ch, taus, 1, "envelope")
        mins = [i for i in range(1, taus.size - 1)
                if env[i] < env[i - 1] and env[i] <= env[i + 1]]
        mins = sorted(mins, key=lambda i: env[i])[:2]
        located = sorted(taus[i] for i in mins)
        for want, got in zip(first_pair, located):
            assert abs(want - got) / got < 0.05


class TestIndependentPairs:
    def test_single_pair_reduces_to_analytic(self):
        ps = PairSet(pairs=(type(PairSet.from_cluster(paper_like_cluster()).pairs[0])(
            delta_a=1.6e5, c12=2.4e3),))
        p_u, p_d = 0.5, -0.2
        model = ps.two_state_models(p_u, p_d)[0]
        assert pairs_trace(ps, p_u, p_d, (2.7e-5, 5e-5, 2), 16).coherence[0] == pytest.approx(
            float(coherence_analytic(model, 2.7e-5, 16)), abs=1e-12)

    def test_silent_pair_is_unit_factor(self):
        from floqsens import PairTarget
        base = (PairTarget(delta_a=1.6e5, c12=2.4e3),)
        with_silent = base + (PairTarget(delta_a=0.0, c12=1e3),)
        grid = (1.9e-5, 5e-5, 2)
        assert pairs_trace(PairSet(base), 0.4, -0.1, grid, 12).coherence[0] == \
            pairs_trace(PairSet(with_silent), 0.4, -0.1, grid, 12).coherence[0]

    def test_product_equals_joint_tensor_model(self):
        ps = PairSet.from_cluster(paper_like_cluster())
        p_u, p_d = 0.45, -0.3
        product = pairs_trace(ps, p_u, p_d, (3.1e-5, 5e-5, 2), 20).coherence[0]
        joint = kernel_row(two_state_hamiltonians(ps.two_state_models(p_u, p_d)), 3.1e-5, 20)[0]
        assert product == pytest.approx(joint, abs=1e-9)

    def test_no_doublets_in_pair_decomposition(self):
        # the pairs see no secular Ising shifts, so each resonance is single
        cl = paper_like_cluster()
        p_u, p_d = donor_pair_polarizations(si_bi(), 0.15)
        est = [r for r in doublet_dip_estimates(cl, p_u, p_d) if r.pair == (1, 2)]
        splitting = abs(est[0].tau - est[1].tau)
        ps = PairSet.from_cluster(cl)
        model = ps.two_state_models(p_u, p_d)[0]
        from floqsens import dip_positions
        recs = dip_positions(model, 1.2 * max(r.tau for r in est))
        pair_taus = [r.tau_dip for r in recs]
        center = 0.5 * (est[0].tau + est[1].tau)
        assert splitting > 0
        close = [t for t in pair_taus if abs(t - center) < 3 * splitting]
        assert len(close) == 1  # one line where the cluster shows two


class TestJointModel:
    def test_decoupled_sensor_is_silent(self):
        cl = SpinCluster(a=np.zeros(3),
                         c=np.array([[0.0, 1.05e3, 2.2e3],
                                     [1.05e3, 0.0, 1.05e3],
                                     [2.2e3, 1.05e3, 0.0]]))
        ch = joint_full_model(si_bi(), cl, 0.2)
        diff = ch.h_u - ch.h_d
        off = diff - np.eye(8) * diff[0, 0]
        assert np.abs(off).max() < 1e-6
        assert kernel_row(ch, 2e-5, 40)[0] == pytest.approx(1.0, abs=1e-10)

    def test_high_field_reduces_to_imposed_polarizations(self):
        cl = paper_like_cluster()
        d = si_bi()
        b0 = 6.0
        ch_joint = joint_full_model(d, cl, b0)
        p_u, p_d = donor_pair_polarizations(d, b0)
        assert abs(p_u - 1.0) < 1e-3 and abs(p_d + 1.0) < 1e-3
        ch_cond = conditional_cluster_hamiltonians(cl, p_u, p_d)
        # equal up to per-branch constants: compare traceless parts
        for h_j, h_c in ((ch_joint.h_u, ch_cond.h_u), (ch_joint.h_d, ch_cond.h_d)):
            a = h_j - np.trace(h_j) / 8 * np.eye(8)
            b = h_c - np.trace(h_c) / 8 * np.eye(8)
            assert np.abs(a - b).max() < 1e-4 * max(np.abs(b).max(), 1.0)

    def test_matches_conditional_model_at_working_field(self):
        cl = paper_like_cluster()
        d = si_bi()
        b0 = 0.15
        ch_joint = joint_full_model(d, cl, b0)
        p_u, p_d = donor_pair_polarizations(d, b0)
        ch_cond = conditional_cluster_hamiltonians(cl, p_u, p_d)
        assert kernel_row(ch_joint, 5.4e-5, 100)[0] == pytest.approx(
            kernel_row(ch_cond, 5.4e-5, 100)[0], abs=1e-6)

    def test_zero_field_is_its_zero_plus_limit(self):
        # At B0 = 0 the transition levels 12 and 9 are the B0 -> 0+ limits in
        # the F = 5 and F = 4 multiplets: E = A I / 2 and -A (I + 1) / 2,
        # P = -3/5 and 4/5, whatever basis an eigensolver would return.
        cl = paper_like_cluster()
        d = si_bi()
        ch0, ch1 = joint_full_model(d, cl, 0.0), joint_full_model(d, cl, 1e-9)
        cond = conditional_cluster_hamiltonians(cl, -0.6, 0.8)
        eye = np.eye(8)
        for h0, h1, h_ref, energy in ((ch0.h_u, ch1.h_u, cond.h_u, 2.25 * d.hyperfine_a),
                                      (ch0.h_d, ch1.h_d, cond.h_d, -2.75 * d.hyperfine_a)):
            ref = energy * eye + h_ref
            assert np.abs(h0 - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.abs(h1 - h0).max() <= 1e-7 * np.abs(ref).max()

    def test_capacity(self):
        n = 7
        cl = SpinCluster(a=np.zeros(n), c=np.zeros((n, n)))
        with pytest.raises(CapacityError):
            joint_full_model(si_bi(), cl, 0.1)


def kron_site(op, site, n):
    """``op`` on ``site`` of n spin-1/2 by a kron chain over sites 0..n-1."""
    m = np.eye(1, dtype=complex)
    for j in range(n):
        m = np.kron(m, op if j == site else np.eye(2, dtype=complex))
    return m


def kron_bath_operators(cluster):
    """Reference (sum_k A_k Iz_k, secular dipolar part) from kron-chain site operators."""
    n = cluster.n
    iz = [0.5 * kron_site(np.diag([1.0 + 0j, -1.0]), k, n) for k in range(n)]
    rp = [kron_site(np.array([[0, 1.0 + 0j], [0, 0]]), k, n) for k in range(n)]
    h_a = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(n):
        h_a += cluster.a[k] * iz[k]
    h_c = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j, k in combinations(range(n), 2):
        flip = rp[j] @ rp[k].conj().T
        h_c += cluster.c[j, k] * (iz[j] @ iz[k] - 0.25 * (flip + flip.conj().T))
    return h_a, h_c


# zero (of either sign), subnormal and negative couplings included
couplings = st.floats(-3e5, 3e5) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
polarization = st.floats(-1.0, 1.0)


@st.composite
def clusters(draw):
    n = draw(st.integers(1, 6))
    c = np.zeros((n, n))
    for j, k in combinations(range(n), 2):
        c[j, k] = c[k, j] = draw(couplings)
    return SpinCluster(a=np.array(draw(st.lists(couplings, min_size=n, max_size=n))), c=c)


class TestBasisBuild:
    """The bit-pattern builders against kron chains of site operators, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(cl=clusters(), p_u=polarization, p_d=polarization, b0=st.floats(0.0, 1.0))
    def test_cluster_spaces_match_kron_chains(self, cl, p_u, p_d, b0):
        h_a, h_c = kron_bath_operators(cl)
        ch = conditional_cluster_hamiltonians(cl, p_u, p_d)
        assert ch.h_u.tobytes() == (0.5 * p_u * h_a + h_c).tobytes()
        assert ch.h_d.tobytes() == (0.5 * p_d * h_a + h_c).tobytes()
        d = si_bi()
        energies, pols = donor_levels(d, b0)
        eye = np.eye(2 ** cl.n, dtype=complex)
        ch = joint_full_model(d, cl, b0)
        for h, level in ((ch.h_u, d.level_u), (ch.h_d, d.level_d)):
            sz_exp = 0.5 * float(pols[level - 1])
            assert h.tobytes() == (float(energies[level - 1]) * eye + sz_exp * h_a
                                   + h_c).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(cl=clusters(), p_u=polarization, p_d=polarization, b0=st.floats(0.0, 1.0))
    def test_operators_are_built_once_per_cluster(self, cl, p_u, p_d, b0):
        # The cached operators equal a fresh build, no Hamiltonian of the
        # cluster builds them again, and each is the build-per-call
        # expression bit for bit.
        fresh = clusters_module._bath_operators(cl)
        assert [m.tobytes() for m in cl.operators] == [m.tobytes() for m in fresh]
        assert not any(m.flags.writeable for m in cl.operators)
        h_a, h_c = fresh
        d = si_bi()
        energies, pols = donor_levels(d, b0)
        eye = np.eye(2 ** cl.n, dtype=complex)
        with mock.patch.object(clusters_module, "_bath_operators", None):
            chs = [conditional_cluster_hamiltonians(cl, p, p_d) for p in (p_u, p_d)]
            ch = joint_full_model(d, cl, b0)
        for p, cond in zip((p_u, p_d), chs):
            assert cond.h_u.tobytes() == (0.5 * p * h_a + h_c).tobytes()
            assert cond.h_d.tobytes() == (0.5 * p_d * h_a + h_c).tobytes()
        for h, level in ((ch.h_u, d.level_u), (ch.h_d, d.level_d)):
            want = float(energies[level - 1]) * eye + 0.5 * float(pols[level - 1]) * h_a + h_c
            assert h.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(couplings, couplings.filter(bool)), min_size=1, max_size=8),
           p_u=polarization, p_d=polarization)
    def test_pair_space_matches_kron_chains(self, pairs, p_u, p_d):
        ps = PairSet(pairs=tuple(PairTarget(delta_a=a, c12=c) for a, c in pairs))
        k = len(pairs)
        ref_u = np.zeros((2 ** k, 2 ** k), dtype=complex)
        ref_d = np.zeros((2 ** k, 2 ** k), dtype=complex)
        for site, model in enumerate(ps.two_state_models(p_u, p_d)):
            left = np.eye(2 ** site, dtype=complex)
            right = np.eye(2 ** (k - site - 1), dtype=complex)
            mu, md = (np.array([[f.z / 2, f.x / 2], [f.x / 2, -f.z / 2]], dtype=complex)
                      for f in (model.h_u, model.h_d))
            ref_u += np.kron(np.kron(left, mu), right)
            ref_d += np.kron(np.kron(left, md), right)
        ch = two_state_hamiltonians(ps.two_state_models(p_u, p_d))
        assert ch.h_u.tobytes() == ref_u.tobytes()
        assert ch.h_d.tobytes() == ref_d.tobytes()
