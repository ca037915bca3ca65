"""The stacked row kernel ``floquet_rows`` against the per-tau engine path.

The kernel splits every cell into the sectors of its Hamiltonian pair
(``ConditionalHamiltonians.sectors``) and stacks the cells of equal sector
size over all rows; the per-tau oracles work on the full space.
"""

import json
import math
import re
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import floqsens.engine as engine
import floqsens.linalg as linalg
from conftest import random_hermitian
from floqsens import (
    ConditionalHamiltonians,
    EigenSystem,
    FloquetPair,
    NumericalConsistencyError,
    PairSet,
    PairTarget,
    PulseSequence,
    SpinCluster,
    SymmetryViolationError,
    ValidationError,
    conditional_cluster_hamiltonians,
    eig_unitary,
    envelope_general,
    expm_hermitian,
    floquet_pair,
    half_period_operators,
    joint_full_model,
    si_bi,
    spectrum_scan,
    thermal_coherence_numeric,
    unit_cell,
)
from floqsens.config import parse_config
from floqsens.engine import _half_period_blocks, _stacked_floor, floquet_row, floquet_rows
from floqsens.linalg import eig_unitaries
from floqsens.scans import (_polarizations, _row_hamiltonians, compute_trace, field_rows,
                            run_map, run_trace)

ATOL = 1e-10
# Sector spectra against the eigenphases of the full-space cell: 1e-12 plus
# SPECTRUM_EPS ulps of the phase a cell accumulates.  The full-space cell
# of a D = 32 joint_full bath missed the sector phases by up to 6.3 ulps.
SPECTRUM_ATOL = 1e-12
SPECTRUM_EPS = 16
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def per_tau(ch, taus, n_p, pulse_duration):
    """Both quantities at each tau, one PulseSequence at a time."""
    coh, env = [], []
    for tau in taus:
        seq = PulseSequence(tau=float(tau), n_p=n_p, pulse_duration=pulse_duration)
        coh.append(thermal_coherence_numeric(ch, seq))
        env.append(envelope_general(floquet_pair(*unit_cell(ch, seq))).floor)
    return {"coherence": np.array(coh), "envelope": np.array(env)}


def schur_floor(ch, taus, pulse_duration=0.0):
    """Envelope floor per tau from the Schur vectors of T_u2 (the independent oracle).

    floor = (2/D) sum |Phi_l^dag W_d Phi_l'|^2 - 1 over mode pairs whose
    cell eigenvalues lie within 1e-8 of each other; inside such a cluster
    the Schur vectors are an arbitrary basis, and the sum does not see it.
    """
    floors = []
    for tau in taus:
        w_u, w_d = half_period_operators(
            ch, PulseSequence(tau=float(tau), n_p=1, pulse_duration=pulse_duration))
        t, q = scipy.linalg.schur(w_u @ w_d, output="complex")
        lam = np.diag(t)
        same = np.abs(lam[:, None] - lam[None, :]) < 1e-8
        overlaps = q.conj().T @ w_d @ q
        floors.append(2.0 / lam.size * (np.abs(overlaps) ** 2)[same].sum() - 1.0)
    return np.array(floors)


def rotate_in_clusters(phases, modes, rng):
    """Modes mixed by a random unitary inside each cluster of equal phases."""
    modes = modes.copy()
    for value in np.unique(np.round(phases, 6)):
        cluster = np.flatnonzero(np.round(phases, 6) == value)
        z = rng.standard_normal((cluster.size,) * 2) + 1j * rng.standard_normal((cluster.size,) * 2)
        modes[:, cluster] = modes[:, cluster] @ np.linalg.qr(z)[0]
    return modes


def doubled(rng, dim=3):
    """Two copies of one random block: every cell eigenphase appears twice."""
    a_u, a_d = random_hermitian(dim, rng), random_hermitian(dim, rng)
    zero = np.zeros((dim, dim))
    return ConditionalHamiltonians(np.block([[a_u, zero], [zero, a_u]]),
                                   np.block([[a_d, zero], [zero, a_d]]))


def stacked_cells(ch, taus, pulse_duration=0.0, intra_pulse_hamiltonian=None):
    """(T_u2, T_d2) as (n_tau, D, D) arrays, joined from every block of the cell builder."""
    blocks = list(_half_period_blocks(ch, np.asarray(taus), pulse_duration,
                                      intra_pulse_hamiltonian))
    w_u = np.concatenate([w for _, w, _ in blocks])
    w_d = np.concatenate([w for _, _, w in blocks])
    return w_u @ w_d, w_d @ w_u


def count_calls(monkeypatch, name):
    """Count the engine's calls of one of its module-level functions."""
    calls = []
    original = getattr(engine, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, name, counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3, 4, 8, 16]),
       seed=st.integers(0, 2 ** 32 - 1),
       taus=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=8, unique=True),
       n_p=st.integers(1, 200),
       pulse_duration=st.floats(1e-3, 0.5),
       quantities=st.sampled_from([("coherence",), ("envelope",),
                                   ("coherence", "envelope")]))
def test_row_kernel_matches_per_tau_path(dim, seed, taus, n_p, pulse_duration, quantities):
    rng = np.random.default_rng(seed)
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    taus = np.sort(taus)
    got = floquet_row(ch, taus, n_p, quantities, pulse_duration=pulse_duration)
    want = per_tau(ch, taus, n_p, pulse_duration)
    assert set(got) == set(quantities)
    for quantity in quantities:
        np.testing.assert_allclose(got[quantity], want[quantity], rtol=0, atol=ATOL)


def test_quantity_values_do_not_depend_on_the_request(rng):
    ch = ConditionalHamiltonians(random_hermitian(8, rng), random_hermitian(8, rng))
    taus = np.linspace(0.05, 2.0, 40)
    both = floquet_row(ch, taus, 30)
    for quantity in ("coherence", "envelope"):
        alone = floquet_row(ch, taus, 30, (quantity,))
        assert alone[quantity].tobytes() == both[quantity].tobytes()


def test_degenerate_phases_match_the_schur_oracle(rng):
    ch = doubled(rng)
    taus = np.array([0.1, 0.7, 1.3])
    want = schur_floor(ch, taus, 0.05)
    got = floquet_row(ch, taus, 12, ("envelope",), pulse_duration=0.05)["envelope"]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(per_tau(ch, taus, 12, 0.05)["envelope"], want, rtol=0, atol=1e-12)


def test_symmetric_cluster3_envelope_does_not_depend_on_the_basis():
    # Two equal hyperfine couplings and equal flip-flops: every cell of the
    # tau axis has degenerate eigenphases.  The per-tau Schur path paired
    # arbitrary bases inside the clusters and read up to 2.4e-2 off.
    cfg = parse_config({
        "system": {"kind": "cluster3", "p_u": 0.3, "p_d": -0.5,
                   "cluster": {"a_rad_s": [1e5, 1e5, 0.0],
                               "c_rad_s": [[0.0, 1e3, 1e3], [1e3, 0.0, 1e3],
                                           [1e3, 1e3, 0.0]]}},
        "sequence": {"n_p": 100},
        "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 300}}})
    data = compute_trace(cfg)
    ch = conditional_cluster_hamiltonians(cfg.system, 0.3, -0.5)
    want = schur_floor(ch, data.taus)
    np.testing.assert_allclose(data.envelope, want, rtol=0, atol=1e-12)
    oracle = per_tau(ch, data.taus, 100, 0.0)
    np.testing.assert_allclose(data.envelope, oracle["envelope"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(data.coherence, oracle["coherence"], rtol=0, atol=ATOL)


@pytest.mark.parametrize("seed", range(5))
def test_floor_does_not_see_rotations_inside_a_cluster(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    ch = doubled(rng, dim=2 + seed % 3)
    taus = np.array([0.3, 0.9, 1.6])
    want = schur_floor(ch, taus)
    _, w_u, w_d = next(_half_period_blocks(ch, taus))
    original = engine.eig_unitaries

    def rotated(cells, symmetric):
        phases, modes = original(cells, symmetric)
        return phases, np.stack([rotate_in_clusters(p, m, rng) for p, m in zip(phases, modes)])

    monkeypatch.setattr(engine, "eig_unitaries", rotated)
    floor, _, residual = _stacked_floor(w_u @ w_d, w_d @ w_u, w_d, False)
    np.testing.assert_allclose(floor, want, rtol=0, atol=1e-12)
    assert residual.max() < 1e-12
    for k in range(taus.size):
        pair = floquet_pair(w_u[k] @ w_d[k], w_d[k] @ w_u[k])
        su = pair.spectrum_u
        modes = rotate_in_clusters(su.phases, su.modes, rng)
        turned = FloquetPair(EigenSystem(su.phases, modes), pair.spectrum_d, pair.pairing,
                             pair.spectrum_d.modes.conj().T @ modes)
        assert envelope_general(turned).floor == pytest.approx(want[k], abs=1e-12)


@pytest.mark.parametrize("dim", [2, 8, 16])
@pytest.mark.parametrize("n", [0, 1, 50, 257])
def test_forced_power_drift_is_corrected_matrix_by_matrix(rng, monkeypatch, dim, n):
    # With POWER_DRIFT_TOL = 0 every squared base counts as drifted.
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    taus = np.array([0.2, 0.9, 1.7])
    t_u2, _ = stacked_cells(ch, taus)
    monkeypatch.setattr(engine, "POWER_DRIFT_TOL", 0.0)
    calls = count_calls(monkeypatch, "polar_unitary")
    stacked = engine.unitary_power(t_u2, n)
    assert len(calls) == max(n.bit_length() - 1, 0)
    per_matrix = np.stack([engine.unitary_power(cell, n) for cell in t_u2])
    assert stacked.tobytes() == per_matrix.tobytes()
    got = floquet_row(ch, taus, n, ("coherence",))["coherence"]
    np.testing.assert_allclose(got, per_tau(ch, taus, n, 0.0)["coherence"], rtol=0, atol=ATOL)


def test_power_drift_re_unitarizes_only_the_drifted_matrices(rng, monkeypatch):
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    cells, _ = stacked_cells(ch, [0.3, 1.1])
    cells[1] *= 1.0 + 1e-9
    calls = count_calls(monkeypatch, "polar_unitary")
    stacked = engine.unitary_power(cells, 40)
    assert calls and all(len(args[0]) == 1 for args in calls)
    per_matrix = np.stack([engine.unitary_power(cell, 40) for cell in cells])
    assert stacked.tobytes() == per_matrix.tobytes()


def test_long_rows_are_built_in_blocks(rng):
    dim = 16
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    taus = np.linspace(0.05, 2.0, 150)
    blocks = [block for block, _, _ in _half_period_blocks(ch, taus)]
    assert len(blocks) > 1
    assert max(b.stop - b.start for b in blocks) * 16 * dim ** 2 <= linalg.BLOCK_BYTES
    assert [i for b in blocks for i in range(150)[b]] == list(range(150))
    want = per_tau(ch, taus[::37], 20, 0.0)
    got = floquet_row(ch, taus, 20)
    for quantity in want:
        np.testing.assert_allclose(got[quantity][::37], want[quantity], rtol=0, atol=ATOL)


def test_cells_match_unit_cell_with_intra_pulse_hamiltonian(rng):
    # Both builds share their code, so the reference is an independent
    # scipy.linalg.expm product: T_u2 = T_u T_pi T_d T_d T_pi T_u.
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    h_pulse = random_hermitian(4, rng)
    taus = np.array([0.05, 0.3, 0.7, 1.1, 2.4])
    t_pi = scipy.linalg.expm(-1j * h_pulse * 0.04)
    t_u2, t_d2 = stacked_cells(ch, taus, 0.02, h_pulse)
    for k, tau in enumerate(taus):
        t_u = scipy.linalg.expm(-1j * ch.h_u * tau)
        t_d = scipy.linalg.expm(-1j * ch.h_d * tau)
        ref_u = t_u @ t_pi @ t_d @ t_d @ t_pi @ t_u
        ref_d = t_d @ t_pi @ t_u @ t_u @ t_pi @ t_d
        seq = PulseSequence(tau=tau, n_p=1, pulse_duration=0.02,
                            intra_pulse_hamiltonian=h_pulse)
        for got_u, got_d in ((t_u2[k], t_d2[k]), unit_cell(ch, seq)):
            np.testing.assert_allclose(got_u, ref_u, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_d, ref_d, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 8, 16])
@pytest.mark.parametrize("pulse", ["ideal", "delta", "intra_pulse"])
def test_unit_cell_equals_the_stacked_cell_bit_for_bit(rng, dim, pulse):
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    delta = 0.0 if pulse == "ideal" else 0.03
    h_pulse = random_hermitian(dim, rng) if pulse == "intra_pulse" else None
    taus = np.sort(rng.uniform(0.01, 3.0, 300))
    t_u2, t_d2 = stacked_cells(ch, taus, delta, h_pulse)
    for k, tau in enumerate(taus):
        seq = PulseSequence(tau=float(tau), n_p=1, pulse_duration=delta,
                            intra_pulse_hamiltonian=h_pulse)
        ref_u, ref_d = unit_cell(ch, seq)
        assert ref_u.tobytes() == t_u2[k].tobytes()
        assert ref_d.tobytes() == t_d2[k].tobytes()


def test_errors_name_the_tau_point(rng, monkeypatch):
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    with pytest.raises(ValidationError, match=r"^tau\[2\] = -1: "):
        floquet_row(ch, [0.1, 0.2, -1.0], 5)
    with pytest.raises(ValidationError, match="n_p must be"):
        floquet_row(ch, [0.1], -1)
    with pytest.raises(ValidationError, match="unknown quantities"):
        floquet_row(ch, [0.1], 5, ("phase",))
    monkeypatch.setattr(engine, "PHASE_MATCH_TOL", -1.0)
    with pytest.raises(SymmetryViolationError, match=r"^tau\[0\] = 0\.1: u/d eigenphase"):
        floquet_row(ch, [0.1, 0.2], 5, ("envelope",))


def test_corrupted_half_period_names_the_tau_point(rng, monkeypatch):
    # A W_d rotated at one tau no longer satisfies T_d2 = W_d W_u there.
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    kick = expm_hermitian(random_hermitian(4, rng), 1e-3)
    original = engine._stacked_floor

    def corrupted(t_u2, t_d2, w_d, symmetric):
        w_d = w_d.copy()
        w_d[1] = w_d[1] @ kick
        return original(t_u2, t_d2, w_d, symmetric)

    monkeypatch.setattr(engine, "_stacked_floor", corrupted)
    with pytest.raises(SymmetryViolationError, match=r"^tau\[1\] = 0\.7: u/d eigenphase"):
        floquet_row(ch, [0.1, 0.7, 1.3], 5, ("envelope",))


def cluster3_doc(**system):
    return {
        "system": {"kind": "cluster3", "donor": "si_bi",
                   "cluster": {"a_rad_s": [180e3, 0.0, 100e3],
                               "c_rad_s": [[0.0, 1.05e3, 2.2e3], [1.05e3, 0.0, 1.05e3],
                                           [2.2e3, 1.05e3, 0.0]]},
                   **system},
        "sequence": {"n_p": 100},
        "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 30}},
    }


def pairs_doc(**system):
    """The pair decomposition of the cluster3_doc cluster."""
    doc = cluster3_doc()
    doc["system"] = {"kind": "independent_pairs", "donor": "si_bi",
                     "pairs": [{"delta_a_rad_s": da, "c12_rad_s": c}
                               for da, c in ((180e3, 1.05e3), (-100e3, 1.05e3),
                                             (-80e3, 2.2e3))],
                     **system}
    return doc


@pytest.mark.parametrize("make_doc, quantity", [
    pytest.param(cluster3_doc, "coherence", id="coherence"),
    pytest.param(cluster3_doc, "envelope", id="envelope"),
    pytest.param(pairs_doc, "coherence", id="pairs-coherence"),
    pytest.param(pairs_doc, "envelope", id="pairs-envelope")])
def test_cluster3_map_row_equals_trace(tmp_path, make_doc, quantity):
    doc = make_doc()
    doc["axes"]["b0_tesla"] = {"start": 0.10, "stop": 0.26, "count": 5}
    doc["output"] = {"quantity": quantity}
    run_map(parse_config(doc), tmp_path / "m")
    rows = [line.split(",") for line in
            (tmp_path / "m" / "map.csv").read_text().splitlines()[1:]]
    pick = rows[2 * 30][0]
    map_col = [(r[1], r[2]) for r in rows if r[0] == pick]

    run_trace(parse_config(make_doc(b0_tesla=float(pick))), tmp_path / "t")
    lines = (tmp_path / "t" / "trace.csv").read_text().splitlines()
    column = lines[0].split(",").index(quantity)
    assert [(r.split(",")[0], r.split(",")[column]) for r in lines[1:]] == map_col


@pytest.mark.parametrize("path", ["spectrum_scan", "floquet_row"])
def test_unresolved_eigensolve_names_the_tau_point(monkeypatch, path):
    # With the Cayley bound at 1 the shipped cluster3 cells first fail in a
    # later tau block; the error names the tau, not the matrix of the block.
    cfg = parse_config(json.loads((CONFIGS / "cluster3_spectrum.json").read_text()))
    ch = _row_hamiltonians(cfg, None, *_polarizations(cfg, [None]))
    taus = cfg.tau_axis.values()
    monkeypatch.setattr(linalg, "MAX_CAYLEY_TAN", 1.0)
    with pytest.raises(NumericalConsistencyError) as failure:
        if path == "spectrum_scan":
            spectrum_scan(ch, taus)
        else:
            floquet_row(ch, taus, 1, ("envelope",))
    named = re.fullmatch(r"tau\[(\d+)\] = (\S+): Cayley transform exceeds 1e\+00 at every "
                         r"cut tried", str(failure.value))
    assert named, str(failure.value)
    i = int(named[1])
    assert i >= linalg.BLOCK_BYTES // (16 * ch.dim ** 2)
    assert named[2] == f"{taus[i]:g}"
    w_u, w_d = half_period_operators(ch, PulseSequence(tau=float(taus[i]), n_p=1))
    with pytest.raises(NumericalConsistencyError):
        linalg.eig_unitaries((w_u @ w_d)[None])


HYPERFINE = st.one_of(st.just(0.0), st.floats(-2e5, 2e5))
FLIP_FLOP = st.one_of(st.just(0.0), st.floats(500.0, 5e3), st.floats(-5e3, -500.0))


@st.composite
def spin_clusters(draw, max_spins=5):
    """1 to ``max_spins`` bath spins; a coupling drawn as exactly 0 splits sectors further."""
    n = draw(st.integers(1, max_spins))
    c = np.zeros((n, n))
    for j, k in combinations(range(n), 2):
        c[j, k] = c[k, j] = draw(FLIP_FLOP)
    return SpinCluster(draw(st.lists(HYPERFINE, min_size=n, max_size=n)), c)


def check_sectors(ch, cluster):
    """Each sector keeps total Iz; all flip-flops nonzero give the binomial sizes."""
    index = [row for stack in ch.sectors for row in stack.index.tolist()]
    assert sorted(state for row in index for state in row) == list(range(ch.dim))
    for row in index:
        assert row == sorted(row)
        assert len({bin(state).count("1") for state in row}) == 1
    if np.all(cluster.c[np.triu_indices(cluster.n, 1)] != 0):
        assert sorted(map(len, index)) == sorted(math.comb(cluster.n, k)
                                                 for k in range(cluster.n + 1))


@settings(max_examples=40, deadline=None)
@given(cluster=spin_clusters(), kind=st.sampled_from(["cluster3", "joint_full"]),
       fields=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                 st.floats(0.0, 0.4)), min_size=1, max_size=3),
       taus=st.lists(st.floats(2e-5, 3e-4), min_size=1, max_size=4, unique=True),
       n_p=st.integers(1, 100), delta=st.sampled_from([0.0, 3e-6]),
       quantities=st.sampled_from([("coherence",), ("envelope",), ("coherence", "envelope")]))
def test_sector_rows_match_the_per_tau_oracles(cluster, kind, fields, taus, n_p, delta,
                                               quantities):
    chs = [conditional_cluster_hamiltonians(cluster, p_u, p_d) if kind == "cluster3"
           else joint_full_model(si_bi(), cluster, b0) for p_u, p_d, b0 in fields]
    got = floquet_rows(chs, taus, n_p, quantities, pulse_duration=delta)
    assert set(got) == set(quantities)
    for i, ch in enumerate(chs):
        check_sectors(ch, cluster)
        want = per_tau(offset_free(ch) if kind == "joint_full" else ch, taus, n_p, delta)
        for quantity in quantities:
            np.testing.assert_allclose(got[quantity][i], want[quantity], rtol=0, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(cluster=spin_clusters(), kind=st.sampled_from(["cluster3", "joint_full"]),
       pols=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), b0=st.floats(0.0, 0.4),
       taus=st.lists(st.floats(2e-5, 3e-4), min_size=1, max_size=5, unique=True),
       delta=st.sampled_from([0.0, 3e-6]))
def test_sector_spectra_match_the_full_cell_phases(cluster, kind, pols, b0, taus, delta):
    # Circular multisets of phases at each tau; a cell accumulates the
    # phase 4 |H| (tau + delta).
    ch = conditional_cluster_hamiltonians(cluster, *pols) if kind == "cluster3" \
        else joint_full_model(si_bi(), cluster, b0)
    taus = np.sort(taus)
    scan = spectrum_scan(ch, taus, pulse_duration=delta)
    for i, tau in enumerate(taus):
        cell, _ = unit_cell(ch, PulseSequence(tau=float(tau), n_p=1, pulse_duration=delta))
        gaps = engine._circular_gap(scan.phases[i], eig_unitary(cell).phases)
        rows, cols = linear_sum_assignment(gaps)
        phase = 4 * ch.spectral_radius * (tau + delta)
        assert gaps[rows, cols].max() <= SPECTRUM_ATOL + SPECTRUM_EPS * np.finfo(float).eps * phase


@st.composite
def real_sector_cells(draw):
    """(W_u, W_d, near_pi) for the cells of one random real sector pair, d <= 8.

    The pair comes from ``ConditionalHamiltonians.sectors`` of real
    symmetric H_u and H_d with every entry nonzero, so it is one sector
    with a real transfer, and W_u = D_u Y and W_d = Y D_u come from the
    engine's cell builder.  'degenerate' pairs are kron(a, J) and kron(b, J)
    with J the 2 x 2 all-ones matrix: v (x) (1, -1) lies in the kernel of
    both, so the cells have a d/2-fold eigenphase 0.  'near_pi' turns both
    half periods by a common phase that puts one cell eigenphase within
    1e-3 rad of +-pi, where the first Cayley solve must be re-cut.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["generic", "degenerate", "near_pi"]))
    if kind == "degenerate":
        half = draw(st.integers(1, 4))
        h_u, h_d = (np.kron(random_hermitian(half, rng, real=True) + 3.0, np.ones((2, 2)))
                    for _ in range(2))
    else:
        dim = draw(st.integers(1, 8))
        h_u, h_d = (random_hermitian(dim, rng, real=True) + 3.0 for _ in range(2))
    (stack,) = ConditionalHamiltonians(h_u, h_d).sectors
    assert not np.iscomplexobj(stack.transfer)
    taus = rng.uniform(0.05, 2.0, 6)
    _, d_u, y = next(engine._cell_blocks(stack.energies_u, stack.energies_d, stack.transfer,
                                         np.zeros(taus.size, dtype=int), taus))
    w_u, w_d = d_u[:, :, None] * y, y * d_u[:, None, :]
    if kind == "near_pi":
        phases, _ = eig_unitaries(w_u @ w_d)
        miss = draw(st.sampled_from([0.0, 1e-16, 1e-12, 1e-8]) | st.floats(0.0, 1e-3)) \
            * draw(st.sampled_from([-1.0, 1.0]))
        turn = np.exp(-0.5j * (np.pi + miss - phases[:, 0]))[:, None, None]
        w_u, w_d = w_u * turn, w_d * turn
    return w_u, w_d, kind == "near_pi"


@settings(max_examples=200, deadline=None)
@given(cells=real_sector_cells())
def test_real_sector_cells_solve_alike_in_real_and_complex_arithmetic(cells):
    # The real eigh of the symmetric cells against the complex eigh of the
    # same cells: phases and cluster-summed envelope floors to 1e-12.
    w_u, w_d, near_pi = cells
    t_u2, t_d2 = w_u @ w_d, w_d @ w_u
    assert np.abs(t_u2 - t_u2.swapaxes(-1, -2)).max() < 1e-14
    if near_pi and t_u2.shape[-1] > 1:
        size, _ = linalg._cayley_eigh(t_u2, np.zeros(len(t_u2)), True)
        assert (size > linalg.MAX_CAYLEY_TAN).all()
    real_phases, real_modes = eig_unitaries(t_u2, True)
    phases, _ = eig_unitaries(t_u2)
    assert not np.iscomplexobj(real_modes)
    d = t_u2.shape[-1]
    assert np.abs(real_modes.swapaxes(-1, -2) @ real_modes - np.eye(d)).max() <= 1e-13
    for got, want in zip(real_phases, phases):
        gaps = engine._circular_gap(got, want)
        rows, cols = linear_sum_assignment(gaps)
        assert gaps[rows, cols].max() <= 1e-12
    real_floor, _, residual = _stacked_floor(t_u2, t_d2, w_d, True)
    floor, _, _ = _stacked_floor(t_u2, t_d2, w_d, False)
    np.testing.assert_allclose(real_floor, floor, rtol=0, atol=1e-12)
    assert residual.max() <= 1e-12


def mpmath_sector_phases(h_u, h_d, t):
    """Eigenphases in (-pi, pi] of T_u(t) T_d(2t) T_u(t) for real symmetric double
    blocks, from 40-digit mpmath (the offsets on the diagonal included)."""
    with mpmath.workdps(40):
        def propagator(h, time):
            energies, modes = mpmath.eigsy(mpmath.matrix(h.real.tolist()))
            phase = mpmath.diag([mpmath.exp(-1j * energies[k] * time) for k in range(len(h))])
            return modes * phase * modes.T
        half = propagator(h_u, mpmath.mpf(t))
        values = mpmath.eig(half * propagator(h_d, 2 * mpmath.mpf(t)) * half)[0]
        return [float(-mpmath.arg(v)) for v in values]


@settings(max_examples=200, deadline=None)
@given(c_u=st.floats(-3e10, 3e10), c_d=st.floats(-3e10, 3e10),
       t=st.lists(st.floats(0.0, 1e-2), min_size=1, max_size=4))
def test_offset_phase_is_the_exact_reduction(c_u, c_d, t):
    # 2 (c_u + c_d) t mod 2 pi against 40-digit mpmath, with the sum and the
    # product of the doubles taken exactly: a few ulps of pi, at any size.
    got = engine._offset_phases(np.array([[c_u, c_d]]), np.array(t))[:, 0]
    with mpmath.workdps(40):
        for value, time in zip(got, t):
            exact = 2 * (mpmath.mpf(c_u) + mpmath.mpf(c_d)) * mpmath.mpf(time)
            miss = mpmath.mpf(value) - exact
            miss -= 2 * mpmath.pi * mpmath.nint(miss / (2 * mpmath.pi))
            assert abs(miss) <= 4 * np.finfo(float).eps * np.pi
            assert abs(value) <= np.pi + 1e-12


def test_joint_full_spectrum_phases_match_mpmath():
    # The sector offset phase 2 (c_u + c_d) t reaches 3e5 rad here.  As a
    # plain double product it put the phases up to 5.2e-11 off 40-digit
    # values; formed exactly and reduced by a two-part 2 pi they lie within
    # 3.3e-15.  The plain product itself must miss by ten times more.
    cfg = parse_config(json.loads((CONFIGS / "joint_full_spectrum.json").read_text()))
    ch = _row_hamiltonians(cfg, None, *_polarizations(cfg, [None]))
    t = cfg.tau_axis.values() + cfg.sequence.pulse_duration
    picks = [0, 100, 300, 458, 499]
    scan = spectrum_scan(ch, t[picks])
    worst = plain = 0.0
    for row, i in enumerate(picks):
        want = []
        for stack in ch.sectors:
            for index, (c_u, c_d) in zip(stack.index, stack.offsets):
                block = np.ix_(index, index)
                want += mpmath_sector_phases(ch.h_u[block], ch.h_d[block], t[i])
                with mpmath.workdps(40):
                    exact = 2 * (mpmath.mpf(c_u) + mpmath.mpf(c_d)) * mpmath.mpf(t[i])
                    miss = mpmath.mpf(2 * (c_u + c_d) * t[i]) - exact
                    plain = max(plain, abs(float(miss - 2 * mpmath.pi * mpmath.nint(
                        miss / (2 * mpmath.pi)))))
        gaps = engine._circular_gap(scan.phases[row], np.array(want))
        rows, cols = linear_sum_assignment(gaps)
        worst = max(worst, gaps[rows, cols].max())
    assert worst <= 1e-13
    assert 10 * worst <= plain


def offset_free(ch):
    """``ch`` without the donor level energy E on its diagonal, subtracted exactly.

    E 1 is a global phase of each branch and cancels in both quantities,
    but at about 2e10 rad/s it leaves the full-space Hamiltonians a phase
    resolution of only about eps E t: the per-tau path then misses an
    offset-free computation by up to about 1e-7.  The sector kernel
    subtracts the offset of each sector itself.  Every diagonal entry lies
    within a factor 2 of the first, so the subtraction is exact.
    """
    eye = np.eye(ch.dim)
    return ConditionalHamiltonians(ch.h_u - ch.h_u[0, 0].real * eye,
                                   ch.h_d - ch.h_d[0, 0].real * eye)


def test_joint_pair_space_is_one_sector():
    pairs = PairSet((PairTarget(1.8e5, 1.05e3), PairTarget(-1e5, 1.05e3),
                     PairTarget(-8e4, 2.2e3)))
    ch = pairs.conditional(0.3, -0.5)
    assert [stack.index.tolist() for stack in ch.sectors] == [[list(range(8))]]


def test_degenerate_all_up_and_all_down_states():
    # With sum_k A_k = 0 the one-state sectors |uuu> and |ddd> have equal
    # energies under H_u and under H_d, so their cell phases coincide.
    cluster = SpinCluster([1.2e5, -5e4, -7e4], [[0.0, 1.05e3, 2.2e3], [1.05e3, 0.0, 1.05e3],
                                                 [2.2e3, 1.05e3, 0.0]])
    ch = conditional_cluster_hamiltonians(cluster, 0.3, -0.5)
    assert ch.h_u[0, 0] == ch.h_u[7, 7] and ch.h_d[0, 0] == ch.h_d[7, 7]
    assert [stack.index.tolist() for stack in ch.sectors] == [[[0], [7]], [[1, 2, 4], [3, 5, 6]]]
    taus = np.linspace(2e-5, 3.2e-4, 7)
    got = floquet_row(ch, taus, 40)
    np.testing.assert_allclose(got["envelope"], schur_floor(ch, taus), rtol=0, atol=1e-12)
    want = per_tau(ch, taus, 40, 0.0)
    for quantity in want:
        np.testing.assert_allclose(got[quantity], want[quantity], rtol=0, atol=ATOL)


@pytest.mark.parametrize("budget", [0, 100, 16 * 9 * 7, 5000, 64 * 1024])
@pytest.mark.parametrize("kind", ["cluster3", "joint_full"])
def test_dense_map_rows_equal_traces_at_any_block_budget(monkeypatch, kind, budget):
    doc = cluster3_doc()
    doc["system"]["kind"] = kind
    doc["axes"]["b0_tesla"] = {"start": 0.10, "stop": 0.26, "count": 5}
    cfg = parse_config(doc)
    fields = cfg.field_axis.values().tolist()
    traces = [compute_trace(cfg, field) for field in fields]
    monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
    for quantities in (("coherence",), ("envelope",), ("coherence", "envelope")):
        values = field_rows(cfg, fields, quantities)[0]
        for quantity in quantities:
            want = np.array([getattr(trace, quantity) for trace in traces])
            assert values[quantity].tobytes() == want.tobytes()


def sign_free_bits(a):
    """The bits of a complex array with -0.0 read as +0.0.  The two products
    can differ in the sign of an exact zero; 1 +- U in the Cayley solve and
    |.| in every check and quantity wash it out, so no output value moves."""
    return (a.view(float) + 0.0).view(np.int64)


def cluster_pair(cluster, kind, pols, b0):
    return conditional_cluster_hamiltonians(cluster, *pols) if kind == "cluster3" \
        else joint_full_model(si_bi(), cluster, b0)


def sector_cells(stack, t):
    """(j, t) of every (tau, sector) cell of a SectorStack, as the spectrum orders them."""
    k = len(stack.index)
    return np.tile(np.arange(k), t.size), np.repeat(t, k)


@settings(max_examples=60, deadline=None)
@given(cluster=spin_clusters(max_spins=4), kind=st.sampled_from(["cluster3", "joint_full"]),
       pols=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), b0=st.floats(0.0, 0.4),
       taus=st.lists(st.floats(2e-5, 3e-4), min_size=1, max_size=5),
       delta=st.sampled_from([0.0, 3e-6]))
def test_real_transfer_products_keep_the_complex_product_bits(cluster, kind, pols, b0, taus,
                                                              delta):
    # Y = X e^{-i E_d t} X^T of a real X as two real products equals the
    # complex product (x e) @ x^T bit for bit, for the row cells (E_d) and the
    # spectrum cells (2 E_d); so do the half-period images W_d Phi of the
    # real modes of the row cells.
    ch = cluster_pair(cluster, kind, pols, b0)
    t = np.array(taus) + delta
    for stack in ch.sectors[1:]:
        assert not np.iscomplexobj(stack.transfer)
        j, tt = sector_cells(stack, t)
        for energies_d in (stack.energies_d, 2 * stack.energies_d):
            for block, d_u, y in engine._cell_blocks(stack.energies_u, energies_d,
                                                     stack.transfer, j, tt):
                x = stack.transfer[j[block]]
                phase = np.exp(-1j * energies_d[j[block]] * tt[block, None])[:, None, :]
                want = (x * phase) @ x.conj().swapaxes(-1, -2)
                assert np.array_equal(sign_free_bits(y), sign_free_bits(want))
                if energies_d is stack.energies_d:
                    w_d = y * d_u[:, None, :]
                    _, modes = eig_unitaries((d_u[:, :, None] * y) @ w_d, True)
                    images = engine._real_matmul(w_d.real, w_d.imag, modes)
                    assert np.array_equal(sign_free_bits(images), sign_free_bits(w_d @ modes))


@settings(max_examples=60, deadline=None)
@given(cluster=spin_clusters(max_spins=4), kind=st.sampled_from(["cluster3", "joint_full"]),
       pols=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), b0=st.floats(0.0, 0.4),
       taus=st.lists(st.floats(2e-5, 3e-4), min_size=1, max_size=5, unique=True),
       delta=st.sampled_from([0.0, 3e-6]), n_p=st.integers(0, 100))
def test_one_state_sectors_take_the_general_path_values(cluster, kind, pols, b0, taus, delta,
                                                        n_p):
    # The closed forms of a one-state sector against the general path on the
    # cells _cell_blocks builds for it, bit for bit: the stack ``sectors``
    # gives without eigh, the row values ONE_STATE_VALUES and the tracked
    # spectrum phases (the folded offset phases).
    ch = cluster_pair(cluster, kind, pols, b0)
    stack = ch.sectors[0]  # |u...u> and |d...d> at least
    k, s = stack.index.shape
    assert s == 1 and k >= 2
    blocks = np.stack([ch.h_u, ch.h_d])[:, stack.index[:, 0], stack.index[:, 0]]
    energies, modes = np.linalg.eigh((blocks - blocks.real)[..., None, None])
    assert stack.offsets.tobytes() == blocks.real.T.copy().tobytes()
    assert energies.tobytes() == np.concatenate([stack.energies_u, stack.energies_d]).tobytes()
    assert (modes[0].conj() * modes[1]).real.tobytes() == stack.transfer.tobytes()

    t = np.sort(taus) + delta
    j, tt = sector_cells(stack, t)
    for _, d_u, y in engine._cell_blocks(stack.energies_u, stack.energies_d, stack.transfer,
                                         j, tt):
        values = engine._sector_values(d_u[:, :, None] * y, y * d_u[:, None, :], n_p,
                                       engine.QUANTITIES, True)
        for q, v in values.items():
            assert v.tobytes() == np.full(len(v), engine.ONE_STATE_VALUES[q]).tobytes()

    phases = np.empty(t.size * k)
    for block, d_u, y in engine._cell_blocks(stack.energies_u, 2 * stack.energies_d,
                                             stack.transfer, j, tt):
        cells = d_u[:, :, None] * y * d_u[:, None, :]
        linalg.require_unitary(cells)
        phases[block] = eig_unitaries(cells, True)[0][:, 0]
    # A one-state sector has one mode, so tracking keeps it; the offset is
    # added and the sum folded into (-pi, pi] as for every sector.
    want = -np.angle(np.exp(-1j * (phases.reshape(t.size, k)
                                   + engine._offset_phases(stack.offsets, t))))
    want[want <= -np.pi] += 2 * np.pi
    assert engine._sector_trajectories(stack, t).tobytes() == want.tobytes()
