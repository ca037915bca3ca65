"""The stacked row kernel ``floquet_rows`` against the full-space oracle.

The kernel splits every cell into the sectors of its Hamiltonian pair
(``ConditionalHamiltonians.sectors``) and stacks the cells of equal sector
size over all rows; the SciPy oracle of ``conftest`` works on the full
space, one expm product per tau.
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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import floqsens.engine as engine
import floqsens.linalg as linalg
from conftest import (circular_gap, matched_gap, oracle_cells, oracle_coherence,
                      random_hermitian, schur_floor, schur_modes)
from floqsens import (
    ConditionalHamiltonians,
    NumericalConsistencyError,
    PairSet,
    PairTarget,
    SpinCluster,
    SymmetryViolationError,
    ValidationError,
    conditional_cluster_hamiltonians,
    expm_hermitian,
    joint_full_model,
    si_bi,
    spectrum_scan,
)
from floqsens.config import parse_config
from floqsens.engine import floquet_rows
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


def oracle_row(ch, taus, n_p, pulse_duration=0.0):
    """Both quantities at each tau from the full-space oracle cells."""
    w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus, pulse_duration)
    return {"coherence": oracle_coherence(w_u, w_d, n_p), "envelope": schur_floor(w_u, w_d)}


def kernel_row(ch, taus, n_p, quantities=engine.QUANTITIES, pulse_duration=0.0):
    """The one-row call of ``floquet_rows``."""
    return {q: v[0] for q, v in floquet_rows([ch], taus, n_p, quantities,
                                             pulse_duration).items()}


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
    got = kernel_row(ch, taus, n_p, quantities, pulse_duration=pulse_duration)
    want = oracle_row(ch, taus, n_p, pulse_duration)
    assert set(got) == set(quantities)
    for quantity in quantities:
        np.testing.assert_allclose(got[quantity], want[quantity], rtol=0, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1),
       taus=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4, unique=True),
       n_p=st.integers(1, 4))
def test_short_rows_match_the_oracle_to_rounding(dim, seed, taus, n_p):
    # A few short cells whose phases lie 0.05 rad apart or more: the kernel
    # and the oracle agree to about 1e-14 (6.8e-14 at worst in 3000 random
    # rows), so an error of 1e-12 in one sector's value cannot hide under
    # the tolerance.
    rng = np.random.default_rng(seed)
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus)
    phases = schur_modes(w_u @ w_d)[0]
    assume(all(circular_gap(p, p)[np.triu_indices(dim, 1)].min() >= 0.05 for p in phases))
    got = kernel_row(ch, taus, n_p)
    assert np.abs(got["coherence"] - oracle_coherence(w_u, w_d, n_p)).max() <= 2e-13
    assert np.abs(got["envelope"] - schur_floor(w_u, w_d)).max() <= 2e-13


def test_quantity_values_do_not_depend_on_the_request(rng):
    ch = ConditionalHamiltonians(random_hermitian(8, rng), random_hermitian(8, rng))
    taus = np.linspace(0.05, 2.0, 40)
    both = kernel_row(ch, taus, 30)
    for quantity in ("coherence", "envelope"):
        alone = kernel_row(ch, taus, 30, (quantity,))
        assert alone[quantity].tobytes() == both[quantity].tobytes()


def test_degenerate_phases_match_the_schur_oracle(rng):
    ch = doubled(rng)
    taus = np.array([0.1, 0.7, 1.3])
    want = oracle_row(ch, taus, 12, 0.05)
    got = kernel_row(ch, taus, 12, pulse_duration=0.05)
    np.testing.assert_allclose(got["envelope"], want["envelope"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got["coherence"], want["coherence"], rtol=0, atol=ATOL)


def test_symmetric_cluster3_envelope_does_not_depend_on_the_basis():
    # Two equal hyperfine couplings and equal flip-flops: every cell of the
    # tau axis has degenerate eigenphases.  Pairing arbitrary bases inside
    # the clusters read up to 2.4e-2 off.
    cfg = parse_config({
        "system": {"kind": "cluster3", "p_u": 0.3, "p_d": -0.5,
                   "cluster": {"a_rad_s": [1e5, 1e5, 0.0],
                               "c_rad_s": [[0.0, 1e3, 1e3], [1e3, 0.0, 1e3],
                                           [1e3, 1e3, 0.0]]}},
        "sequence": {"n_p": 100},
        "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 300}}})
    data = compute_trace(cfg)
    ch = conditional_cluster_hamiltonians(cfg.system, 0.3, -0.5)
    oracle = oracle_row(ch, data.taus, 100, 0.0)
    np.testing.assert_allclose(data.envelope, oracle["envelope"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(data.coherence, oracle["coherence"], rtol=0, atol=ATOL)


@pytest.mark.parametrize("seed", range(5))
def test_floor_does_not_see_rotations_inside_a_cluster(seed, monkeypatch):
    # Both quantities from modes mixed at random inside every cluster of
    # equal phases: the floor within 1e-12 of the Schur oracle, the coherence
    # at n_p = 100 and 10^4 within ATOL of matrix powers, and each within
    # 1e-13 of the values from the unrotated modes.
    rng = np.random.default_rng(seed)
    ch = doubled(rng, dim=2 + seed % 3)
    taus = np.array([0.3, 0.9, 1.6])
    w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus)
    plain = {n_p: engine._sector_values(w_u, w_d, n_p, engine.QUANTITIES, False)
             for n_p in (100, 10 ** 4)}
    original = engine.eig_unitaries

    def rotated(cells, symmetric):
        phases, modes = original(cells, symmetric)
        return phases, np.stack([rotate_in_clusters(p, m, rng) for p, m in zip(phases, modes)])

    monkeypatch.setattr(engine, "eig_unitaries", rotated)
    assert engine._floquet_modes(w_u @ w_d, w_d @ w_u, w_d, False)[3].max() < 1e-12
    for n_p, unrotated in plain.items():
        got = engine._sector_values(w_u, w_d, n_p, engine.QUANTITIES, False)
        want = oracle_row(ch, taus, n_p)
        np.testing.assert_allclose(got["envelope"] / ch.dim - 1.0, want["envelope"], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(got["coherence"] / ch.dim, want["coherence"], rtol=0,
                                   atol=ATOL)
        for q, v in got.items():
            np.testing.assert_allclose(v / ch.dim, unrotated[q] / ch.dim, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 8, 16])
@pytest.mark.parametrize("n", [1, 50, 257])
def test_forced_power_drift_is_corrected_matrix_by_matrix(rng, dim, n):
    # The kernel's coherence from Floquet modes against matrix powers.
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    taus = np.array([0.2, 0.9, 1.7])
    got = kernel_row(ch, taus, n, ("coherence",))["coherence"]
    np.testing.assert_allclose(got, oracle_row(ch, taus, n, 0.0)["coherence"], rtol=0, atol=ATOL)


def test_long_rows_are_built_in_blocks(rng):
    dim = 16
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    taus = np.linspace(0.05, 2.0, 150)
    (stack,) = ch.sectors
    blocks = [block for block, _, _ in engine._cell_blocks(
        stack.energies_u, stack.energies_d, stack.transfer, np.zeros(150, dtype=int), taus)]
    assert len(blocks) > 1
    assert max(b.stop - b.start for b in blocks) * 16 * dim ** 2 <= linalg.BLOCK_BYTES
    assert [i for b in blocks for i in range(150)[b]] == list(range(150))
    want = oracle_row(ch, taus[::37], 20, 0.0)
    got = kernel_row(ch, taus, 20)
    for quantity in want:
        np.testing.assert_allclose(got[quantity][::37], want[quantity], rtol=0, atol=ATOL)


def test_cells_match_unit_cell_with_intra_pulse_hamiltonian(rng):
    # The oracle stacks its pulse factor like a scipy.linalg.expm product
    # per tau, T_u2 = T_u T_pi T_d T_d T_pi T_u; a pulse factor of 1 is the
    # ideal cell at tau, which the kernel's cells share their phases with.
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    h_pulse = random_hermitian(4, rng)
    taus = np.array([0.05, 0.3, 0.7, 1.1, 2.4])
    t_pi = scipy.linalg.expm(-1j * h_pulse * 0.04)
    w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus, 0.02, h_pulse)
    r_u, r_d = oracle_cells(ch.h_u, ch.h_d, taus, 0.02, np.zeros((4, 4)))
    scan = spectrum_scan(ch, taus)
    for k, tau in enumerate(taus):
        t_u = scipy.linalg.expm(-1j * ch.h_u * tau)
        t_d = scipy.linalg.expm(-1j * ch.h_d * tau)
        np.testing.assert_allclose(w_u[k] @ w_d[k], t_u @ t_pi @ t_d @ t_d @ t_pi @ t_u,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_d[k] @ w_u[k], t_d @ t_pi @ t_u @ t_u @ t_pi @ t_d,
                                   rtol=0, atol=1e-12)
        assert matched_gap(scan.phases[k], schur_modes(r_u[k] @ r_d[k])[0]) < 1e-12


@pytest.mark.parametrize("dim", [2, 8, 16])
@pytest.mark.parametrize("pulse", ["ideal", "delta", "intra_pulse"])
def test_unit_cell_equals_the_stacked_cell_bit_for_bit(rng, dim, pulse):
    # A one-tau call gives the bits of the same tau in a stacked call.  With
    # 'intra_pulse' the stacked call takes the pulse window into the free
    # interval itself, tau + delta with delta 0, which is the same cell.
    ch = ConditionalHamiltonians(random_hermitian(dim, rng), random_hermitian(dim, rng))
    delta = 0.0 if pulse == "ideal" else 0.03
    taus = np.sort(rng.uniform(0.01, 3.0, 40))
    stacked = (kernel_row(ch, taus + delta, 5) if pulse == "intra_pulse"
               else kernel_row(ch, taus, 5, pulse_duration=delta))
    for k in range(taus.size):
        one = kernel_row(ch, taus[k:k + 1], 5, pulse_duration=delta)
        for q, v in one.items():
            assert v.tobytes() == stacked[q][k:k + 1].tobytes()


def test_errors_name_the_tau_point(rng, monkeypatch):
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    with pytest.raises(ValidationError, match=r"^tau\[2\] = -1: "):
        kernel_row(ch, [0.1, 0.2, -1.0], 5)
    with pytest.raises(ValidationError, match="n_p must be"):
        kernel_row(ch, [0.1], -1)
    with pytest.raises(ValidationError, match="unknown quantities"):
        kernel_row(ch, [0.1], 5, ("phase",))
    monkeypatch.setattr(engine, "PHASE_MATCH_TOL", -1.0)
    with pytest.raises(SymmetryViolationError, match=r"^tau\[0\] = 0\.1: u/d eigenphase"):
        kernel_row(ch, [0.1, 0.2], 5, ("envelope",))


@pytest.mark.parametrize("quantities", [("coherence",), ("envelope",)],
                         ids=["coherence", "envelope"])
def test_corrupted_half_period_names_the_tau_point(rng, monkeypatch, quantities):
    # A W_d rotated at one tau no longer satisfies T_d2 = W_d W_u there, and
    # its images are no d-modes: both quantities stand on that check.
    ch = ConditionalHamiltonians(random_hermitian(4, rng), random_hermitian(4, rng))
    kick = expm_hermitian(random_hermitian(4, rng), 1e-3)
    original = engine._floquet_modes

    def corrupted(t_u2, t_d2, w_d, symmetric):
        w_d = w_d.copy()
        w_d[1] = w_d[1] @ kick
        return original(t_u2, t_d2, w_d, symmetric)

    monkeypatch.setattr(engine, "_floquet_modes", corrupted)
    with pytest.raises(SymmetryViolationError, match=r"^tau\[1\] = 0\.7: u/d eigenphase"):
        kernel_row(ch, [0.1, 0.7, 1.3], 5, quantities)


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
            kernel_row(ch, taus, 1, ("envelope",))
    named = re.fullmatch(r"tau\[(\d+)\] = (\S+): Cayley transform exceeds 1e\+00 at every "
                         r"cut tried", str(failure.value))
    assert named, str(failure.value)
    i = int(named[1])
    assert i >= linalg.BLOCK_BYTES // (16 * ch.dim ** 2)
    assert named[2] == f"{taus[i]:g}"
    w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus[i:i + 1])
    with pytest.raises(NumericalConsistencyError):
        linalg.eig_unitaries(w_u @ w_d)


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
        want = oracle_row(offset_free(ch) if kind == "joint_full" else ch, taus, n_p, delta)
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
    w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus, delta)
    for i, (tau, phases) in enumerate(zip(taus, schur_modes(w_u @ w_d)[0])):
        phase = 4 * ch.spectral_radius * (tau + delta)
        assert matched_gap(scan.phases[i], phases) <= (SPECTRUM_ATOL + SPECTRUM_EPS
                                                       * np.finfo(float).eps * phase)


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
        assert matched_gap(got, want) <= 1e-12
    assert engine._floquet_modes(t_u2, t_d2, w_d, True)[3].max() <= 1e-12
    real, complex_ = (engine._sector_values(w_u, w_d, 1, ("envelope",), symmetric)["envelope"]
                      for symmetric in (True, False))
    np.testing.assert_allclose(real / d, complex_ / d, rtol=0, atol=1e-12)  # the floors


@st.composite
def complex_sector_cells(draw):
    """(W_u, W_d) for the cells of one random complex sector pair, 2 <= d <= 8,
    from the engine's cell builder."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(2, 8))
    (stack,) = ConditionalHamiltonians(random_hermitian(dim, rng),
                                       random_hermitian(dim, rng)).sectors
    taus = rng.uniform(0.05, 2.0, 6)
    _, d_u, y = next(engine._cell_blocks(stack.energies_u, stack.energies_d, stack.transfer,
                                         np.zeros(taus.size, dtype=int), taus))
    return d_u[:, :, None] * y, y * d_u[:, None, :]


@settings(max_examples=200, deadline=None)
@given(real=real_sector_cells(), complex_cells=complex_sector_cells(),
       n_p=st.sampled_from([1, 100, 10 ** 4]) | st.integers(1, 10 ** 4))
def test_sector_coherence_matches_matrix_powers(real, complex_cells, n_p):
    # Coherence from the Floquet modes of generic, degenerate and near-pi
    # real sectors (real and complex eigensolver) and of complex sectors,
    # against np.linalg.matrix_power of the same cells.  A phase error dE
    # moves the coherence by at most 2 n_p dE; with dE up to 32 eps the
    # bound is 1e-13 + 64 eps n_p, 1.4e-10 at n_p = 10^4.  The largest miss
    # seen in 5500 draws was 31 eps n_p.
    for w_u, w_d, paths in ((real[0], real[1], (True, False)), (*complex_cells, (False,))):
        want = oracle_coherence(w_u, w_d, n_p)
        for symmetric in paths:
            got = engine._sector_values(w_u, w_d, n_p, ("coherence",), symmetric)["coherence"]
            assert np.abs(got / w_u.shape[-1] - want).max() <= (
                1e-13 + 64 * np.finfo(float).eps * n_p)


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
        worst = max(worst, matched_gap(scan.phases[row], np.array(want)))
    assert worst <= 1e-13
    assert 10 * worst <= plain


def offset_free(ch):
    """``ch`` without the donor level energy E on its diagonal, subtracted exactly.

    E 1 is a global phase of each branch and cancels in both quantities,
    but at about 2e10 rad/s it leaves the full-space Hamiltonians a phase
    resolution of only about eps E t: full-space cells then miss an
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
    got = kernel_row(ch, taus, 40)
    want = oracle_row(ch, taus, 40, 0.0)
    np.testing.assert_allclose(got["envelope"], want["envelope"], rtol=0, atol=1e-12)
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
                    images = linalg.matmul(w_d, modes)
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
