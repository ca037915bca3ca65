"""Mode tracking of ``spectrum_scan`` and the smallest phase gap against their all-pairs oracles."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import floqsens.engine as engine
import floqsens.linalg as linalg
from floqsens import ConditionalHamiltonians, SpinCluster, conditional_cluster_hamiltonians, \
    eig_unitary, expm_hermitian, joint_full_model, si_bi, spectrum_scan
from floqsens.engine import TRACKING_OVERLAP, _cell_blocks, _circular_gap, _offset_phases, \
    _smallest_gap
from floqsens.linalg import eig_unitaries
from floqsens.sensors import donor_pair_polarizations
from conftest import random_hermitian

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def all_pairs_gap(phases):
    """Smallest circular gap over every pair of phases (the O(D^2) oracle)."""
    gaps = _circular_gap(phases, phases)
    d = phases.shape[-1]
    gaps[..., np.arange(d), np.arange(d)] = np.inf
    return gaps.min(axis=(-2, -1))


def per_tau_scan(ch, taus, pulse_duration=0.0, gap_threshold=1e-2):
    """(phases, crossings) with one linear_sum_assignment per tau and sector (the tracking oracle).

    Each sector's cells T_u2 = D_u Y(2 tau) D_u come from the engine's cell
    builder one sector at a time and are solved as the scan solves them
    (real arithmetic for a real sector), and the offset phase is the
    engine's reduction (checked against mpmath in test_kernel), so the
    phases equal the scan's wherever the tracking agrees.
    """
    t = taus + pulse_duration
    columns = []
    for stack in ch.sectors:
        k, s = stack.index.shape
        symmetric = not np.iscomplexobj(stack.transfer)
        offsets = _offset_phases(stack.offsets, t)
        for b in range(k):
            phases = np.empty((taus.size, s))
            prev_modes = None
            order = np.arange(s)
            for block, d_u, y in _cell_blocks(stack.energies_u, 2 * stack.energies_d,
                                              stack.transfer, np.full(taus.size, b), t):
                block_phases, block_modes = eig_unitaries(d_u[:, :, None] * y * d_u[:, None, :],
                                                          symmetric)
                for i, cell_phases, modes in zip(range(block.start, block.stop),
                                                 block_phases, block_modes):
                    if prev_modes is not None:
                        affinity = np.abs(prev_modes.conj().T @ modes)
                        rows, cols = linear_sum_assignment(-affinity)
                        order = np.empty(s, dtype=int)
                        order[rows] = cols
                    phases[i] = cell_phases[order]
                    prev_modes = modes[:, order]
            # The sector's offset phase 2 (c_u + c_d) t, folded into (-pi, pi].
            phases = -np.angle(np.exp(-1j * (phases + offsets[:, b, None])))
            phases[phases <= -np.pi] += 2 * np.pi
            columns.append(phases)
    phases = np.concatenate(columns, axis=1)
    phases = phases[:, np.argsort(phases[0], kind="stable")]
    return phases, all_pairs_gap(phases) < gap_threshold


def counting_fallbacks(monkeypatch):
    """A list that gets one entry per tau that spectrum_scan hands to linear_sum_assignment."""
    calls = []
    original = engine._assign_modes

    def counted(prev_modes, modes):
        calls.append(1)
        return original(prev_modes, modes)

    monkeypatch.setattr(engine, "_assign_modes", counted)
    return calls


def assert_matches_oracle(ch, taus, pulse_duration=0.0):
    scan = spectrum_scan(ch, taus, pulse_duration=pulse_duration)
    phases, crossings = per_tau_scan(ch, taus, pulse_duration)
    assert scan.phases.tobytes() == phases.tobytes()
    assert np.array_equal(scan.crossings, crossings)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1), b0=st.floats(0.05, 0.35),
       joint=st.booleans(), start=st.floats(1e-6, 2e-5), span=st.floats(1e-5, 3e-4),
       count=st.integers(2, 150), pulse_duration=st.sampled_from([0.0, 1e-6]))
@example(n=3, seed=0, b0=0.15, joint=False, start=1e-6, span=1.59e-4, count=25, pulse_duration=0.0)
def test_tracking_matches_per_tau_assignment(n, seed, b0, joint, start, span, count,
                                             pulse_duration):
    # Coarse grids let modes mix between neighbouring tau and take the fallback.
    rng = np.random.default_rng(seed)
    c = np.triu(rng.uniform(-3e3, 3e3, (n, n)), 1)
    cluster = SpinCluster(a=rng.uniform(-2e5, 2e5, n), c=c + c.T)
    ch = joint_full_model(si_bi(), cluster, b0) if joint else \
        conditional_cluster_hamiltonians(cluster, *donor_pair_polarizations(si_bi(), b0))
    assert_matches_oracle(ch, np.linspace(start, start + span, count), pulse_duration)


def test_coarse_shipped_grid_takes_the_fallback(monkeypatch):
    # The shipped cluster3 spectrum on 25 tau: modes mix at least once, and
    # the 500-tau grid it ships with never needs the assignment solver.
    doc = json.loads((CONFIGS / "cluster3_spectrum.json").read_text())
    cluster = SpinCluster(a=np.array(doc["system"]["cluster"]["a_rad_s"]),
                          c=np.array(doc["system"]["cluster"]["c_rad_s"]))
    ch = conditional_cluster_hamiltonians(
        cluster, *donor_pair_polarizations(si_bi(), doc["system"]["b0_tesla"]))
    axis = doc["axes"]["tau_s"]
    calls = counting_fallbacks(monkeypatch)
    assert_matches_oracle(ch, np.linspace(axis["start"], axis["stop"], 25))
    assert calls
    calls.clear()
    assert_matches_oracle(ch, np.linspace(axis["start"], axis["stop"], axis["count"]))
    assert not calls


@pytest.mark.parametrize("budget", [0, 16 * 9 * 3, 5000])
def test_tracking_carries_each_sector_across_blocks(monkeypatch, budget):
    # Blocks of one cell, of three (a tau split between blocks) and of 34
    # continue each sector from the last cell of the block before.
    ch = conditional_cluster_hamiltonians(
        SpinCluster([1.8e5, 0.0, 1e5], [[0.0, 1.05e3, 2.2e3], [1.05e3, 0.0, 1.05e3],
                                        [2.2e3, 1.05e3, 0.0]]), 0.3, -0.5)
    taus = np.linspace(2e-5, 3.2e-4, 60)
    whole = spectrum_scan(ch, taus)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
    assert spectrum_scan(ch, taus).phases.tobytes() == whole.phases.tobytes()
    assert_matches_oracle(ch, taus)


def test_degenerate_cells_match_oracle(rng):
    # Identical conditional Hamiltonians with a doubly degenerate spectrum:
    # inside a degenerate pair the solver's modes are any basis.
    h = random_hermitian(3, rng)
    zero = np.zeros((3, 3))
    doubled = np.block([[h, zero], [zero, h]])
    assert_matches_oracle(ConditionalHamiltonians(doubled, doubled), np.linspace(0.01, 3.0, 40))


@pytest.mark.parametrize("seed", range(4))
def test_a_crossing_between_sectors_is_a_true_crossing(monkeypatch, seed):
    # Sector {3, 4, 5} is sector {0, 1, 2} with both Hamiltonians shifted by
    # pi/2: its cells carry the extra phase 4 (pi/2) tau, and at tau = 1 all
    # of its phases cross those of the other sector exactly.
    rng = np.random.default_rng(seed)
    a_u, a_d = random_hermitian(3, rng), random_hermitian(3, rng)
    zero, shift = np.zeros((3, 3)), np.pi / 2 * np.eye(3)
    ch = ConditionalHamiltonians(np.block([[a_u, zero], [zero, a_u + shift]]),
                                 np.block([[a_d, zero], [zero, a_d + shift]]))
    taus = np.linspace(0.5, 1.5, 201)
    crossing = 100
    assert taus[crossing] == 1.0
    calls = counting_fallbacks(monkeypatch)
    scan = spectrum_scan(ch, taus)
    assert not calls
    assert scan.crossings[crossing] and scan.min_gaps[crossing] < 1e-14
    # Each column follows the eigenphases of one sector over the whole scan
    # (an independent expm product per sector and tau), so its mode has no
    # weight outside that sector; each sector owns three columns.
    sectors = []
    for h_u, h_d in ((a_u, a_d), (a_u + shift, a_d + shift)):
        cells = [scipy.linalg.expm(-1j * h_u * tau) @ scipy.linalg.expm(-2j * h_d * tau)
                 @ scipy.linalg.expm(-1j * h_u * tau) for tau in taus]
        sectors.append(np.stack([eig_unitary(cell).phases for cell in cells]))
    owners = []
    for column in scan.phases.T:
        owner = [b for b, phases in enumerate(sectors)
                 if (_circular_gap(column[:, None], phases)[:, 0].min(axis=-1) < 1e-12).all()]
        assert len(owner) == 1
        owners += owner
    assert sorted(owners) == [0, 0, 0, 1, 1, 1]


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.0, 1.0))
def test_clear_row_maxima_are_the_assignment(dim, seed, scale):
    # A unitary whose every row has an entry above TRACKING_OVERLAP in
    # magnitude: the row argmaxes are the optimal assignment.
    rng = np.random.default_rng(seed)
    u = np.eye(dim)[rng.permutation(dim)] @ expm_hermitian(random_hermitian(dim, rng), scale)
    overlaps = np.abs(u)
    if not (overlaps.max(axis=1) > TRACKING_OVERLAP).all():
        return
    rows, cols = linear_sum_assignment(-overlaps)
    assert np.array_equal(overlaps.argmax(axis=1)[rows], cols)


wrap = st.sampled_from([np.pi, -np.pi, np.nextafter(np.pi, 0), np.nextafter(-np.pi, 0),
                        0.0, -0.0, 1e-300])
phase = st.floats(-np.pi, np.pi) | wrap


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(1, 10).flatmap(lambda d: st.lists(
    st.lists(phase, min_size=d, max_size=d), min_size=1, max_size=4)))
@example(rows=[[np.pi, -np.nextafter(np.pi, 0)]])            # across the +-pi cut
@example(rows=[[0.3, -2.0, 3.1, -3.1, 0.3]])                # unsorted, one exact degeneracy
@example(rows=[[1.0, 1.0, 1.0], [-np.pi, np.pi, 0.0]])      # all degenerate; -pi is +pi
@example(rows=[[2.5]])                                      # D = 1: no gap
def test_smallest_gap_equals_all_pairs(rows):
    phases = np.array(rows)
    got = _smallest_gap(phases)
    assert got.tobytes() == all_pairs_gap(phases).tobytes()
    if phases.shape[-1] == 1:
        assert np.all(got == np.inf)
