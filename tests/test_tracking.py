"""Mode tracking of ``spectrum_scan`` and the smallest phase gap against their all-pairs oracles."""

import json
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import floqsens.engine as engine
from floqsens import ConditionalHamiltonians, SpinCluster, conditional_cluster_hamiltonians, \
    expm_hermitian, joint_full_model, si_bi, spectrum_scan
from floqsens.engine import TRACKING_OVERLAP, _circular_gap, _half_period_blocks, _smallest_gap
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
    """(phases, crossings) with one linear_sum_assignment per tau (the tracking oracle)."""
    d = ch.dim
    phases = np.empty((taus.size, d))
    min_gaps = np.empty(taus.size)
    prev_modes = None
    order = np.arange(d)
    for block, w_u, w_d in _half_period_blocks(ch, taus, pulse_duration):
        block_phases, block_modes = eig_unitaries(w_u @ w_d)
        for i, cell_phases, modes in zip(range(block.start, block.stop),
                                         block_phases, block_modes):
            if prev_modes is not None:
                affinity = np.abs(prev_modes.conj().T @ modes)
                rows, cols = linear_sum_assignment(-affinity)
                order = np.empty(d, dtype=int)
                order[rows] = cols
            phases[i] = cell_phases[order]
            prev_modes = modes[:, order]
        min_gaps[block] = all_pairs_gap(phases[block])
    return phases, min_gaps < gap_threshold


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


def test_degenerate_cells_match_oracle(rng):
    # Identical conditional Hamiltonians with a doubly degenerate spectrum:
    # inside a degenerate pair the solver's modes are any basis.
    h = random_hermitian(3, rng)
    zero = np.zeros((3, 3))
    doubled = np.block([[h, zero], [zero, h]])
    assert_matches_oracle(ConditionalHamiltonians(doubled, doubled), np.linspace(0.01, 3.0, 40))


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
