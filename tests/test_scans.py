import errno
import itertools
import json
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floqsens import ValidationError, floquet_phase, scans
from floqsens.config import parse_config
from floqsens.engine import floquet_rows, spectrum_scan
from floqsens.scans import FORMAT_ARRAY_MIN, _format_floats, _json_text, compute_trace, \
    field_rows, run_dips, run_map, run_spectrum, run_trace, write_csv, write_pgm
from conftest import (circular_gap, matched_gap, near_crossing, oracle_cells, oracle_coherence,
                      schur_modes, two_state_hamiltonians)


def pseudospin_cfg(**over):
    raw = {
        "system": {"kind": "pseudospin",
                   "h_u": {"x_rad_s": 1.4e4, "z_rad_s": 4.2e4},
                   "h_d": {"x_rad_s": 1.4e4, "z_rad_s": -2.2e4}},
        "sequence": {"n_p": 10},
        "axes": {"tau_s": {"start": 2e-6, "stop": 2.4e-4, "count": 60}},
    }
    raw.update(over)
    return parse_config(raw)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestTrace:
    def test_identical_fields_all_unity(self, tmp_path):
        cfg = pseudospin_cfg(system={
            "kind": "pseudospin",
            "h_u": {"x_rad_s": 1.4e4, "z_rad_s": 4.2e4},
            "h_d": {"x_rad_s": 1.4e4, "z_rad_s": 4.2e4}})
        run_trace(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["tau_s", "coherence", "envelope"]
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_matches_numeric_engine(self, tmp_path):
        cfg = pseudospin_cfg()
        data = compute_trace(cfg)
        model = cfg.system
        ch = two_state_hamiltonians([model])
        ref = oracle_coherence(*oracle_cells(ch.h_u, ch.h_d, data.taus[::7]), 10)
        np.testing.assert_allclose(data.coherence[::7], ref, rtol=0, atol=1e-9)

    def test_trace_rejects_field_axis(self, tmp_path):
        cfg = pseudospin_cfg(axes={
            "tau_s": {"start": 2e-6, "stop": 2.4e-4, "count": 10},
            "row_index": {"start": 0, "stop": 1, "count": 2}})
        from floqsens import ConfigError
        with pytest.raises(ConfigError):
            run_trace(cfg, tmp_path)

    def test_donor_pair_trace_dip_near_avg_estimate(self, tmp_path):
        from floqsens import avg_hamiltonian_dip, donor_pair_polarizations, PairTarget, si_bi
        model = PairTarget(delta_a=180e3, c12=1.8e3).two_state(
            *donor_pair_polarizations(si_bi(), 0.15))
        tau_bar = avg_hamiltonian_dip(model)
        raw = {
            "system": {"kind": "donor_pair", "donor": "si_bi",
                       "pair": {"delta_a_rad_s": 180e3, "c12_rad_s": 1.8e3},
                       "b0_tesla": 0.15},
            "sequence": {"n_p": 20},
            "axes": {"tau_s": {"start": 0.7 * tau_bar, "stop": 1.3 * tau_bar,
                               "count": 1200}},
        }
        cfg = parse_config(raw)
        data = compute_trace(cfg)
        tau_min = data.taus[int(np.argmin(data.envelope))]
        assert abs(tau_min - tau_bar) / tau_bar < 0.01


class TestRequestedQuantities:
    @pytest.mark.parametrize("system", [
        {"kind": "pseudospin", "h_u": {"x_rad_s": 1.4e4, "z_rad_s": 4.2e4},
         "h_d": {"x_rad_s": 1.4e4, "z_rad_s": -2.2e4}},
        {"kind": "donor_pair", "donor": "si_bi", "b0_tesla": 0.15,
         "pair": {"delta_a_rad_s": 180e3, "c12_rad_s": 1.8e3}},
        {"kind": "independent_pairs", "donor": "si_bi", "b0_tesla": 0.15,
         "pairs": [{"delta_a_rad_s": 180e3, "c12_rad_s": 1.05e3},
                   {"delta_a_rad_s": -100e3, "c12_rad_s": 2.2e3}]}])
    def test_two_state_computes_only_what_is_asked(self, system):
        cfg = pseudospin_cfg(system=system, sequence={"n_p": 20, "pulse_duration_s": 1e-7})
        both = compute_trace(cfg)
        for quantity in ("coherence", "envelope"):
            other = "envelope" if quantity == "coherence" else "coherence"
            one = compute_trace(cfg, None, (quantity,))
            assert getattr(one, other) is None
            assert getattr(one, quantity).tobytes() == getattr(both, quantity).tobytes()
            assert (field_rows(cfg, [None], (quantity,))[1] == field_rows(cfg, [None])[1]
                    == field_rows(cfg, [None], ())[1])


@st.composite
def pair_sets_across_a_crossing(draw):
    """(pair docs, p_u, p_d, tau axis, index of the crossing pair).

    One pair has w_u = m_u scale and w_d = m_d scale with m_u + m_d odd,
    a true crossing E(s0) = pi at s0 = pi / (2 scale) (the construction of
    the analytic-vs-numeric test in test_pseudospin).  The tau axis runs
    from a relative offset of 1e-5..4e-5 next to s0, where |cos(E/2)| < 1e-3
    (pi - E <= 2 (w_u + w_d) s0 4e-5 <= 1.4e-3), to 5-30 % away from it.  Closer to s0 the joint eigenvectors of the near-degenerate
    levels lose more than 1e-9 to rounding.
    """
    m_small = draw(st.integers(1, 4))
    m_big = m_small + draw(st.sampled_from([1, 3]))
    p_big = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1, 1]))
    # |p_small / p_big| < m_small / m_big keeps c12^2 below positive
    p_small = (p_big * draw(st.floats(0.05, 0.95)) * m_small / m_big
               * draw(st.sampled_from([-1, 1])))
    scale = draw(st.floats(0.3, 3.0))
    # w_i = |(c12, delta_a p_i)| / 4 = m_i scale
    span = p_big ** 2 - p_small ** 2
    delta_a = 4 * scale * math.sqrt((m_big ** 2 - m_small ** 2) / span)
    c12 = 4 * scale * math.sqrt((m_small ** 2 * p_big ** 2 - m_big ** 2 * p_small ** 2) / span)
    p_u, p_d = (p_small, p_big) if draw(st.booleans()) else (p_big, p_small)
    crossing = {"delta_a_rad_s": delta_a * draw(st.sampled_from([-1, 1])),
                "c12_rad_s": c12 * draw(st.sampled_from([-1, 1]))}
    others = draw(st.lists(st.fixed_dictionaries({
        "delta_a_rad_s": st.floats(-6.0, 6.0).map(lambda v: v * scale),
        "c12_rad_s": st.floats(0.2, 3.0).map(lambda v: v * scale)}), max_size=3))
    index = draw(st.integers(0, len(others)))
    pairs = others[:index] + [crossing] + others[index:]
    s0 = math.pi / (2.0 * scale)
    side = draw(st.sampled_from([-1, 1]))
    near = s0 * (1.0 + side * draw(st.floats(1e-5, 4e-5)))
    far = s0 * (1.0 - side * draw(st.floats(0.05, 0.3)))
    axis = {"start": min(near, far), "stop": max(near, far), "count": draw(st.integers(2, 12))}
    return pairs, p_u, p_d, axis, index


def joint_spectrum_is_simple(models, taus, crossing, tol=1e-3):
    """Whether no signed sum sum_k m_k E_k, m_k in {-1, 0, 1}, is within tol of
    a multiple of pi, except those of the crossing pair alone.

    The joint cell eigenphases are the sums +-E_1 +- E_2 ...; such a sum
    makes two of them coincide, and the joint envelope floor of a
    degenerate spectrum depends on the eigenbasis the engine picks.
    """
    phases = np.array([floquet_phase(m, taus) for m in models])
    for signs in itertools.product((-1, 0, 1), repeat=len(models)):
        if not any(m for k, m in enumerate(signs) if k != crossing):
            continue
        total = np.asarray(signs) @ phases
        if (np.abs(np.remainder(total + math.pi / 2, math.pi) - math.pi / 2) < tol).any():
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(case=pair_sets_across_a_crossing(), n_p=st.integers(1, 60))
def test_pair_product_matches_joint_kernel(case, n_p):
    pairs, p_u, p_d, axis, index = case
    cfg = parse_config({
        "system": {"kind": "independent_pairs", "pairs": pairs, "p_u": p_u, "p_d": p_d},
        "sequence": {"n_p": n_p}, "axes": {"tau_s": axis}})
    data = compute_trace(cfg)
    (models,) = field_rows(cfg, [None])[1]
    assume(joint_spectrum_is_simple(models, data.taus, index))
    near = near_crossing(models[index], data.taus)
    assert near.any() and not near.all()
    ch = two_state_hamiltonians(cfg.system.two_state_models(p_u, p_d))
    joint = {q: v[0] for q, v in floquet_rows([ch], data.taus, n_p).items()}
    assert np.abs(data.coherence - joint["coherence"]).max() <= 1e-9
    assert np.abs(data.envelope - joint["envelope"]).max() <= 1e-9


@pytest.mark.parametrize("tau", [1.0, 1.9635])
def test_coincident_pair_levels_give_the_product_floor(tau):
    # Two equal pairs make joint cell levels coincide at every tau.  While the
    # joint floor depended on the eigenbasis picked inside such a cluster,
    # it read -0.00771837 at tau 1.9635 s against the product -0.00270698.
    pairs = [{"delta_a_rad_s": -7.1554, "c12_rad_s": -3.5777},
             {"delta_a_rad_s": 0.0, "c12_rad_s": 1.0}, {"delta_a_rad_s": 0.0, "c12_rad_s": 1.0}]
    p_u, p_d = -1.0, 0.4946152490554696
    cfg = parse_config({
        "system": {"kind": "independent_pairs", "pairs": pairs, "p_u": p_u, "p_d": p_d},
        "sequence": {"n_p": 1}, "axes": {"tau_s": {"start": tau, "stop": 1.001 * tau,
                                                   "count": 2}}})
    data = compute_trace(cfg)
    ch = two_state_hamiltonians(cfg.system.two_state_models(p_u, p_d))
    joint = {q: v[0] for q, v in floquet_rows([ch], data.taus, 1).items()}
    assert np.abs(data.envelope - joint["envelope"]).max() <= 1e-12


@st.composite
def pair_spectra(draw):
    """A config of 1-4 independent pairs with fixed polarizations, a linear or
    log tau axis and a pulse duration, and its crossing gap."""
    pair = st.fixed_dictionaries({"delta_a_rad_s": st.floats(-2e5, 2e5),
                                  "c12_rad_s": st.floats(1e2, 5e3) | st.floats(-5e3, -1e2)})
    start = draw(st.floats(1e-7, 1e-4))
    doc = {"system": {"kind": "independent_pairs",
                      "pairs": draw(st.lists(pair, min_size=1, max_size=4)),
                      "p_u": draw(st.floats(-1.0, 1.0)), "p_d": draw(st.floats(-1.0, 1.0))},
           "sequence": {"pulse_duration_s": draw(st.sampled_from([0.0, 2e-7, 3e-6]))},
           "axes": {"tau_s": {"start": start, "stop": start * draw(st.floats(1.5, 100.0)),
                              "count": draw(st.integers(2, 60)),
                              "spacing": draw(st.sampled_from(["linear", "log"]))}},
           "output": {"crossing_gap_rad": draw(st.floats(0.0, 0.5))}}
    return parse_config(doc)


@settings(max_examples=60, deadline=None)
@given(cfg=pair_spectra())
def test_closed_form_spectrum_matches_the_engine(cfg):
    # The written phases against those of the engine's spectrum_scan on the
    # joint 2^k space, per tau as sets and, where no two joint phases of a
    # tau are within 1e-6, column by column as tracked.  Equal pairs make
    # joint phases coincide at every tau; the engine's joint modes there are
    # any basis of the degenerate space, and its tracking picks among them.
    # Both sides carry an absolute error of a few eps times the accumulated
    # phase phi (at most 5.8 eps (1 + phi) over 600 draws, 1.05e-12 at
    # phi = 1100).  A one-pair crossing flag, the gap of its two phases, is
    # the engine's.
    with tempfile.TemporaryDirectory() as out:
        run_spectrum(cfg, pathlib.Path(out))
        _, rows = read_csv(pathlib.Path(out) / "spectrum.csv")
    got = np.array([[float(v) for v in row[1:-1]] for row in rows])
    models = scans._two_state_models(cfg, None, cfg.polarizations)
    scan = spectrum_scan(two_state_hamiltonians(models), cfg.tau_axis.values(),
                         cfg.sequence.pulse_duration, cfg.output.crossing_gap)
    phi = 4 * (cfg.tau_axis.stop + cfg.sequence.pulse_duration) * max(
        sum(m.omega_u for m in models), sum(m.omega_d for m in models))
    tol = 32 * np.finfo(float).eps * (1 + phi)
    assert got.shape == scan.phases.shape
    assert max(matched_gap(g, ref) for g, ref in zip(got, scan.phases)) <= tol
    apart = circular_gap(got, got) + np.diag(np.full(got.shape[1], np.inf))
    if apart.min() > 1e-6:
        assert circular_gap(got, scan.phases).diagonal(axis1=1, axis2=2).max() <= tol
    if len(models) == 1:
        assert [int(row[-1]) for row in rows] == scan.crossings.astype(int).tolist()


def test_pair_traces_and_maps_never_build_the_joint_space(tmp_path, monkeypatch):
    # The engine's two kernels are the only consumers of a joint space; pair
    # traces, maps and spectra are closed-form and never reach them.
    def no_engine(*args, **kwargs):
        raise AssertionError("the Floquet engine was called")

    for kernel in ("floquet_rows", "spectrum_scan"):
        monkeypatch.setattr(scans, kernel, no_engine)
    doc = {"system": {"kind": "independent_pairs", "donor": "si_bi", "b0_tesla": 0.15,
                      "pairs": [{"delta_a_rad_s": 180e3, "c12_rad_s": 1.05e3},
                                {"delta_a_rad_s": -100e3, "c12_rad_s": 2.2e3}]},
           "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 20}}}
    run_trace(parse_config(doc), tmp_path / "t")
    run_spectrum(parse_config(doc), tmp_path / "s")
    del doc["system"]["b0_tesla"]
    doc["axes"]["b0_tesla"] = {"start": 0.10, "stop": 0.26, "count": 3}
    for quantity in ("coherence", "envelope"):
        doc["output"] = {"quantity": quantity}
        run_map(parse_config(doc), tmp_path / quantity)


class TestPhaseLimit:
    def test_two_state_trace_rejected(self):
        cfg = pseudospin_cfg(system={"kind": "pseudospin",
                                     "h_u": {"x_rad_s": 1e300, "z_rad_s": 0.0},
                                     "h_d": {"x_rad_s": 0.0, "z_rad_s": 1.0}})
        with pytest.raises(ValidationError, match="accumulated phase"):
            compute_trace(cfg)

    def test_limit_is_two_w_max_times_longest_interval(self):
        # max(w_u, w_d) 4 cells (tau_stop + delta) = 2 |h_u| cells (tau_stop + delta),
        # with n_p = 7 cells when coherence is computed and one cell otherwise.
        # Independent pairs have w = |(c12, delta_a P)| / 4 each and the joint
        # spectral radius max(sum_k w_u,k, sum_k w_d,k): here 0.3 + 0.7 of the
        # limit, which neither pair reaches alone.
        tau_stop, delta = 2.4e-4, 1e-7
        for quantities, cells in ((("envelope",), 1), (("coherence",), 7),
                                  (("coherence", "envelope"), 7)):
            for scale, ok in ((0.999, True), (1.001, False)):
                h_x = scale * 1e12 / (2 * cells * (tau_stop + delta))
                pairs = [{"delta_a_rad_s": 2 * share * h_x, "c12_rad_s": 1.0}
                         for share in (0.3, 0.7)]
                for system in ({"kind": "pseudospin",
                                "h_u": {"x_rad_s": h_x, "z_rad_s": 0.0},
                                "h_d": {"x_rad_s": 1.0, "z_rad_s": 0.0}},
                               {"kind": "independent_pairs", "pairs": pairs,
                                "p_u": 1.0, "p_d": 0.0}):
                    cfg = pseudospin_cfg(
                        system=system, sequence={"n_p": 7, "pulse_duration_s": delta},
                        axes={"tau_s": {"start": 1e-6, "stop": tau_stop, "count": 3}})
                    if ok:
                        compute_trace(cfg, None, quantities)
                    else:
                        with pytest.raises(ValidationError, match="accumulated phase"):
                            compute_trace(cfg, None, quantities)

    def test_dense_limit_uses_spectral_radius_and_cell_length(self, tmp_path):
        # Cell length 4 (tau + delta); H_u = (p_u / 2) A_1 Iz_1 has spectral radius A_1 / 4.
        tau_stop = 1e-4
        for scale, ok in ((0.999, True), (1.001, False)):
            z = scale * 1e12 / (0.25 * 4 * tau_stop)
            cfg = parse_config({
                "system": {"kind": "cluster3",
                           "cluster": {"a_rad_s": [z, 0.0, 0.0],
                                       "c_rad_s": [[0.0] * 3 for _ in range(3)]},
                           "p_u": 1.0, "p_d": -1.0},
                "sequence": {"n_p": 1},
                "axes": {"tau_s": {"start": 1e-6, "stop": tau_stop, "count": 3}}})
            if ok:
                compute_trace(cfg, None, ())
            else:
                with pytest.raises(ValidationError, match="accumulated phase"):
                    compute_trace(cfg, None, ())
                with pytest.raises(ValidationError, match="accumulated phase"):
                    run_spectrum(cfg, tmp_path)
                assert not (tmp_path / "spectrum.csv").exists()

    def test_map_error_names_the_row(self, tmp_path):
        cfg = parse_config({
            "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
            "axes": {"tau_s": {"start": 5e-7, "stop": 3.0e-5, "count": 4},
                     "omega_x_hz": {"start": 1e4, "stop": 1e17, "count": 3}}})
        with pytest.raises(ValidationError, match=r"^row 1 \(field 5e\+16\): "):
            run_map(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


def reference_csv(header, rows):
    """The per-value writer that write_csv replaced, kept as its reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
               1.0, -1.0, 0.1, float("inf"), float("-inf"), float("nan")]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True))
CELLS = {
    "float": FLOATS,
    "numpy": FLOATS.map(np.float64),
    "int": st.integers(-10 ** 20, 10 ** 20),
    "str": st.sampled_from(["floquet_condition", "avg_hamiltonian", "secular_estimate",
                            "100%", "%s", "%.17g", ""]),
}


@st.composite
def csv_tables(draw, n_kinds):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=n_kinds, max_size=n_kinds))
    row = st.tuples(*[CELLS[k] for k in kinds])
    return kinds, draw(st.lists(row, max_size=12))


def csv_columns(kinds, rows):
    """The rows of a csv_tables table as write_csv columns: float cells
    as a float array, any other cells as they are."""
    columns = list(zip(*rows)) or [()] * len(kinds)
    return [np.array(c, dtype=float) if kind in ("float", "numpy") else c
            for kind, c in zip(kinds, columns)]


@st.composite
def map_axes(draw, low, high, max_count):
    """An axis of 2 to ``max_count`` values inside [low, high]: log-spaced
    over up to twelve decades, or linear, which may cross zero when
    ``low`` < 0."""
    count = draw(st.integers(2, max_count))
    if draw(st.booleans()):
        start = draw(st.floats(max(low, 1e-9), high / 10))
        stop = draw(st.floats(start * 10, min(start * 1e12, high)))
        return {"start": start, "stop": stop, "count": count, "spacing": "log"}
    start = draw(st.floats(low, high / 2))
    stop = draw(st.floats(start + abs(start) / 2 + 1e-9, high))
    return {"start": start, "stop": stop, "count": count}


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(table=st.integers(1, 6).flatmap(csv_tables))
    def test_matches_per_value_reference(self, tmp_path_factory, table):
        kinds, rows = table
        header = [f"c{k}" for k in range(len(kinds))]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, header, csv_columns(kinds, rows))
        assert path.read_bytes() == reference_csv(header, rows).encode("utf-8")

    def test_map_layout(self, tmp_path):
        # run_map passes the field and tau cells formatted once per map.
        taus = np.array([1e-6, 2.5e-6, 1e300])
        grid = np.array([[-0.0, 5e-324, 1.0], [np.nan, -1.0, 0.1]])
        fields = np.array([0.05, 0.30000000000000004])
        rows = [(float(f), float(t), float(grid[i, j]))
                for i, f in enumerate(fields) for j, t in enumerate(taus)]
        write_csv(tmp_path / "a.csv", ["f", "t", "v"],
                  (np.repeat(_format_floats(fields), len(taus), axis=0),
                   np.tile(_format_floats(taus), (len(fields), 1)), grid.ravel()))
        assert (tmp_path / "a.csv").read_text() == reference_csv(["f", "t", "v"], rows)

    def test_blocks_are_written_in_bounded_slices(self, tmp_path, monkeypatch):
        # A block above BLOCK_BYTES of floats is laid out in several slices.
        monkeypatch.setattr("floqsens.scans.block_slices",
                            lambda count, item: (slice(i, min(i + 3, count))
                                                 for i in range(0, count, 3)))
        rows = [(0.1 * i, str(i), -1.0 / (i + 1)) for i in range(10)]
        write_csv(tmp_path / "a.csv", ["a", "b", "c"],
                  csv_columns(["float", "str", "float"], rows))
        assert (tmp_path / "a.csv").read_text() == reference_csv(["a", "b", "c"], rows)

    def test_numpy_integer_and_bool_columns(self, tmp_path):
        # NumPy columns other than floats take one astype(bytes) cast: the
        # cells are the str() of their values.
        ints = np.array([0, 1, -7, 2 ** 63 - 1, -2 ** 63], np.int64)
        flags = np.array([True, False, True, True, False])
        wide = np.array([0, 255, 3, 65535, 128], np.uint16)
        write_csv(tmp_path / "a.csv", ["i", "b", "u"], (ints, flags, wide))
        rows = list(zip(ints, flags, wide))
        assert (tmp_path / "a.csv").read_text() == reference_csv(["i", "b", "u"], rows)

    @settings(max_examples=40, deadline=None)
    @given(fields=map_axes(-1e20, 1e20, 40), taus=map_axes(1e-10, 1e3, 700),
           specials=st.lists(st.floats(-1.0, 1.0), max_size=8),
           seed=st.integers(0, 2 ** 32 - 1), budget=st.integers(1, 600))
    def test_map_matches_per_value_reference(self, tmp_path_factory, fields, taus, specials,
                                             seed, budget):
        # Field and tau cells of differing widths (fixed and exponent forms,
        # negatives) in row blocks of at most `budget` lines, on both sides
        # of FORMAT_ARRAY_MIN.
        cfg = pseudospin_cfg(axes={"tau_s": taus, "row_index": fields},
                             output={"quantity": "coherence", "format": "csv"})
        shape = (cfg.field_axis.count, cfg.tau_axis.count)
        rng = np.random.default_rng(seed)
        grid = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-9, 1, shape)
        cells = [0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-5, 1e-7] + specials
        grid.flat[rng.choice(grid.size, min(len(cells), grid.size), replace=False)] = \
            cells[:grid.size]
        out = tmp_path_factory.mktemp("map")
        with mock.patch("floqsens.scans.field_rows",
                        lambda *args: ({"coherence": grid}, None, None)), \
                mock.patch("floqsens.linalg.BLOCK_BYTES", 8 * budget):
            run_map(cfg, out)
        rows = [(float(f), float(t), float(grid[i, j]))
                for i, f in enumerate(cfg.field_axis.values())
                for j, t in enumerate(cfg.tau_axis.values())]
        assert (out / "map.csv").read_text() == \
            reference_csv(["row_index", "tau_s", "coherence"], rows)

    @pytest.mark.parametrize("taus", [3, 10])
    def test_map_is_written_in_bounded_slices(self, tmp_path, monkeypatch, taus):
        # With 7 float cells to a slice, 3 tau values take two rows per
        # chunk and 10 take two chunks per row; map.csv is never one chunk.
        monkeypatch.setattr("floqsens.linalg.BLOCK_BYTES", 8 * 7)
        chunks = []
        write_atomic = scans._write_atomic

        def recording(path, parts):
            parts = [bytes(part) for part in parts]
            if path.name == "map.csv":
                chunks.extend(parts)
            write_atomic(path, parts)

        monkeypatch.setattr(scans, "_write_atomic", recording)
        cfg = pseudospin_cfg(axes={"tau_s": {"start": 2e-6, "stop": 2.4e-4, "count": taus},
                                   "row_index": {"start": -2, "stop": 2, "count": 5}},
                             output={"quantity": "coherence", "format": "csv"})
        run_map(cfg, tmp_path)
        lines = [chunk.count(b"\n") for chunk in chunks[1:]]
        assert max(lines) <= 7 and sum(lines) == 5 * taus
        assert len(lines) == (3 if taus == 3 else 10)
        assert b"".join(chunks) == (tmp_path / "map.csv").read_bytes()


def text(cells):
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def formatted(values):
    """The cells of _format_floats as text, one per value, on its array path:
    the values repeated up to FORMAT_ARRAY_MIN, the first len(values) kept."""
    values = np.asarray(values, dtype=float)
    cells = _format_floats(np.resize(values, max(values.size, FORMAT_ARRAY_MIN)))
    return text(cells[:values.size])


def power_of_ten_neighbours(k):
    p = float(f"1e{k}")
    return [q for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)) for q in (v, -v)]


class TestFormatFloats:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                              st.floats(-1.0, 1.0), st.floats(1e-300, 1e-290),
                              st.floats(1e290, 1e300), st.floats(-1e-4, 1e-4),
                              st.floats(1e15, 1e18)),
                    min_size=1, max_size=64))
    def test_matches_percent_17g(self, values):
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_targeted_values(self):
        values = [v for k in range(-8, 19) for v in power_of_ten_neighbours(k)]
        # The fixed/exponent switches at 1e-4/1e-5 and 1e16/1e17, and where 17 digits end.
        values += [1e-4, 9.9999999999999991e-5, 1e-5, 1.0000000000000001e-5, 1e16, 1e17,
                   9.9999999999999984e16, 123456789012345678.0]
        # Doubles that round up into the next decade at 17 digits.
        values += [1e-14, 1e-70, 1e-305, 1e98, 1e220]
        # Ties: p + e ends in .5 and rounds to even.
        values += [1234567890123456.25, 1234567890123456.75, -1234567890123456.25]
        values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                   math.nan, 1e-6, 1e-7, 1.7976931348623157e308]
        assert formatted(values) == ["%.17g" % v for v in values]
        assert formatted([0.99999999999999994, 1234567890123456.25, 1234567890123456.75]) == \
            ["0.99999999999999989", "1234567890123456.2", "1234567890123456.8"]
        # Fewer values than FORMAT_ARRAY_MIN take FLOAT_FORMAT one by one.
        assert len(values) < FORMAT_ARRAY_MIN
        assert text(_format_floats(np.array(values))) == ["%.17g" % v for v in values]

    def test_random_bit_patterns(self):
        # 2^20 doubles: half of them any bit pattern, half with an exponent
        # from 2^-30 to 2^62, around the range [1e-7, 1e17) formatted
        # without FLOAT_FORMAT.
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
        exponents = rng.integers(993, 1086, 2 ** 19, dtype=np.uint64)
        bits[1::2] = (bits[1::2] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponents << np.uint64(52))
        values = bits.view(np.float64)
        assert formatted(values) == ["%.17g" % v for v in values.tolist()]


class TestAtomicOutput:
    def test_writer_failing_partway_leaves_no_map(self, tmp_path, monkeypatch):
        written = []
        real_open = pathlib.Path.open

        class DiskFull:
            """A file that takes the first chunk and half the second, then is full."""

            def __init__(self, path, f):
                self.path, self.f = path, f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def writelines(self, chunks):
                chunks = iter(chunks)
                self.f.write(next(chunks))
                data = next(chunks)
                self.f.write(data[:len(data) // 2])
                self.f.flush()
                written.append(self.path.stat().st_size)
                raise OSError(errno.ENOSPC, "No space left on device")

        def disk_full(self, *args, **kwargs):
            f = real_open(self, *args, **kwargs)
            return DiskFull(self, f) if self.name.startswith(".map.csv") else f

        monkeypatch.setattr(pathlib.Path, "open", disk_full)
        cfg = parse_config({
            "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
            "axes": {"tau_s": {"start": 5e-7, "stop": 3.0e-5, "count": 40},
                     "omega_x_hz": {"start": 1e4, "stop": 6e4, "count": 6}},
            "output": {"format": "both"}})
        with pytest.raises(OSError):
            run_map(cfg, tmp_path)
        assert written and written[0] > 0
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = pseudospin_cfg()
        run_trace(cfg, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_replace(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr("floqsens.scans.os.replace", failing_replace)
        with pytest.raises(OSError):
            run_trace(pseudospin_cfg(sequence={"n_p": 3}), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestMap:
    def test_constant_model_rows_identical(self, tmp_path):
        cfg = pseudospin_cfg(axes={
            "tau_s": {"start": 2e-6, "stop": 1.2e-4, "count": 24},
            "row_index": {"start": 0, "stop": 4, "count": 5}})
        run_map(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "map.csv")
        assert header == ["row_index", "tau_s", "coherence"]
        per_row = {}
        for field, tau, val in rows:
            per_row.setdefault(field, []).append((tau, val))
        baseline = list(per_row.values())[0]
        assert all(vals == baseline for vals in per_row.values())

    def test_map_row_equals_trace(self, tmp_path):
        raw = {
            "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
            "sequence": {"n_p": 10},
            "axes": {"tau_s": {"start": 5e-7, "stop": 3.0e-5, "count": 40},
                     "omega_x_hz": {"start": 1e4, "stop": 6e4, "count": 6}},
        }
        cfg = parse_config(raw)
        run_map(cfg, tmp_path / "m")
        (tmp_path / "m").mkdir(exist_ok=True)
        header, rows = read_csv(tmp_path / "m" / "map.csv")
        field_vals = sorted({r[0] for r in rows}, key=float)
        pick = field_vals[3]
        map_col = [(r[1], r[2]) for r in rows if r[0] == pick]

        trace_raw = {
            "system": {"kind": "nv", "omega_x_hz": float(pick),
                       "omega_z_hz": 0.0, "a_par_hz": 50e3},
            "sequence": {"n_p": 10},
            "axes": {"tau_s": {"start": 5e-7, "stop": 3.0e-5, "count": 40}},
        }
        tcfg = parse_config(trace_raw)
        run_trace(tcfg, tmp_path / "t")
        theader, trows = read_csv(tmp_path / "t" / "trace.csv")
        assert [(r[0], r[1]) for r in trows] == map_col

    def test_overlay_written_for_nv(self, tmp_path):
        raw = {
            "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
            "axes": {"tau_s": {"start": 5e-7, "stop": 3.0e-5, "count": 10},
                     "omega_x_hz": {"start": 1e4, "stop": 6e4, "count": 4}},
        }
        cfg = parse_config(raw)
        files = run_map(cfg, tmp_path)
        names = {p.name for p in files}
        assert "map_overlay.csv" in names
        header, rows = read_csv(tmp_path / "map_overlay.csv")
        assert header == ["omega_x_hz", "tau_plus_s", "tau_minus_s"]
        assert all(float(r[1]) < float(r[2]) for r in rows)

    def test_envelope_quantity(self, tmp_path):
        cfg = pseudospin_cfg(
            axes={"tau_s": {"start": 2e-6, "stop": 1.2e-4, "count": 12},
                  "row_index": {"start": 0, "stop": 1, "count": 2}},
            output={"quantity": "envelope"})
        run_map(cfg, tmp_path)
        header, _ = read_csv(tmp_path / "map.csv")
        assert header[-1] == "envelope"

    def test_pgm_mapping(self, tmp_path):
        values = np.array([[-1.0, 0.0, 1.0], [0.5, -0.5, 0.25]])
        write_pgm(tmp_path / "x.pgm", values)
        blob = (tmp_path / "x.pgm").read_bytes()
        assert blob.startswith(b"P5\n3 2\n255\n")
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
        expected = np.rint(255 * (values.ravel() + 1) / 2).astype(np.uint8)
        assert np.array_equal(pixels, expected)


class TestSpectrum:
    def test_collinear_straight_lines(self, tmp_path):
        cfg = pseudospin_cfg(system={
            "kind": "pseudospin",
            "h_u": {"x_rad_s": 0.0, "z_rad_s": 4.0e4},
            "h_d": {"x_rad_s": 0.0, "z_rad_s": 2.4e4}})
        run_spectrum(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header[:3] == ["tau_s", "phase_1", "phase_2"]
        assert header[-1] == "crossing"
        w_sum = (4.0e4 + 2.4e4) / 2
        for row in rows[::9]:
            tau = float(row[0])
            line = 2 * w_sum * tau
            want = np.angle(np.exp(1j * line))
            got = sorted(float(v) for v in row[1:3])
            assert got == pytest.approx(sorted([want, -want]), abs=1e-9)

    @pytest.mark.parametrize("system", [
        {"kind": "pseudospin", "h_u": {"x_rad_s": 1.4e4, "z_rad_s": 4.2e4},
         "h_d": {"x_rad_s": 1.4e4, "z_rad_s": -2.2e4}},
        # h_d has z = 0 and x < 0: the sign of its diagonal zeros depends on
        # the order in which its terms are summed
        {"kind": "nv", "omega_x_hz": -2.5e3, "omega_z_hz": 0.0, "a_par_hz": 3e4},
        {"kind": "donor_pair", "donor": "si_bi", "b0_tesla": 0.15,
         "pair": {"delta_a_rad_s": 180e3, "c12_rad_s": 1.8e3}},
        {"kind": "independent_pairs", "donor": "si_bi", "b0_tesla": 0.15,
         "pairs": [{"delta_a_rad_s": 180e3, "c12_rad_s": 1.05e3},
                   {"delta_a_rad_s": 0.0, "c12_rad_s": 2.2e3},
                   {"delta_a_rad_s": -100e3, "c12_rad_s": 1.5e3}]},
    ], ids=["pseudospin", "nv", "donor_pair", "independent_pairs"])
    def test_two_state_phases_match_schur(self, tmp_path, system):
        # The written phases against the Schur phases of T_u2 = W_u W_d from
        # kron chains of the 2x2 Hamiltonians [[z, x], [x, -z]] / 2, which the
        # builder reproduces exactly for one target.
        cfg = parse_config({"system": system,
                            "axes": {"tau_s": {"start": 1e-6, "stop": 2.4e-4, "count": 40}}})
        models = scans._two_state_models(cfg, None, *scans._polarizations(cfg, [None]))
        h = [0, 0]  # h_u, h_d
        for site, model in enumerate(models):
            ch = two_state_hamiltonians([model])
            left, right = np.eye(2 ** site), np.eye(2 ** (len(models) - site - 1))
            for b, (built, f) in enumerate(((ch.h_u, model.h_u), (ch.h_d, model.h_d))):
                single = np.array([[f.z / 2, f.x / 2], [f.x / 2, -f.z / 2]])
                assert (built == single).all()
                h[b] = h[b] + np.kron(np.kron(left, single), right)
        run_spectrum(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "spectrum.csv")
        phases = np.array([[float(v) for v in row[1:-1]] for row in rows])
        w_u, w_d = oracle_cells(*h, cfg.tau_axis.values())
        want = schur_modes(w_u @ w_d)[0]
        assert max(matched_gap(got, ref) for got, ref in zip(phases, want)) <= 1e-12

    def test_pair_crossings_are_each_pairs_own(self, tmp_path):
        # Pairs are independent tensor factors: signed sums of different pairs
        # cross without repelling, so only the gap between a pair's own +-E
        # marks an avoided crossing.  Flagging every near-meet of two sums, the
        # joint-space engine marked 176 of these 400 taus.
        cfg = parse_config({
            "system": {"kind": "independent_pairs", "donor": "si_bi", "b0_tesla": 0.15,
                       "pairs": [{"delta_a_rad_s": 180e3, "c12_rad_s": 1.05e3},
                                 {"delta_a_rad_s": -100e3, "c12_rad_s": 2.2e3},
                                 {"delta_a_rad_s": 60e3, "c12_rad_s": 1.5e3},
                                 {"delta_a_rad_s": 0.0, "c12_rad_s": 3.0e3}]},
            "axes": {"tau_s": {"start": 1e-6, "stop": 3e-4, "count": 400}}})
        run_spectrum(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "spectrum.csv")
        flags = np.array([int(row[-1]) for row in rows])
        models = scans._two_state_models(cfg, None, *scans._polarizations(cfg, [None]))
        phases = np.array([floquet_phase(m, cfg.tau_axis.values()) for m in models])
        own_gap = np.minimum(2 * phases, 2 * np.pi - 2 * phases).min(axis=0)
        assert flags.any()
        assert (flags == (own_gap < cfg.output.crossing_gap)).all()

    def test_gap_at_dip_equals_twice_delta(self, tmp_path):
        from floqsens import dip_positions
        cfg = pseudospin_cfg()
        model = cfg.system
        rec = dip_positions(model, 2.4e-4)[0]
        raw_axes = {"tau_s": {"start": rec.tau_dip * 0.999, "stop": rec.tau_dip * 1.001,
                              "count": 3}}
        cfg2 = pseudospin_cfg(axes=raw_axes)
        from floqsens.scans import compute_trace  # noqa: F401  (same module path)
        from floqsens import spectrum_scan
        scan = spectrum_scan(two_state_hamiltonians([model]),
                             np.array([rec.tau_dip]))
        phases = scan.phases[0]
        gap = 2 * np.pi - abs(phases[1] - phases[0])
        assert gap == pytest.approx(2 * rec.delta, abs=1e-8)


class TestDips:
    def test_weak_coupling_methods_agree(self, tmp_path):
        raw = {
            "system": {"kind": "pseudospin",
                       "h_u": {"x_rad_s": 2.0e3, "z_rad_s": 4.4e4},
                       "h_d": {"x_rad_s": 2.0e3, "z_rad_s": 4.0e4}},
            "sequence": {"n_p": 10},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1.5e-4, "count": 10}},
        }
        cfg = parse_config(raw)
        run_dips(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "dips.csv")
        assert header == ["tau_dip_s", "method", "delta_rad", "depth", "harmonic"]
        floquet = [float(r[0]) for r in rows if r[1] == "floquet_condition"]
        avg = [float(r[0]) for r in rows if r[1] == "avg_hamiltonian"]
        assert len(avg) == 1
        assert abs(avg[0] - floquet[0]) / floquet[0] < 1e-3

    def test_cluster_secular_report(self, tmp_path):
        raw = {
            "system": {"kind": "cluster3",
                       "cluster": {"a_rad_s": [180e3, 0.0, 100e3],
                                   "c_rad_s": [[0, 1.05e3, 2.2e3],
                                               [1.05e3, 0, 1.05e3],
                                               [2.2e3, 1.05e3, 0]]},
                       "p_u": 0.3, "p_d": 0.2},
            "axes": {"tau_s": {"start": 1e-6, "stop": 5e-4, "count": 10}},
        }
        cfg = parse_config(raw)
        run_dips(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "dips.csv")
        assert rows and all(r[1] == "secular_estimate" for r in rows)
        taus = [float(r[0]) for r in rows]
        assert taus == sorted(taus)

    def test_finite_pulse_dip_is_at_the_trace_minimum(self, tmp_path):
        # The trace evaluates the interval tau + delta; the report gives tau.
        cfg = pseudospin_cfg(sequence={"n_p": 10, "pulse_duration_s": 5e-6},
                             axes={"tau_s": {"start": 1e-6, "stop": 2.4e-4, "count": 2000}})
        data = compute_trace(cfg)
        tau_min = data.taus[int(np.argmin(data.envelope))]
        run_dips(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "dips.csv")
        dips = [float(r[0]) for r in rows if r[1] == "floquet_condition"]
        step = data.taus[1] - data.taus[0]
        assert min(abs(tau - tau_min) for tau in dips) <= step

    def test_flat_system_empty_report(self, tmp_path):
        raw = {
            "system": {"kind": "pseudospin",
                       "h_u": {"x_rad_s": 0.0, "z_rad_s": 4.4e4},
                       "h_d": {"x_rad_s": 0.0, "z_rad_s": 2.0e4}},
            "axes": {"tau_s": {"start": 1e-6, "stop": 3e-4, "count": 10}},
        }
        cfg = parse_config(raw)
        run_dips(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "dips.csv")
        assert [r for r in rows if r[1] == "floquet_condition"] == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=30)


class TestManifest:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_manifest_text_is_indented_sorted_json(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_manifest_contents(self, tmp_path):
        cfg = pseudospin_cfg()
        run_trace(cfg, tmp_path)
        doc = json.loads((tmp_path / "trace_manifest.json").read_text())
        assert doc["command"] == "trace"
        assert doc["config"]["sequence"]["n_p"] == 10
        assert doc["files"] == ["trace.csv"]
        assert len(doc["config_sha1"]) == 40
