import errno
import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floqsens import CapacityError, PairSet, ValidationError, floquet_phase
from floqsens.config import parse_config
from floqsens.engine import floquet_rows
from floqsens.scans import FORMAT_ARRAY_MIN, _format_floats, _json_text, compute_trace, \
    field_rows, run_dips, run_map, run_spectrum, run_trace, write_csv, write_pgm
from conftest import near_crossing, oracle_cells, oracle_coherence


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
        ch = model.conditional()
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
    joint = {q: v[0] for q, v in floquet_rows([cfg.system.conditional(p_u, p_d)], data.taus,
                                               n_p).items()}
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
    joint = {q: v[0] for q, v in floquet_rows([cfg.system.conditional(p_u, p_d)], data.taus,
                                               1).items()}
    assert np.abs(data.envelope - joint["envelope"]).max() <= 1e-12


def test_pair_traces_and_maps_never_build_the_joint_space(tmp_path, monkeypatch):
    def no_joint_space(self, p_u, p_d):
        raise CapacityError("joint pair space built")

    monkeypatch.setattr(PairSet, "conditional", no_joint_space)
    doc = {"system": {"kind": "independent_pairs", "donor": "si_bi", "b0_tesla": 0.15,
                      "pairs": [{"delta_a_rad_s": 180e3, "c12_rad_s": 1.05e3},
                                {"delta_a_rad_s": -100e3, "c12_rad_s": 2.2e3}]},
           "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 20}}}
    run_trace(parse_config(doc), tmp_path / "t")
    with pytest.raises(CapacityError, match="joint pair space built"):
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
    """The rows of a csv_tables table as one block of columns: float cells
    as a float array, any other cells as they are."""
    columns = list(zip(*rows)) or [()] * len(kinds)
    return [np.array(c, dtype=float) if kind in ("float", "numpy") else c
            for kind, c in zip(kinds, columns)]


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(table=st.integers(1, 6).flatmap(csv_tables))
    def test_matches_per_value_reference(self, tmp_path_factory, table):
        kinds, rows = table
        header = [f"c{k}" for k in range(len(kinds))]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, header, [csv_columns(kinds, rows)])
        assert path.read_bytes() == reference_csv(header, rows).encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(keys=st.integers(1, 3).flatmap(csv_tables), body=st.integers(1, 4).flatmap(csv_tables),
           data=st.data())
    def test_keyed_blocks_match_flat_rows(self, tmp_path_factory, keys, body, data):
        # Each block starts with the cells of its key, float keys formatted once.
        (key_kinds, key_rows), (kinds, rows) = keys, body
        blocks = [data.draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
                  for _ in key_rows]
        header = ["k"] * len(keys[0]) + ["v"] * len(body[0])
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, header, [
            [np.repeat(_format_floats(np.array([cell])), len(block), axis=0)
             if kind in ("float", "numpy") else [cell] * len(block)
             for kind, cell in zip(key_kinds, key)] + csv_columns(kinds, block)
            for key, block in zip(key_rows, blocks)])
        flat = [key + row for key, block in zip(key_rows, blocks) for row in block]
        assert path.read_bytes() == reference_csv(header, flat).encode("utf-8")

    def test_map_layout(self, tmp_path):
        # run_map passes the field and tau cells formatted once per map.
        taus = np.array([1e-6, 2.5e-6, 1e300])
        grid = np.array([[-0.0, 5e-324, 1.0], [np.nan, -1.0, 0.1]])
        fields = np.array([0.05, 0.30000000000000004])
        rows = [(float(f), float(t), float(grid[i, j]))
                for i, f in enumerate(fields) for j, t in enumerate(taus)]
        write_csv(tmp_path / "a.csv", ["f", "t", "v"],
                  [(np.repeat(_format_floats(fields), len(taus), axis=0),
                    np.tile(_format_floats(taus), (len(fields), 1)), grid.ravel())])
        assert (tmp_path / "a.csv").read_text() == reference_csv(["f", "t", "v"], rows)

    def test_blocks_are_written_in_bounded_slices(self, tmp_path, monkeypatch):
        # A block above BLOCK_BYTES of floats is laid out in several slices.
        monkeypatch.setattr("floqsens.scans.block_slices",
                            lambda count, item: (slice(i, min(i + 3, count))
                                                 for i in range(0, count, 3)))
        rows = [(0.1 * i, str(i), -1.0 / (i + 1)) for i in range(10)]
        write_csv(tmp_path / "a.csv", ["a", "b", "c"],
                  [csv_columns(["float", "str", "float"], rows)])
        assert (tmp_path / "a.csv").read_text() == reference_csv(["a", "b", "c"], rows)


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
        scan = spectrum_scan(model.conditional(),
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
