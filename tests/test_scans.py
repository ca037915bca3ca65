import errno
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqsens import PulseSequence, ValidationError, thermal_coherence_numeric
from floqsens.config import parse_config
from floqsens.scans import compute_trace, run_dips, run_map, run_spectrum, run_trace, \
    write_csv, write_pgm


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
        for tau, coh in zip(data.taus[::7], data.coherence[::7]):
            seq = PulseSequence(tau=float(tau), n_p=10)
            ref = thermal_coherence_numeric(model.conditional(), seq)
            assert coh == pytest.approx(ref, abs=1e-9)

    def test_trace_rejects_field_axis(self, tmp_path):
        cfg = pseudospin_cfg(axes={
            "tau_s": {"start": 2e-6, "stop": 2.4e-4, "count": 10},
            "row_index": {"start": 0, "stop": 1, "count": 2}})
        from floqsens import ConfigError
        with pytest.raises(ConfigError):
            run_trace(cfg, tmp_path)

    def test_donor_pair_trace_dip_near_avg_estimate(self, tmp_path):
        from floqsens import avg_hamiltonian_dip, donor_pair_two_state, PairTarget, si_bi
        model = donor_pair_two_state(si_bi(), PairTarget(delta_a=180e3, c12=1.8e3), 0.15)
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
         "pair": {"delta_a_rad_s": 180e3, "c12_rad_s": 1.8e3}}])
    def test_two_state_computes_only_what_is_asked(self, system):
        cfg = pseudospin_cfg(system=system, sequence={"n_p": 20, "pulse_duration_s": 1e-7})
        both = compute_trace(cfg)
        for quantity in ("coherence", "envelope"):
            other = "envelope" if quantity == "coherence" else "coherence"
            one = compute_trace(cfg, None, (quantity,))
            assert getattr(one, other) is None
            assert getattr(one, quantity).tobytes() == getattr(both, quantity).tobytes()
            assert one.model == both.model == compute_trace(cfg, None, ()).model


class TestPhaseLimit:
    def test_two_state_trace_rejected(self):
        cfg = pseudospin_cfg(system={"kind": "pseudospin",
                                     "h_u": {"x_rad_s": 1e300, "z_rad_s": 0.0},
                                     "h_d": {"x_rad_s": 0.0, "z_rad_s": 1.0}})
        with pytest.raises(ValidationError, match="accumulated phase"):
            compute_trace(cfg)

    def test_limit_is_two_w_max_times_longest_interval(self):
        # 2 max(w_u, w_d) (tau_stop + delta) = |h_u| (tau_stop + delta)
        tau_stop, delta = 2.4e-4, 1e-7
        for scale, ok in ((0.999, True), (1.001, False)):
            h_x = scale * 1e12 / (tau_stop + delta)
            cfg = pseudospin_cfg(
                system={"kind": "pseudospin", "h_u": {"x_rad_s": h_x, "z_rad_s": 0.0},
                        "h_d": {"x_rad_s": 1.0, "z_rad_s": 0.0}},
                sequence={"n_p": 1, "pulse_duration_s": delta},
                axes={"tau_s": {"start": 1e-6, "stop": tau_stop, "count": 3}})
            if ok:
                compute_trace(cfg, None, ("envelope",))
            else:
                with pytest.raises(ValidationError, match="accumulated phase"):
                    compute_trace(cfg, None, ("envelope",))

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


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(table=st.integers(1, 6).flatmap(csv_tables))
    def test_matches_per_value_reference(self, tmp_path_factory, table):
        kinds, rows = table
        header = [f"c{k}" for k in range(len(kinds))]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == reference_csv(header, rows).encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(keys=st.integers(1, 3).flatmap(csv_tables), body=st.integers(1, 4).flatmap(csv_tables),
           data=st.data())
    def test_keyed_blocks_match_flat_rows(self, tmp_path_factory, keys, body, data):
        (_, key_rows), (_, rows) = keys, body
        blocks = [data.draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
                  for _ in key_rows]
        header = ["k"] * len(keys[0]) + ["v"] * len(body[0])
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, header, [iter(b) for b in blocks], keys=key_rows)
        flat = [key + row for key, block in zip(key_rows, blocks) for row in block]
        assert path.read_bytes() == reference_csv(header, flat).encode("utf-8")

    def test_map_layout(self, tmp_path):
        # run_map passes each tau preformatted and each field as a key.
        taus = np.array([1e-6, 2.5e-6, 1e300])
        grid = np.array([[-0.0, 5e-324, 1.0], [np.nan, -1.0, 0.1]])
        fields = np.array([0.05, 0.30000000000000004])
        rows = [(float(f), float(t), float(grid[i, j]))
                for i, f in enumerate(fields) for j, t in enumerate(taus)]
        write_csv(tmp_path / "a.csv", ["f", "t", "v"],
                  [zip(["%.17g" % t for t in taus.tolist()], row) for row in grid.tolist()],
                  keys=[(f,) for f in fields.tolist()])
        assert (tmp_path / "a.csv").read_text() == reference_csv(["f", "t", "v"], rows)


class TestAtomicOutput:
    def test_writer_failing_partway_leaves_no_map(self, tmp_path, monkeypatch):
        written = []
        real_write = pathlib.Path.write_bytes

        def disk_full(self, data):
            if self.name.startswith(".map.csv"):
                real_write(self, data[:len(data) // 2])
                written.append(self.stat().st_size)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(self, data)

        monkeypatch.setattr(pathlib.Path, "write_bytes", disk_full)
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

    def test_threads_do_not_change_bytes(self, tmp_path):
        raw = {
            "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
            "axes": {"tau_s": {"start": 5e-7, "stop": 3.0e-5, "count": 30},
                     "omega_x_hz": {"start": 1e4, "stop": 6e4, "count": 8}},
        }
        cfg = parse_config(raw)
        run_map(cfg, tmp_path / "a", threads=1)
        run_map(cfg, tmp_path / "b", threads=8)
        assert (tmp_path / "a" / "map.csv").read_bytes() == \
            (tmp_path / "b" / "map.csv").read_bytes()


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


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        cfg = pseudospin_cfg()
        run_trace(cfg, tmp_path)
        doc = json.loads((tmp_path / "trace_manifest.json").read_text())
        assert doc["command"] == "trace"
        assert doc["config"]["sequence"]["n_p"] == 10
        assert doc["files"] == ["trace.csv"]
        assert len(doc["config_sha1"]) == 40
