import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floqsens
from floqsens.cli import main


def write_cfg(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def pseudospin_doc():
    return {
        "system": {"kind": "pseudospin",
                   "h_u": {"x_rad_s": 1.4e4, "z_rad_s": 4.2e4},
                   "h_d": {"x_rad_s": 1.4e4, "z_rad_s": -2.2e4}},
        "sequence": {"n_p": 10},
        "axes": {"tau_s": {"start": 2e-6, "stop": 1.2e-4, "count": 24}},
    }


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", pseudospin_doc())
        assert main(["trace", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace_manifest.json").exists()

    def test_config_error(self, tmp_path, capsys):
        doc = pseudospin_doc()
        doc["axes"]["tau_s"]["count"] = 1
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["trace", "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'\xff\xfe{"system": {}}', b"[" * 10 ** 5 + b"]" * 10 ** 5],
                             ids=["not-utf8", "nested-1e5-deep"])
    def test_unreadable_config(self, tmp_path, capsys, content):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(content)
        assert main(["trace", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: unreadable as UTF-8 JSON: ")
        assert err.count("\n") == 1

    def test_negative_crossing_gap(self, tmp_path, capsys):
        # Below 0 no gap could flag a crossing; the load rejects it.
        doc = pseudospin_doc()
        doc["output"] = {"crossing_gap_rad": -1}
        cfg = write_cfg(tmp_path / "c.json", doc)
        outdir = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == "config error: output.crossing_gap_rad must be >= 0\n"
        assert not outdir.exists()

    def test_missing_config(self, tmp_path):
        assert main(["trace", "--config", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path)]) == 2

    def test_capacity_error(self, tmp_path):
        n = 7
        doc = {
            "system": {"kind": "cluster3",
                       "cluster": {"a_rad_s": [0.0] * n,
                                   "c_rad_s": [[0.0] * n for _ in range(n)]},
                       "p_u": 0.5, "p_d": -0.5},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 4}},
        }
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["trace", "--config", cfg, "--output", str(tmp_path)]) == 4

    @pytest.mark.parametrize("blocked", ["directory", "file"])
    def test_unwritable_output(self, tmp_path, capsys, blocked):
        doc = pseudospin_doc()
        doc["axes"]["row_index"] = {"start": 0, "stop": 1, "count": 2}
        cfg = write_cfg(tmp_path / "c.json", doc)
        if blocked == "directory":
            (tmp_path / "plain").write_text("")
            outdir = tmp_path / "plain" / "out"
        else:
            outdir = tmp_path / "out"
            (outdir / "map.csv").mkdir(parents=True)
        assert main(["map", "--config", cfg, "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and err.count("\n") == 1

    def test_unrepresentable_phase(self, tmp_path, capsys):
        doc = pseudospin_doc()
        doc["system"]["h_u"]["x_rad_s"] = 1e300
        cfg = write_cfg(tmp_path / "c.json", doc)
        outdir = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: largest accumulated phase")
        assert err.count("\n") == 1
        assert not (outdir / "trace.csv").exists()
        assert not (outdir / "trace_manifest.json").exists()

    @pytest.mark.parametrize("x_rad_s, stop, code, message", [
        (1e300, 1.2e-4, 2, "config error: largest accumulated phase"),
        (1e11, 1e-2, 4, "capacity error: dip search"),
    ])
    def test_dips_beyond_reach(self, tmp_path, capsys, x_rad_s, stop, code, message):
        doc = pseudospin_doc()
        doc["system"]["h_u"]["x_rad_s"] = x_rad_s
        doc["axes"]["tau_s"]["stop"] = stop
        cfg = write_cfg(tmp_path / "c.json", doc)
        outdir = tmp_path / "out"
        assert main(["dips", "--config", cfg, "--output", str(outdir)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not (outdir / "dips.csv").exists()
        assert not (outdir / "dips_manifest.json").exists()

    def test_phase_of_all_pulses_beyond_reach(self, tmp_path, capsys):
        # 10^17 cells accumulate a coherence phase near 1e16 rad.
        doc = pseudospin_doc()
        doc["sequence"]["n_p"] = 10 ** 17
        cfg = write_cfg(tmp_path / "c.json", doc)
        outdir = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: largest accumulated phase")
        assert err.count("\n") == 1
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("command, axis, count", [
        ("trace", "tau_s", 10 ** 12),
        ("map", "omega_x_hz", 10 ** 20),
    ])
    def test_grid_beyond_capacity(self, tmp_path, capsys, command, axis, count):
        doc = {"system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
               "axes": {"tau_s": {"start": 5e-7, "stop": 3e-5, "count": 4}}}
        if command == "map":
            doc["axes"]["omega_x_hz"] = {"start": 1e3, "stop": 8e4, "count": 2}
        doc["axes"][axis]["count"] = count
        cfg = write_cfg(tmp_path / "c.json", doc)
        outdir = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(outdir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("capacity error: scan grid of")
        assert err.count("\n") == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("fmt", ["csv", "pgm", "both"])
    def test_zero_field_nv_map_succeeds_in_every_format(self, tmp_path, capsys, fmt):
        # At omega_x = a_par = 0 the model has w_u = w_d = 0 and no diamond
        # boundary; the overlay writes inf for both instead of failing the map.
        doc = {"system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 0.0},
               "axes": {"tau_s": {"start": 1e-6, "stop": 1e-5, "count": 4},
                        "omega_x_hz": {"start": 0.0, "stop": 1e4, "count": 3}}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        outdir = tmp_path / "out"
        assert main(["map", "--config", cfg, "--output", str(outdir), "--format", fmt]) == 0
        assert capsys.readouterr().err == ""
        files = {"csv": ["map.csv", "map_overlay.csv"], "pgm": ["map.pgm"]}
        want = files.get(fmt, files["csv"] + files["pgm"]) + ["map_manifest.json"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(want)
        if fmt != "pgm":
            overlay = (outdir / "map_overlay.csv").read_text().splitlines()
            assert overlay[1] == "0,inf,inf"
            assert all(line.endswith(",inf") for line in overlay[1:])

    def test_numerical_consistency_error(self, tmp_path, monkeypatch):
        from floqsens import NumericalConsistencyError
        import floqsens.cli as cli

        def boom(cfg, outdir):
            raise NumericalConsistencyError("synthetic")

        monkeypatch.setattr(cli, "run_trace", boom)
        cfg = write_cfg(tmp_path / "c.json", pseudospin_doc())
        assert main(["trace", "--config", cfg, "--output", str(tmp_path)]) == 3


class TestFlags:
    def test_quantity_and_format_override(self, tmp_path):
        doc = pseudospin_doc()
        doc["axes"]["row_index"] = {"start": 0, "stop": 1, "count": 2}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["map", "--config", cfg, "--output", str(tmp_path),
                     "--quantity", "envelope", "--format", "both"]) == 0
        assert (tmp_path / "map.pgm").exists()
        header = (tmp_path / "map.csv").read_text().splitlines()[0]
        assert header.endswith("envelope")

    def test_threads_determinism(self, tmp_path):
        doc = pseudospin_doc()
        doc["axes"]["row_index"] = {"start": 0, "stop": 7, "count": 8}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["map", "--config", cfg, "--output", str(tmp_path / "t1"),
                     "--threads", "1"]) == 0
        assert main(["map", "--config", cfg, "--output", str(tmp_path / "t8"),
                     "--threads", "8"]) == 0
        assert (tmp_path / "t1" / "map.csv").read_bytes() == \
            (tmp_path / "t8" / "map.csv").read_bytes()


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

# Runs floqsens.cli.main on (command, config, output) argument triples, then
# prints the exit codes and every scipy module the interpreter has loaded.
FRESH_RUN = """
import json, sys
import floqsens.cli
args = iter(sys.argv[1:])
codes = [floqsens.cli.main([cmd, "--config", cfg, "--output", out])
         for cmd, cfg, out in zip(args, args, args)]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def child_env():
    """Environment in which a child interpreter imports the same floqsens as this process."""
    src = str(Path(floqsens.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(tmp_path, *runs):
    """FRESH_RUN on (command, shipped config) pairs in a new interpreter."""
    args = []
    for command, config in runs:
        args += [command, str(CONFIGS / config), str(tmp_path / Path(config).stem)]
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", pseudospin_doc())
    proc = subprocess.run(
        [sys.executable, "-m", "floqsens.cli", "trace", "--config", cfg,
         "--output", str(tmp_path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "trace.csv" in proc.stdout


def test_two_state_maps_load_no_scipy(tmp_path):
    # This process has SciPy loaded already (tests use it as an oracle).
    result = run_fresh(tmp_path, ("map", "nv_diamond_map.json"),
                       ("map", "donor_pair_map.json"))
    assert result == {"codes": [0, 0], "scipy": []}


def test_cluster3_map_loads_no_scipy(tmp_path):
    # Dense cells take the batched Cayley eigensolver, which needs no SciPy.
    result = run_fresh(tmp_path, ("map", "cluster3_map.json"))
    assert result == {"codes": [0], "scipy": []}


def test_joint_full_map_loads_no_scipy(tmp_path):
    result = run_fresh(tmp_path, ("map", "joint_full_map.json"))
    assert result == {"codes": [0], "scipy": []}


def test_spectrum_loads_no_scipy(tmp_path):
    # Modes of neighbouring tau that overlap clearly are matched without
    # linear_sum_assignment; on the shipped 500-tau grid they always do.
    result = run_fresh(tmp_path, ("spectrum", "cluster3_spectrum.json"))
    assert result == {"codes": [0], "scipy": []}


def test_coarse_spectrum_imports_scipy_where_modes_mix(tmp_path):
    # On 25 tau the shipped cluster3 modes mix between neighbouring tau once,
    # and that tau alone goes to linear_sum_assignment.
    doc = json.loads((CONFIGS / "cluster3_spectrum.json").read_text())
    doc["axes"]["tau_s"]["count"] = 25
    cfg = write_cfg(tmp_path / "coarse_spectrum.json", doc)
    result = run_fresh(tmp_path, ("spectrum", cfg))
    assert result["codes"] == [0]
    assert "scipy.optimize" in result["scipy"]


def test_traces_load_no_scipy(tmp_path):
    # A two-state trace and a dense cluster3 trace (the spectrum config run
    # as a trace) take the same kernels as the maps.
    result = run_fresh(tmp_path, ("trace", "pseudospin_trace.json"),
                       ("trace", "cluster3_spectrum.json"))
    assert result == {"codes": [0, 0], "scipy": []}


def test_dips_loads_no_scipy(tmp_path):
    # Dip roots are refined by array bisection, not by SciPy's brentq.
    result = run_fresh(tmp_path, ("dips", "donor_pair_dips.json"))
    assert result == {"codes": [0], "scipy": []}


@pytest.mark.parametrize("command", ["spectrum", "trace"])
def test_unresolved_eigensolve_exits_3(tmp_path, capsys, monkeypatch, command):
    # With the Cayley bound at 1 the shipped cluster3 cells fail in a later
    # tau block, in spectrum_scan (spectrum) and in floquet_row (trace).
    monkeypatch.setattr(floqsens.linalg, "MAX_CAYLEY_TAN", 1.0)
    outdir = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / "cluster3_spectrum.json"),
                 "--output", str(outdir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical-consistency error: tau[") and err.count("\n") == 1
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("command, config", [
    ("trace", "pseudospin_trace.json"), ("map", "nv_diamond_map.json"),
    ("map", "donor_pair_map.json"), ("map", "cluster3_map.json"),
    ("spectrum", "cluster3_spectrum.json"), ("dips", "donor_pair_dips.json")])
def test_commands_leave_no_reference_cycles(tmp_path, command, config):
    # A command run in a long-lived process (a notebook, a sweep driver)
    # should leave nothing for the cyclic garbage collector, whose passes
    # would otherwise land inside later commands.
    argv = [command, "--config", str(CONFIGS / config), "--output", str(tmp_path)]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_float_cells_of_shipped_configs_are_their_own_percent_17g(tmp_path, capsys, config):
    # The CSV contract, independent of the writer: every command that runs on
    # a shipped config writes each float cell as '%.17g' of its value.
    ran = [command for command in ("map", "trace", "spectrum", "dips")
           if main([command, "--config", str(CONFIGS / config),
                     "--output", str(tmp_path / command)]) == 0]
    capsys.readouterr()
    cells = [cell for path in sorted(tmp_path.glob("*/*.csv"))
             for line in path.read_text().splitlines()[1:] for cell in line.split(",")]
    floats = [cell for cell in cells if is_float(cell)]
    assert ran and floats
    assert [cell for cell in floats if "%.17g" % float(cell) != cell] == []


def test_overflowing_donor_field_fails_on_one_stderr_line(tmp_path):
    # gamma_e B0 overflows at B0 = 5e299 T, and inf * 0 off the Zeeman
    # diagonal would warn before the error; only a fresh interpreter shows
    # what a command-line user sees on stderr.
    doc = {"system": {"kind": "donor_pair", "donor": "si_bi",
                      "pair": {"delta_a_rad_s": 180e3, "c12_rad_s": 1.8e3}},
           "axes": {"tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 5},
                    "b0_tesla": {"start": 0.0, "stop": 1e300, "count": 3}}}
    cfg = write_cfg(tmp_path / "c.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "floqsens.cli", "map", "--config", cfg,
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env={**child_env(), "PYTHONWARNINGS": "default"})
    assert proc.returncode == 2
    assert proc.stderr == ("config error: row 1 (field 5e+299): donor Hamiltonian has "
                           "non-finite entries\n")


def test_trace_range_checks_its_envelope(tmp_path, capsys, monkeypatch):
    # A dense envelope outside [-1, 1] fails a trace as it fails a map.
    import floqsens.scans as scans

    def drifted(chs, taus, n_p, quantities, pulse_duration=0.0):
        return {q: np.full((len(chs), len(taus)), 1.1 if q == "envelope" else 1.0)
                for q in quantities}

    monkeypatch.setattr(scans, "floquet_rows", drifted)
    outdir = tmp_path / "out"
    assert main(["trace", "--config", str(CONFIGS / "cluster3_spectrum.json"),
                 "--output", str(outdir)]) == 3
    assert capsys.readouterr().err == ("numerical-consistency error: envelope left [-1, 1] "
                                       "by 1.000e-01\n")
    assert not (outdir / "trace.csv").exists()


@pytest.mark.parametrize("command, config", [("trace", "cluster3_spectrum.json"),
                                             ("map", "cluster3_map.json")])
def test_nan_rows_fail_the_range_check(tmp_path, capsys, monkeypatch, command, config):
    import floqsens.scans as scans

    def nan_rows(chs, taus, n_p, quantities, pulse_duration=0.0):
        return {q: np.full((len(chs), len(taus)), np.nan) for q in quantities}

    monkeypatch.setattr(scans, "floquet_rows", nan_rows)
    outdir = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--output", str(outdir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical-consistency error: ") and err.endswith(" by nan\n")
    assert not (outdir / f"{command}.csv").exists()


def test_write_error_names_the_output(tmp_path, capsys):
    doc = pseudospin_doc()
    doc["axes"]["row_index"] = {"start": 0, "stop": 1, "count": 2}
    cfg = write_cfg(tmp_path / "c.json", doc)
    blocked = tmp_path / "out" / "map.csv"
    blocked.mkdir(parents=True)
    errs = []
    for _ in range(2):
        assert main(["map", "--config", cfg, "--output", str(blocked.parent)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (f"file error: [Errno {errno.EISDIR}] "
                                  f"{os.strerror(errno.EISDIR)}: '{blocked}'\n")
    assert list(blocked.parent.iterdir()) == [blocked]


def test_unitarity_failures_in_two_rows_name_the_lower_row(tmp_path, capsys, monkeypatch):
    # Three-state sector cells of rows 3 and 1 are pushed off unitarity:
    # row 3 at tau[2], row 1 at tau[6] in its first sector and at tau[4] in
    # its second.  All of them sit in one stack; the map names row 1 and its
    # first tau, tau[4].
    import re

    import floqsens.engine as engine
    from floqsens.config import parse_config
    from floqsens.scans import _polarizations, _row_hamiltonians

    doc = json.loads((CONFIGS / "cluster3_map.json").read_text())
    doc["axes"]["b0_tesla"]["count"] = 5
    doc["axes"]["tau_s"]["count"] = 10
    cfg = parse_config(doc)
    fields = cfg.field_axis.values().tolist()
    taus = cfg.tau_axis.values().tolist()
    sectors = [_row_hamiltonians(cfg, f, p).sectors[1].index.tolist()
               for f, p in zip(fields, _polarizations(cfg, fields))]
    assert sectors == [[[1, 2, 4], [3, 5, 6]]] * len(fields)
    # The three-state stack of the map is rows 0..4, each total Iz = +1/2
    # then -1/2.
    marked = {(2 * 3, taus[2]), (2 * 1, taus[6]), (2 * 1 + 1, taus[4])}
    original = engine._cell_blocks

    def leaky(energies_u, energies_d, transfer, j, t):
        for block, d_u, y in original(energies_u, energies_d, transfer, j, t):
            if transfer.shape[-1] == 3:
                for k, cell in enumerate(zip(j[block].tolist(), t[block].tolist())):
                    if cell in marked:
                        d_u[k] *= 1.0 + 1e-6
            yield block, d_u, y

    monkeypatch.setattr(engine, "_cell_blocks", leaky)
    outdir = tmp_path / "out"
    assert main(["map", "--config", write_cfg(tmp_path / "c.json", doc),
                 "--output", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"config error: row 1 \(field {re.escape(f'{fields[1]:g}')}\): "
                        rf"tau\[4\] = {re.escape(f'{taus[4]:g}')}: matrix is not unitary: "
                        r"defect \S+ > 1\.0e-10\n", err), err
    assert list(outdir.iterdir()) == []
