import ast
import contextlib
import copy
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # A two-state trace and dense cluster3 traces (the spectrum config run
    # as a trace, and the dense-coherence trace config) take the same
    # kernels as the maps.
    result = run_fresh(tmp_path, ("trace", "pseudospin_trace.json"),
                       ("trace", "cluster3_spectrum.json"), ("trace", "cluster3_trace.json"))
    assert result == {"codes": [0, 0, 0], "scipy": []}


def test_dips_loads_no_scipy(tmp_path):
    # Dip roots are refined by array bisection, not by SciPy's brentq.
    result = run_fresh(tmp_path, ("dips", "donor_pair_dips.json"))
    assert result == {"codes": [0], "scipy": []}


def test_the_library_imports_scipy_in_one_place():
    # The only SciPy import of floqsens is linear_sum_assignment inside
    # engine._assign_modes, and a bare import of the package loads no SciPy.
    imports = []
    for path in sorted(Path(floqsens.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                imports.append(f"{path.stem}.{owner.get(id(node), '<module>')}")
    assert imports == ["engine._assign_modes"]
    code = "import sys, floqsens; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


@pytest.mark.parametrize("command", ["spectrum", "trace"])
def test_unresolved_eigensolve_exits_3(tmp_path, capsys, monkeypatch, command):
    # With the Cayley bound at 1 the shipped cluster3 cells fail in a later
    # tau block, in spectrum_scan (spectrum) and in floquet_rows (trace).
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


@pytest.mark.parametrize("command", ["trace", "map", "spectrum"])
def test_overflowing_interval_fails_on_one_stderr_line(tmp_path, command):
    # tau + pulse_duration overflows at the tau_s stop.  NumPy warned at the
    # sum (an error under -W error::RuntimeWarning) and the phase check then
    # read a NaN phase; the load names the overflow instead.
    doc = {"system": {"kind": "cluster3", "donor": "si_bi",
                      "cluster": {"a_rad_s": [0.0] * 3, "c_rad_s": [[0.0] * 3] * 3}},
           "sequence": {"pulse_duration_s": 1e308},
           "axes": {"tau_s": {"start": 1e-6, "stop": 1e308, "count": 5}}}
    if command == "map":
        doc["axes"]["b0_tesla"] = {"start": 0.1, "stop": 0.2, "count": 2}
    else:
        doc["system"]["b0_tesla"] = 0.15
    cfg = write_cfg(tmp_path / "c.json", doc)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "floqsens.cli", command,
         "--config", cfg, "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2
    assert proc.stderr == ("config error: tau_s stop 1e+308 + sequence.pulse_duration_s "
                           "1e+308 overflows\n")
    assert not (tmp_path / "out").exists()


HUGE = 10 ** 400  # a valid JSON integer literal beyond the double range


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config, path, key", [
    ("cluster3_map", ("axes", "b0_tesla", "stop"), "'stop' in b0_tesla"),
    ("cluster3_map", ("system", "cluster", "c_rad_s", 0, 1),
     "'c_rad_s' in system (cluster3).cluster"),
    ("cluster3_trace", ("sequence", "n_p"), "'n_p' in sequence"),
    ("donor_pair_dips", ("sequence", "n_p"), "'n_p' in sequence"),
    ("cluster3_map", ("axes", "tau_s", "count"), "'count' in axes.tau_s"),
], ids=["b0_stop", "c_rad_s", "trace_n_p", "dips_n_p", "tau_count"])
def test_integer_beyond_double_range_fails_on_one_stderr_line(tmp_path, capsys, config, path,
                                                              key):
    # The load converted such a number to float only where a later stage
    # did, and that raised OverflowError; now every numeric read names it.
    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = HUGE
    outdir = tmp_path / "out"
    command = config.rsplit("_", 1)[1]
    assert main([command, "--config", write_cfg(tmp_path / "c.json", doc),
                 "--output", str(outdir)]) == 2
    assert capsys.readouterr().err == f"config error: {key} is beyond the double range\n"
    assert not outdir.exists()


DELETE = object()
MUTATIONS = (0, -1, 1e-320, 1e308, 2 ** 63, HUGE, "x", None, True, [], {}, DELETE)
# Axis counts that are not a mutated leaf are cut to this, for time.
COUNT_CAP = 6


def leaf_paths(doc, path=()):
    """Paths of the scalar leaves of a JSON document, list entries included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in leaf_paths(value, path + (key,))]


@st.composite
def mutated_configs(draw):
    """(command, document): a shipped config with 1 or 2 leaves replaced by one
    of MUTATIONS or deleted, and every other axis count cut to COUNT_CAP."""
    name = draw(st.sampled_from(sorted(p.stem for p in CONFIGS.glob("*.json"))))
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    paths = draw(st.lists(st.sampled_from(leaf_paths(doc)), min_size=1, max_size=2,
                          unique=True))
    for axis in doc["axes"].values():
        axis["count"] = min(axis["count"], COUNT_CAP)
    # Later list entries first, so a deletion does not shift the other path.
    for path in sorted(paths, reverse=True):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        value = draw(st.sampled_from(MUTATIONS))
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return name.rsplit("_", 1)[1], doc


@settings(max_examples=100, deadline=None)
@given(case=mutated_configs())
def test_mutated_shipped_configs_keep_the_exit_code_contract(case):
    """Every failure of a hostile config is exit 2, 3 or 4 with one stderr line.

    Leaves of the 9 shipped configs are replaced by zero, negative, subnormal,
    huge and out-of-range numbers, wrong types, or deleted.  For time, every
    axis count that is not a mutated leaf is cut to COUNT_CAP points; a
    mutated count can still be 2^63, which exceeds MAX_GRID_POINTS and must
    exit 4.  No NumPy RuntimeWarning may be raised, a success writes nothing
    to stderr, and a failure leaves no data file or manifest behind.
    """
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", write_cfg(Path(tmp) / "c.json", doc),
                         "--output", str(outdir)])
        written = [p.name for p in outdir.rglob("*") if p.is_file()] if outdir.exists() else []
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        assert written == []


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
