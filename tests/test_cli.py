import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", pseudospin_doc())
    # The child imports the same floqsens as this process, installed or not.
    src = str(Path(floqsens.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "floqsens.cli", "trace", "--config", cfg,
         "--output", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "trace.csv" in proc.stdout
