"""Runs one workload in this process through ``floqsens.cli.main(argv)``.

    python3 perfbench/worker.py PLAN.json RESULT.json --seconds S [--spans OUT.npz]

The plan (written by run.py) lists the commands of one round with their
config files and reference samples.  The first round is a warm-up; then
whole rounds repeat until ``--seconds`` of wall time have passed.  Every
command's output is checked against the reference samples after the
command returns, outside its timed interval, and the output directory is
emptied before the next command.  The calibration kernel (calibration.py)
is timed right before and right after each command.  With ``--spans`` the floqsens modules are
traced from the second round on and the spans are saved there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def check_output(outdir: Path, entry: dict) -> str | None:
    """None if the command's files match the reference samples, else why not."""
    lines = (outdir / entry["output"]).read_text(encoding="utf-8").split("\n")
    for sample in entry["samples"]:
        row = lines[1 + sample["line"]].split(",")
        if not math.isclose(float(row[0 if "phases" in sample else 1]), sample["tau"],
                            rel_tol=1e-12):
            return f"line {sample['line']}: tau {row} != {sample['tau']}"
        if "phases" in sample:
            got = sorted(float(v) for v in row[1:-1])
            if len(got) != len(sample["phases"]):
                return f"line {sample['line']}: {len(got)} phases"
            for want in sample["phases"]:
                gap = min(abs(math.remainder(g - want, 2 * math.pi)) for g in got)
                if gap > sample["atol"]:
                    return f"line {sample['line']}: phase {want!r} missing (gap {gap:.2e})"
        else:
            if not math.isclose(float(row[0]), sample["field"], rel_tol=1e-12):
                return f"line {sample['line']}: field {row[0]} != {sample['field']}"
            if abs(float(row[2]) - sample["value"]) > sample["atol"]:
                return f"line {sample['line']}: {row[2]} != reference {sample['value']!r}"
    manifest = json.loads((outdir / f"{entry['subcommand']}_manifest.json").read_text())
    if manifest["config_sha1"] != entry["config_sha1"]:
        return "manifest hash differs from the loaded config"
    return None


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    unpinned = [v for v in PINNED_ENV if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"worker needs {unpinned} set to 1 before numpy is imported")

    import numpy as np
    import scipy
    import calibration
    import floqsens.cli
    from floqsens.config import load_config

    plan = json.loads(Path(args.plan).read_text())
    if not Path(floqsens.cli.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        raise SystemExit(f"floqsens imported from {floqsens.cli.__file__}, not {plan['src']}")
    outdir = Path(plan["outdir"])
    for entry in plan["commands"]:
        entry["config_sha1"] = load_config(entry["config_path"]).content_hash()

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    records = []

    def run_round(timed: bool):
        for entry in plan["commands"]:
            shutil.rmtree(outdir, ignore_errors=True)
            kernel_before = calibration.kernel_seconds()
            argv = [entry["subcommand"], "--config", entry["config_path"],
                    "--output", str(outdir), "--threads", "1"]
            t0 = time.perf_counter()
            try:
                rc = floqsens.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            kernel_s = (kernel_before + calibration.kernel_seconds()) / 2
            try:
                problem = (f"exit {rc}" if rc != 0
                           else check_output(outdir, entry))
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            records.append({"name": entry["name"], "timed": timed, "seconds": elapsed,
                            "kernel_s": kernel_s,
                            "points": entry["points"], "problem": problem})

    run_round(timed=False)
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        run_round(timed=True)
        rounds += 1
    shutil.rmtree(outdir, ignore_errors=True)

    result = {
        "records": records,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config_sha1": {e["name"]: e["config_sha1"] for e in plan["commands"]},
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
            **{v: os.environ[v] for v in PINNED_ENV},
        },
    }
    if tracer is not None:
        timed = sum(r["seconds"] for r in records if r["timed"])
        result["trace"] = layer_metrics(tracer, plan, rounds, timed)
        tracer.save(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


def layer_metrics(tracer, plan: dict, rounds: int, timed_seconds: float) -> dict:
    """Per-round calls and self time of every traced name, plus derived ratios."""
    import numpy as np
    from tracer import LAYERS

    spans = tracer.spans()
    self_s = tracer.self_times()
    dur = spans["end"] - spans["start"]
    names = tracer.names
    calls = np.bincount(spans["name"], minlength=len(names))
    self_by_name = np.bincount(spans["name"], weights=self_s, minlength=len(names))
    layer_of = np.array([n.split(".", 1)[0] for n in names])
    out = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = calls[i] / rounds
        out[f"{name}.self_s"] = self_by_name[i] / rounds
    total_self = float(self_s.sum())
    for layer in LAYERS:
        share = float(self_by_name[layer_of == layer].sum())
        out[f"{layer}.self_share"] = share / total_self if total_self else 0.0
    points = sum(e["points"] for e in plan["commands"])
    out["linalg.expm_hermitian.per_point"] = out["linalg.expm_hermitian.calls"] / points
    # Engine work started directly by pseudospin is its numeric fallback.
    parent = spans["parent"]
    has_parent = parent >= 0
    under = np.zeros(spans["name"].size, dtype=bool)
    under[has_parent] = ((layer_of[spans["name"][has_parent]] == "engine")
                         & (layer_of[spans["name"][parent[has_parent]]] == "pseudospin"))
    taus = tracer.counters["pseudospin.tau_samples"]
    out["pseudospin.fallback_ratio"] = float(under.sum()) / taus if taus else 0.0
    rows = dur[spans["name"] == names.index("scans.compute_trace")] * 1e3
    if rows.size >= 2:
        q = statistics.quantiles(rows.tolist(), n=10)
        out["scans.compute_trace.ms_p50"] = statistics.median(rows.tolist())
        out["scans.compute_trace.ms_p90"] = q[8]
    else:
        out["scans.compute_trace.ms_p50"] = out["scans.compute_trace.ms_p90"] = 0.0
    out["scans.bytes_written"] = tracer.counters["scans.bytes_written"] / rounds
    out["trace.coverage"] = total_self / timed_seconds
    return out


if __name__ == "__main__":
    sys.exit(main())
