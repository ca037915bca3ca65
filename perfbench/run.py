"""floqsens benchmark: seeded CLI workloads timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each run generates the workload's JSON configs from the seed,
computes reference values for a seeded sample of output points without
floqsens (reference.py), and runs the workload's ``map``/``spectrum``
commands in a fresh worker process through ``floqsens.cli.main(argv)`` with
single-threaded BLAS and ``--threads 1`` (worker.py).  Scratch files live
under ``.bench_runs/`` in the checkout and are removed at the end.

``--trace 0`` reports the end-to-end metrics.  Times are wall times scaled
to the nominal machine speed by the references of calibration.py, measured
around each command and after each set-up probe; the unscaled medians are
printed too.

* ``setup_s``: median over fresh interpreters of importing floqsens.cli
  and loading the workload's configs (setup_probe.py);
* ``points_per_s``: (field, tau) samples of one round of commands over the
  sum of each command's median time, which covers config loading, compute
  and file emission;
* ``cmd_s_p50``: median time of one CLI command;
* ``peak_rss_mb``: peak RSS of the worker process.

``--trace 1`` runs the workload untraced and then traced, each for half of
``--seconds``, and reports per round of commands the calls and self time of
each traced floqsens function (tracer.py), derived per-layer ratios, the
trace's coverage of command time and its slowdown.  Spans are saved to
``.bench_runs/spans-<workload>.npz``, replacing the previous run's.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a command fails when it raises, exits non-zero or
its output misses the reference by more than the tolerance in reference.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# Pinned before numpy is imported here and passed to every child process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import calibration  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROCESSES = 5
# A worker gets this long beyond its measuring time for import, warm-up and
# the round that is running when the time is up.
WORKER_SLACK_S = 60
# The traced self times must add up to at least this share of the traced
# command wall time; the rest is wrapper overhead outside the root span.
MIN_TRACE_COVERAGE = 0.98

E2E_UNITS = {"setup_s": "s", "points_per_s": "1/s", "cmd_s_p50": "s", "peak_rss_mb": "MB"}
# Traced functions reported per layer; every one gets .calls and .self_s.
LAYER_FUNCTIONS = (
    "linalg.expm_hermitian", "linalg.eig_unitary", "linalg.unitarity_defect",
    "linalg.polar_unitary", "linalg.kron", "linalg.spin_operators",
    "engine.unit_cell", "engine.floquet_pair", "engine.thermal_coherence_numeric",
    "engine.unitary_power", "engine.envelope_general", "engine.spectrum_scan",
    "pseudospin.coherence_analytic", "pseudospin.envelope", "pseudospin.cos_floquet_phase",
    "pseudospin.diamond_boundaries", "pseudospin.avg_hamiltonian_dip",
    "sensors.donor_pair_polarizations", "sensors.donor_eigensystem", "sensors.nv_two_state",
    "clusters.conditional_cluster_hamiltonians", "clusters.PairSet.conditional",
    "clusters.joint_full_model", "clusters.doublet_dip_estimates",
    "config.load_config",
    "scans.compute_trace", "scans.run_map", "scans.run_spectrum", "scans.write_csv",
    "scans.write_pgm", "scans.write_manifest",
    "cli.main",
)


def layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS})
    units.update({
        "linalg.expm_hermitian.per_point": "ratio",
        "pseudospin.fallback_ratio": "ratio",
        "scans.compute_trace.ms_p50": "ms",
        "scans.compute_trace.ms_p90": "ms",
        "scans.bytes_written": "bytes",
        "trace.coverage": "ratio",
        "trace.slowdown": "ratio",
    })
    return units


def run_worker(plan_path: Path, seconds: float, env: dict, spans: Path | None = None) -> dict:
    result_path = plan_path.with_name(f"result-{os.getpid()}.json")
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
           "--seconds", str(seconds)] + (["--spans", str(spans)] if spans else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=seconds + WORKER_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def setup_seconds(config_paths: list[str], env: dict) -> tuple[float, float]:
    """(scaled, wall) median time of the set-up probe over fresh interpreters.

    Each probe is followed by the import reference of calibration.py.  One
    discarded pair first warms the file cache and the bytecode cache.
    """
    def fresh(*argv: str) -> float:
        out = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=10)
        return float(out.stdout)

    scaled, wall = [], []
    for _ in range(SETUP_PROCESSES + 1):
        seconds = fresh(str(HERE / "setup_probe.py"), *config_paths)
        reference_s = fresh("-c", calibration.IMPORT_PROBE)
        scaled.append(seconds * calibration.IMPORT_NOMINAL_S / reference_s)
        wall.append(seconds)
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def timed_records(result: dict) -> list[dict]:
    return [r for r in result["records"] if r["timed"]]


def command_seconds(result: dict) -> list[float]:
    """Wall time of each timed command, scaled by the kernel timed around it."""
    return [calibration.scaled(r["seconds"], r["kernel_s"]) for r in timed_records(result)]


def points_per_s(result: dict) -> float:
    """Points of one round over the sum of each command's median scaled time."""
    seconds, points = {}, {}
    for r, scaled in zip(timed_records(result), command_seconds(result)):
        seconds.setdefault(r["name"], []).append(scaled)
        points[r["name"]] = r["points"]
    return sum(points.values()) / sum(statistics.median(s) for s in seconds.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "floqsens" / "cli.py").is_file():
        print(f"benchmark needs the floqsens sources at {SRC}", file=sys.stderr)
        return 2

    tmp = RUNS / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}
    try:
        commands = workloads.generate(args.workload, args.seed)
        plan = {"src": str(SRC), "outdir": str(tmp / "out"), "commands": []}
        for cmd in commands:
            config_path = tmp / f"{cmd.name}.json"
            config_path.write_text(json.dumps(cmd.config, indent=1))
            plan["commands"].append({
                "name": cmd.name, "subcommand": cmd.subcommand,
                "config_path": str(config_path), "output": cmd.output,
                "points": cmd.points, "samples": reference.expected(cmd, args.seed)})
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(plan))

        checks = []
        if args.trace:
            base = run_worker(plan_path, args.seconds / 2, env)
            spans = RUNS / f"spans-{args.workload}.npz"
            result = run_worker(plan_path, args.seconds / 2, env, spans)
            units = layer_units()
            metrics = {k: result["trace"].get(k, 0.0) for k in units}
            metrics["trace.slowdown"] = points_per_s(base) / points_per_s(result)
            runs = [base, result]
            coverage = metrics["trace.coverage"]
            checks.append((coverage >= MIN_TRACE_COVERAGE,
                           f"trace coverage {coverage:.4f} (>= {MIN_TRACE_COVERAGE})"))
        else:
            setup, setup_wall = setup_seconds([p["config_path"] for p in plan["commands"]], env)
            result = run_worker(plan_path, args.seconds, env)
            result["setup_wall_s"] = setup_wall
            units = E2E_UNITS
            metrics = {"setup_s": setup,
                       "points_per_s": points_per_s(result),
                       "cmd_s_p50": statistics.median(command_seconds(result)),
                       "peak_rss_mb": result["peak_rss_mb"]}
            runs = [result]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = [r for run in runs for r in run["records"]]
    failed = [r for r in records if r["problem"]]
    hashes = {json.dumps(run["config_sha1"], sort_keys=True) for run in runs}
    checks.append((len(hashes) == 1, "identical config hashes in every worker"))
    report(args, commands, plan, result, metrics, units, records, failed, checks)
    print(json.dumps({
        "correct": not failed and all(ok for ok, _ in checks),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def report(args, commands, plan, result, metrics, units, records, failed, checks) -> None:
    """Human-readable lines and one info JSON line ahead of the result line."""
    timed = timed_records(result)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']} (+1 warm-up) of {len(commands)} commands: "
          + ", ".join(f"{c.name} ({c.points} points)" for c in commands))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    if not args.trace:
        secs = command_seconds(result)
        p90 = (f", cmd_s_p90 {statistics.quantiles(secs, n=10)[8]:.4g} s"
               if len(secs) >= 100 else "")
        print(f"  timed commands {len(secs)}, points {sum(r['points'] for r in timed)}{p90}")
        print(f"  unscaled: setup_s {result['setup_wall_s']:.4g} s, cmd_s_p50 "
              f"{statistics.median(r['seconds'] for r in timed):.4g} s; calibration kernel "
              f"median {statistics.median(r['kernel_s'] for r in timed):.4g} s (nominal "
              f"{calibration.NOMINAL_S} s)")
    print(f"  fail_ratio {len(failed)}/{len(records)} = {len(failed) / len(records):.3g}"
          f" (reference atol {reference.ATOL:g}, phases +{reference.PHASE_RTOL:g}"
          f" of the accumulated cell phase)")
    print(f"  reference points per round: {sum(len(c['samples']) for c in plan['commands'])}"
          f" of {reference.SAMPLES_PER_COMMAND * len(commands)} drawn (envelope points whose"
          f" cell eigenvalues lie closer than {reference.MIN_PAIRING_GAP:g} are skipped)")
    for r in failed[:5]:
        print(f"  FAILED {r['name']}: {r['problem']}")
    for ok, what in checks:
        print(f"  check {'ok' if ok else 'FAILED'}: {what}")
    print(json.dumps({"info": {"seed": args.seed, "workload": args.workload,
                               "config_sha1": result["config_sha1"], **result["env"]}}))


if __name__ == "__main__":
    sys.exit(main())
