"""Sweep engine and file emission for the command-line front end.

Every map row is produced by the same ``compute_trace`` call the ``trace``
command uses, so a map row at fixed field and the corresponding trace are
bitwise identical.  Products of independent two-state targets (the
two-state systems and ``independent_pairs``) take the closed-form
pseudospin path with no joint 2^k space; every other system goes through
the engine's stacked row kernel ``floquet_row``, which diagonalizes H_u
and H_d once per field and builds the cells of the tau axis in blocks.
On both paths a map asks only for the quantity it emits and a trace asks
for both; each value is the same either way.  The overlay curves of a
two-state map reuse the model of each row.  The engine diagonalizes
every dense cell with one batched eigensolver (``linalg.eig_unitaries``)
and sums the envelope floor over whole clusters of degenerate
eigenphases, so a floor does not depend on the eigenbasis picked inside
a cluster.  Dense-system values differ from those of earlier versions by
a few 1e-14, except envelope values at cells with degenerate eigenphases,
where the earlier per-tau Schur path depended on that basis; dense-system
files are therefore not bitwise equal to files written by earlier
versions.

A run whose largest accumulated phase exceeds ``MAX_PHASE_RAD`` is
rejected with ValidationError (CLI exit 2) before anything is written;
past that phase cos and sin lose their significant digits.  The phase is
the spectral radius of H_u, H_d times ``cells`` cells of length
4 max(tau + delta): n_p cells where coherence or dip depths are
computed, one for envelope-only rows and spectra.

CSV output is UTF-8 with ``\n`` line endings and full ``%.17g``
precision; ``write_csv`` formats each cell once, so a map formats each
field and each tau value once, not once per line.  Maps can also be
emitted as binary 8-bit PGM (P5) with the documented value mapping
round(255 (L + 1) / 2).  Every file is written to a temporary file in
the output directory and renamed into place, so no file is ever
half-written, and the manifest is written last: a manifest exists only
for a complete run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from . import __version__
from .clusters import conditional_cluster_hamiltonians, doublet_dip_estimates, \
    joint_full_model
from .config import ScanConfig
from .engine import QUANTITIES, ConditionalHamiltonians, floquet_row, spectrum_scan
from .errors import ConfigError, NumericalConsistencyError, ValidationError
from .pseudospin import TwoStateModel, avg_hamiltonian_dip, \
    coherence_analytic, diamond_boundaries, dip_positions, envelope, floquet_phase
from .sensors import NVModel, donor_pair_polarizations, donor_pair_two_state, nv_two_state

TWO_PI = 2.0 * math.pi

# Dips with level repulsion below this have no observable contrast
# (true-crossing limit) and are dropped from dip reports.
MIN_REPORTED_DELTA = 1e-6
# Largest phase (rad) a row may accumulate.  A double resolves a phase of
# 1e12 rad to about 1e-4 rad (its ulp); near 1e16 rad the ulp reaches 2 rad
# and cos and sin of the phase carry no significant digit.
MAX_PHASE_RAD = 1e12
# CSV float cells: 17 significant digits round-trip every double.
FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class TraceData:
    """One computed trace over the tau grid; a quantity not computed is None.

    ``models`` are the closed-form two-state targets the trace is the
    product of (one for a single two-state system, one per pair for
    independent_pairs), or None for systems on the Floquet engine path;
    ``polarizations`` holds the sensor's (P_u, P_d) of a cluster3 trace.
    """

    taus: np.ndarray
    coherence: np.ndarray | None
    envelope: np.ndarray | None
    models: list[TwoStateModel] | None = None
    polarizations: tuple[float, float] | None = None


def _two_state_models(cfg: ScanConfig, field_value: float | None
                      ) -> list[TwoStateModel] | None:
    """The independent two-state targets at this field, or None for other systems."""
    kind = cfg.system_kind
    if kind == "pseudospin":
        return [cfg.system]
    if kind == "nv":
        nv = cfg.system
        if cfg.field_axis is not None and cfg.field_axis.name == "omega_x_hz":
            if field_value is None:
                raise ConfigError("nv sweep needs a field value")
            nv = NVModel(omega_x=TWO_PI * field_value, omega_z=nv.omega_z, a_par=nv.a_par)
        return [nv_two_state(nv)]
    if kind == "donor_pair":
        return [donor_pair_two_state(cfg.donor, cfg.system, _field_b0(cfg, field_value))]
    if kind == "independent_pairs":
        return cfg.system.two_state_models(*_cluster_polarizations(cfg, field_value))
    return None


def _field_b0(cfg: ScanConfig, field_value: float | None) -> float:
    if cfg.field_axis is not None and cfg.field_axis.name == "b0_tesla":
        if field_value is None:
            raise ConfigError("field sweep needs a value")
        return float(field_value)
    return cfg.fixed_field


def _cluster_polarizations(cfg: ScanConfig, field_value: float | None) -> tuple[float, float]:
    if cfg.polarizations is not None:
        return cfg.polarizations
    b0 = _field_b0(cfg, field_value)
    return donor_pair_polarizations(cfg.donor, b0)


def _conditional(cfg: ScanConfig, field_value: float | None
                 ) -> tuple[ConditionalHamiltonians, tuple[float, float] | None]:
    """The conditional Hamiltonians at this field, and the (P_u, P_d) of a cluster3 sensor."""
    kind = cfg.system_kind
    if kind == "cluster3":
        pols = _cluster_polarizations(cfg, field_value)
        return conditional_cluster_hamiltonians(cfg.system, *pols), pols
    if kind == "independent_pairs":
        return cfg.system.conditional(*_cluster_polarizations(cfg, field_value)), None
    if kind == "joint_full":
        return joint_full_model(cfg.donor, cfg.system, _field_b0(cfg, field_value)), None
    return _two_state_models(cfg, field_value)[0].conditional(), None


def _spectral_radius(ch: ConditionalHamiltonians) -> float:
    """Largest |eigenvalue| of H_u and H_d."""
    return max(float(np.abs(np.linalg.eigvalsh(h)).max()) for h in (ch.h_u, ch.h_d))


def _require_phase(radius: float, tau_max: float, delta: float, cells: int) -> None:
    """Reject a run whose largest accumulated phase exceeds MAX_PHASE_RAD.

    The phase is radius 4 cells (tau_max + delta): the spectral radius of
    the conditional Hamiltonians times ``cells`` cells of length
    4 (tau + delta).
    """
    phase = radius * 4.0 * cells * (tau_max + delta)
    if not phase <= MAX_PHASE_RAD:
        raise ValidationError(
            f"largest accumulated phase {phase:.3e} rad exceeds {MAX_PHASE_RAD:.0e} rad, "
            f"beyond which double precision cannot represent it")


def compute_trace(cfg: ScanConfig, field_value: float | None = None,
                  quantities: tuple[str, ...] = QUANTITIES) -> TraceData:
    """The requested quantities over the tau axis at one field point.

    Only ``quantities`` are computed, on every path; each value is the same
    whichever others are requested.  A finite pulse duration delta shifts
    the effective interval of the analytic two-state path to tau + delta,
    matching the engine's cell construction.  Two-state targets k combine
    into coherence prod_k L_k and envelope 2 prod_k (1 + f_k) / 2 - 1.
    Rows whose largest accumulated phase exceeds MAX_PHASE_RAD raise
    ValidationError: the spectral radius (max(sum_k w_u,k, sum_k w_d,k)
    for two-state targets) times n_p cells of length 4 max(tau + delta)
    when coherence is asked for, one cell otherwise.
    """
    taus = cfg.tau_axis.values()
    n_p = cfg.sequence.n_p
    delta = cfg.sequence.pulse_duration
    cells = n_p if "coherence" in quantities else 1
    models = _two_state_models(cfg, field_value)
    if models is not None:
        radius = max(sum(m.omega_u for m in models), sum(m.omega_d for m in models))
        _require_phase(radius, float(taus.max()), delta, cells)
        tau_eff = taus + delta
        coh = (reduce(np.multiply, [coherence_analytic(m, tau_eff, n_p) for m in models])
               if "coherence" in quantities else None)
        env = (reduce(lambda e, f: (1.0 + e) * (1.0 + f) / 2.0 - 1.0,
                      [envelope(m, tau_eff) for m in models])
               if "envelope" in quantities else None)
        return TraceData(taus=taus, coherence=coh, envelope=env, models=models)
    ch, pols = _conditional(cfg, field_value)
    _require_phase(_spectral_radius(ch), float(taus.max()), delta, cells)
    row = floquet_row(ch, taus, n_p, quantities, pulse_duration=delta)
    return TraceData(taus=taus, coherence=row.get("coherence"),
                     envelope=row.get("envelope"), polarizations=pols)


def _check_range(values: np.ndarray, what: str):
    drift = float(np.abs(values).max(initial=0.0)) - 1.0
    if drift > 1e-9:
        raise NumericalConsistencyError(f"{what} left [-1, 1] by {drift:.3e}")


def _write_atomic(path: Path, chunks) -> None:
    """Write byte ``chunks`` to a temporary file beside ``path``, then rename it to ``path``.

    A write that fails leaves the previous ``path``, or none, never a
    partial one, and removes the temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _template(cells) -> str:
    """The ``%`` template of CSV cells: floats in FLOAT_FORMAT, any other cell as str()."""
    return ",".join(FLOAT_FORMAT if isinstance(v, float) else "%s" for v in cells)


def write_csv(path: Path, header: list[str], rows, keys=None) -> None:
    """Write a UTF-8 CSV file with ``\\n`` line endings, atomically.

    A float cell is written as ``%.17g`` and any other cell as str().
    Each line is one ``%`` template applied to one row tuple; the rows of
    a block share their cell types, so the template is built from the
    block's first row.  Without ``keys`` all rows form one block.  With
    ``keys``, ``rows`` holds one block of rows per key tuple and every
    line of a block starts with the cells of its key, formatted once into
    the block's template.  The file is streamed one block at a time.
    """
    if keys is None:
        keys, rows = [()], [rows]

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        for key, block in zip(keys, rows):
            block = iter(block)
            first = next(block, None)
            if first is None:
                continue
            lead = (_template(key) % key).replace("%", "%%") + "," if key else ""
            line = lead + _template(first) + "\n"
            yield (line % first + "".join(map(line.__mod__, block))).encode("utf-8")

    _write_atomic(path, chunks())


def write_pgm(path: Path, values: np.ndarray) -> None:
    """8-bit binary PGM; L in [-1, 1] maps to round(255 (L + 1) / 2)."""
    pixels = np.rint(255.0 * (np.clip(values, -1.0, 1.0) + 1.0) / 2.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    _write_atomic(path, (header, pixels.tobytes()))


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for string-keyed documents.

    With an indent the standard library encodes through closures that refer
    to each other, leaving a reference cycle per call to the garbage
    collector; here each scalar, key and empty container goes through the
    C encoder.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [inner + _json_text(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def write_manifest(path: Path, cfg: ScanConfig, command: str, files: list[str]) -> None:
    doc = {
        "version": __version__,
        "command": command,
        "config_sha1": cfg.content_hash(),
        "config": cfg.resolved,
        "files": files,
    }
    _write_atomic(path, [(_json_text(doc) + "\n").encode("utf-8")])


def _field_column(cfg: ScanConfig) -> str:
    return cfg.field_axis.name if cfg.field_axis is not None else "row_index"


def run_trace(cfg: ScanConfig, outdir: Path) -> list[Path]:
    """Emit trace.csv with columns tau_s, coherence, envelope."""
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.field_axis is not None:
        raise ConfigError("trace takes a single tau axis; drop the field axis")
    data = compute_trace(cfg, None)
    _check_range(data.coherence, "coherence")
    out = outdir / "trace.csv"
    write_csv(out, ["tau_s", "coherence", "envelope"],
              zip(map(float, data.taus), map(float, data.coherence),
                  map(float, data.envelope)))
    manifest = outdir / "trace_manifest.json"
    write_manifest(manifest, cfg, "trace", [out.name])
    return [out, manifest]


def _overlay_rows(cfg: ScanConfig, field_values: np.ndarray, traces: list[TraceData]):
    """Analytic overlay curves for map output, when the system has them.

    ``traces`` holds the computed map rows; the overlay reuses their
    two-state models and sensor polarizations.
    """
    kind = cfg.system_kind
    if kind == "nv" and cfg.field_axis.name == "omega_x_hz":
        header = ["omega_x_hz", "tau_plus_s", "tau_minus_s"]
        rows = []
        for f, trace in zip(field_values, traces):
            tau_plus, tau_minus = diamond_boundaries(trace.models[0])
            rows.append((float(f), tau_plus, tau_minus if tau_minus is not None else math.inf))
        return header, rows
    if kind == "donor_pair" and cfg.field_axis.name == "b0_tesla":
        header = ["b0_tesla", "tau_avg_s"]
        rows = [(float(f), avg_hamiltonian_dip(trace.models[0]))
                for f, trace in zip(field_values, traces)]
        return header, rows
    if kind == "cluster3" and cfg.donor is not None and cfg.field_axis.name == "b0_tesla":
        labels = None
        rows = []
        for f, trace in zip(field_values, traces):
            est = doublet_dip_estimates(cfg.system, *trace.polarizations)
            est = sorted(est, key=lambda r: r.label)
            if labels is None:
                labels = [r.label for r in est]
            by_label = {r.label: r.tau for r in est}
            rows.append((float(f), *[by_label.get(lb, math.inf) for lb in labels]))
        header = ["b0_tesla"] + [f"tau_{lb.replace('+', 'p').replace('-', 'm')}_s"
                                 for lb in (labels or [])]
        return header, rows
    return None, None


def run_map(cfg: ScanConfig, outdir: Path) -> list[Path]:
    """Emit the long-form map CSV, plus PGM and overlay curves if requested.

    Rows are computed in order, one ``compute_trace`` call per field.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.field_axis is None:
        raise ConfigError("map needs a field axis in addition to tau_s")
    field_values = cfg.field_axis.values()
    quantity = cfg.output.quantity

    traces = []
    for index, field in enumerate(field_values):
        try:
            traces.append(compute_trace(cfg, float(field), (quantity,)))
        except (ValidationError, NumericalConsistencyError) as exc:
            exc.args = (f"row {index} (field {field:g}): {exc}",)
            raise
    grid = np.stack([getattr(trace, quantity) for trace in traces])
    _check_range(grid, quantity)
    files = []
    out_csv = outdir / "map.csv"
    if cfg.output.format in ("csv", "both"):
        taus = [FLOAT_FORMAT % tau for tau in cfg.tau_axis.values().tolist()]
        write_csv(out_csv, [_field_column(cfg), "tau_s", quantity],
                  [zip(taus, row) for row in grid.tolist()],
                  keys=[(f,) for f in field_values.tolist()])
        files.append(out_csv)
        header, overlay = _overlay_rows(cfg, field_values, traces)
        if overlay is not None:
            out_overlay = outdir / "map_overlay.csv"
            write_csv(out_overlay, header, overlay)
            files.append(out_overlay)
    if cfg.output.format in ("pgm", "both"):
        out_pgm = outdir / "map.pgm"
        write_pgm(out_pgm, grid)
        files.append(out_pgm)
    manifest = outdir / "map_manifest.json"
    write_manifest(manifest, cfg, "map", [p.name for p in files])
    return files + [manifest]


def run_spectrum(cfg: ScanConfig, outdir: Path) -> list[Path]:
    """Emit eigenphase trajectories over the tau axis with crossing flags."""
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.field_axis is not None:
        raise ConfigError("spectrum takes a single tau axis; drop the field axis")
    ch, _ = _conditional(cfg, None)
    _require_phase(_spectral_radius(ch), cfg.tau_axis.stop, cfg.sequence.pulse_duration, 1)
    scan = spectrum_scan(ch, cfg.tau_axis.values(),
                         pulse_duration=cfg.sequence.pulse_duration,
                         gap_threshold=cfg.output.crossing_gap)
    dim = scan.phases.shape[1]
    header = ["tau_s"] + [f"phase_{k + 1}" for k in range(dim)] + ["crossing"]
    rows = [(tau, *phases, crossing) for tau, phases, crossing in
            zip(scan.taus.tolist(), scan.phases.tolist(), scan.crossings.astype(int).tolist())]
    out = outdir / "spectrum.csv"
    write_csv(out, header, rows)
    manifest = outdir / "spectrum_manifest.json"
    write_manifest(manifest, cfg, "spectrum", [out.name])
    return [out, manifest]


def run_dips(cfg: ScanConfig, outdir: Path) -> list[Path]:
    """Emit the dip report: located dips, averaged-Hamiltonian and secular estimates.

    Two-state systems report every root of the dip condition below the tau
    axis stop (skipping zero-contrast true crossings) plus the averaged-
    Hamiltonian estimate; 3-clusters report the secular doublet estimates,
    with the harmonic column carrying the quasienergy pair as a two-digit
    code (12, 13, 23).  Dips sit at cell intervals s = tau + delta (delta
    the pulse duration, as in ``compute_trace``) and are reported at
    tau = s - delta > 0.  A two-state phase max(w_u, w_d) n_p 4 (tau_stop +
    delta) above MAX_PHASE_RAD raises ValidationError: the dip depth needs
    the phase of all n_p cells.  A root search grid above
    ``pseudospin.MAX_DIP_GRID`` points raises CapacityError.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.field_axis is not None:
        raise ConfigError("dips takes a single tau axis; drop the field axis")
    n_p = cfg.sequence.n_p
    pulse = cfg.sequence.pulse_duration
    s_stop = cfg.tau_axis.stop + pulse
    rows = []
    if cfg.system_kind in ("pseudospin", "nv", "donor_pair"):
        model, = _two_state_models(cfg, None)
        _require_phase(max(model.omega_u, model.omega_d), cfg.tau_axis.stop, pulse, n_p)
        for rec in dip_positions(model, s_stop, n_p=n_p):
            if rec.delta < MIN_REPORTED_DELTA:
                continue
            rows.append((rec.tau_dip, "floquet_condition", rec.delta, rec.depth,
                         rec.harmonic_index))
        try:
            tau_bar = avg_hamiltonian_dip(model)
        except ValidationError:
            tau_bar = None
        if tau_bar is not None and tau_bar <= s_stop:
            e_tau = float(floquet_phase(model, tau_bar))
            delta = abs(math.pi - e_tau)
            depth = 1.0 - 2.0 * math.sin(n_p * delta) ** 2
            rows.append((tau_bar, "avg_hamiltonian", delta, depth, 1))
    elif cfg.system_kind == "cluster3":
        p_u, p_d = _cluster_polarizations(cfg, None)
        for rec in doublet_dip_estimates(cfg.system, p_u, p_d):
            if rec.tau <= s_stop:
                rows.append((rec.tau, "secular_estimate", math.nan, math.nan,
                             rec.pair[0] * 10 + rec.pair[1]))
    else:
        raise ConfigError(f"system '{cfg.system_kind}' has no analytic or secular "
                          f"dip estimates")
    rows = [(s - pulse, *rest) for s, *rest in rows if s - pulse > 0]
    rows.sort(key=lambda r: r[0])
    out = outdir / "dips.csv"
    write_csv(out, ["tau_dip_s", "method", "delta_rad", "depth", "harmonic"], rows)
    manifest = outdir / "dips_manifest.json"
    write_manifest(manifest, cfg, "dips", [out.name])
    return [out, manifest]
