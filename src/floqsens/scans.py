"""Sweep engine and file emission for the command-line front end.

A map computes its rows in one ``field_rows`` call and ``compute_trace``
is the one-field call, so a map row and the trace at its field are
bitwise identical.  The donor polarizations of all fields come from
batched ``eigh`` calls.  Products of independent two-state targets (the
two-state systems and ``independent_pairs``) are evaluated in closed
form on (rows, tau) grids, in chunks of rows of at most
``linalg.BLOCK_BYTES`` per array, with no joint 2^k space; every other system
goes through the engine's row kernel ``floquet_row`` once per field.  A
map asks only for the quantity it emits and a trace asks for both; each
value is the same either way.  The overlay curves of a map reuse the
models and polarizations of its rows.  The engine diagonalizes
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
from .errors import ConfigError, NumericalConsistencyError, ValidationError, locate
from .linalg import block_slices
from .pseudospin import TwoStateModel, avg_hamiltonian_dip, diamond_boundaries, \
    dip_positions, level_repulsion, two_state_grid
from .sensors import NVModel, donor_pair_polarizations, nv_two_state

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
    """One computed trace over the tau grid; a quantity not computed is None."""

    taus: np.ndarray
    coherence: np.ndarray | None
    envelope: np.ndarray | None


def _polarizations(cfg: ScanConfig, fields: list) -> list[tuple[float, float] | None]:
    """The sensor's (P_u, P_d) at each field, from batched donor solves (None
    for systems without a polarized sensor).  A failing field raises with
    ``index`` set to its position."""
    if cfg.system_kind not in ("donor_pair", "cluster3", "independent_pairs"):
        return [None] * len(fields)
    if cfg.polarizations is not None:
        return [cfg.polarizations] * len(fields)
    p_u, p_d = donor_pair_polarizations(cfg.donor, np.array([_field_b0(cfg, f) for f in fields]))
    return list(zip(p_u.tolist(), p_d.tolist()))


def _two_state_models(cfg: ScanConfig, field_value: float | None,
                      pols: tuple[float, float] | None) -> list[TwoStateModel] | None:
    """The independent two-state targets at this field, given the sensor
    polarizations there, or None for other systems."""
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
        return [cfg.system.two_state(*pols)]
    if kind == "independent_pairs":
        return cfg.system.two_state_models(*pols)
    return None


def _field_b0(cfg: ScanConfig, field_value: float | None) -> float:
    if cfg.field_axis is not None and cfg.field_axis.name == "b0_tesla":
        if field_value is None:
            raise ConfigError("field sweep needs a value")
        return float(field_value)
    return cfg.fixed_field


def _row_hamiltonians(cfg: ScanConfig, field_value: float | None,
                      pols: tuple[float, float] | None) -> ConditionalHamiltonians:
    """The conditional Hamiltonians at this field, given the sensor polarizations there."""
    kind = cfg.system_kind
    if kind == "cluster3":
        return conditional_cluster_hamiltonians(cfg.system, *pols)
    if kind == "independent_pairs":
        return cfg.system.conditional(*pols)
    if kind == "joint_full":
        return joint_full_model(cfg.donor, cfg.system, _field_b0(cfg, field_value))
    return _two_state_models(cfg, field_value, pols)[0].conditional()


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


def _closed_form(models: list[list[TwoStateModel]], tau_eff: np.ndarray, n_p: int,
                 quantity: str, out: np.ndarray) -> None:
    """Fill ``out`` (rows, tau) with the product over each row's two-state targets.

    ``two_state_grid`` takes target k of every row of a chunk of rows
    (``block_slices`` of float tau rows); a row's targets combine in their
    order, as coherence prod_k L_k and envelope 2 prod_k (1 + f_k) / 2 - 1.
    An error's ``index`` is its row.
    """
    combine = (np.multiply if quantity == "coherence"
               else lambda e, f: (1.0 + e) * (1.0 + f) / 2.0 - 1.0)
    for block in block_slices(len(models), 8 * tau_eff.size):
        chunk = models[block]
        try:
            grids = [two_state_grid([row[k] for row in chunk], tau_eff, quantity, n_p)
                     for k in range(len(chunk[0]))]
        except (ValidationError, NumericalConsistencyError) as exc:
            raise locate(exc, block.start + exc.index)
        out[block] = reduce(combine, grids)


def field_rows(cfg: ScanConfig, fields: list,
               quantities: tuple[str, ...] = QUANTITIES) -> tuple[dict, list | None, list | None]:
    """The requested quantities over the tau axis at each field point.

    Returns (values, models, polarizations): a (fields, tau) array per
    quantity; per row the closed-form two-state targets the row is the
    product of (one for a single two-state system, one per pair for
    independent_pairs), or None on the Floquet engine path; and per row
    the sensor's (P_u, P_d) for cluster3, or None.

    Only ``quantities`` are computed; a value does not depend on the other
    quantities or fields of the call.  Two-state targets go through
    ``_closed_form`` at the interval tau + delta (delta the pulse
    duration, as in the engine's cells), other systems through one
    ``floquet_row`` call per field.  A row whose largest accumulated phase
    exceeds MAX_PHASE_RAD raises ValidationError: the spectral radius
    (max(sum_k w_u,k, sum_k w_d,k) for two-state targets) times n_p cells
    of length 4 max(tau + delta) when coherence is asked for, one cell
    otherwise.  An error's ``index`` is its row, and its message starts
    'row i (field f): ' when that row's field is given (not None).
    """
    taus = cfg.tau_axis.values()
    n_p = cfg.sequence.n_p
    delta = cfg.sequence.pulse_duration
    cells = n_p if "coherence" in quantities else 1
    tau_max = float(taus.max())
    values = {q: np.empty((len(fields), taus.size)) for q in quantities}
    try:
        pols = _polarizations(cfg, fields)
        if cfg.system_kind in ("cluster3", "joint_full"):
            for i, field in enumerate(fields):
                try:
                    ch = _row_hamiltonians(cfg, field, pols[i])
                    _require_phase(_spectral_radius(ch), tau_max, delta, cells)
                    row = floquet_row(ch, taus, n_p, quantities, pulse_duration=delta)
                except (ValidationError, NumericalConsistencyError) as exc:
                    raise locate(exc, i)
                for q in quantities:
                    values[q][i] = row[q]
            return values, None, pols if cfg.system_kind == "cluster3" else None
        models = []
        for i, field in enumerate(fields):
            try:
                row_models = _two_state_models(cfg, field, pols[i])
                _require_phase(max(sum(m.omega_u for m in row_models),
                                   sum(m.omega_d for m in row_models)), tau_max, delta, cells)
            except (ValidationError, NumericalConsistencyError) as exc:
                raise locate(exc, i)
            models.append(row_models)
        for q in quantities:
            _closed_form(models, taus + delta, n_p, q, values[q])
        return values, models, None
    except (ValidationError, NumericalConsistencyError) as exc:
        i = getattr(exc, "index", 0)  # without an index (no field given) every row fails
        raise locate(exc, i, None if fields[i] is None else f"row {i} (field {fields[i]:g})")


def compute_trace(cfg: ScanConfig, field_value: float | None = None,
                  quantities: tuple[str, ...] = QUANTITIES) -> TraceData:
    """The requested quantities over the tau axis at one field point: the
    one-field call of ``field_rows``, so a map row and the trace at its
    field are equal bit for bit."""
    values, _, _ = field_rows(cfg, [field_value], quantities)
    row = {q: v[0] for q, v in values.items()}
    return TraceData(taus=cfg.tau_axis.values(), coherence=row.get("coherence"),
                     envelope=row.get("envelope"))


def _check_range(values: np.ndarray, what: str):
    drift = float(np.abs(values).max(initial=0.0)) - 1.0
    if not drift <= 1e-9:  # NaN fails too
        raise NumericalConsistencyError(f"{what} left [-1, 1] by {drift:.3e}")


def _write_atomic(path: Path, chunks) -> None:
    """Write byte ``chunks`` to a temporary file beside ``path``, then rename it to ``path``.

    A write that fails leaves the previous ``path``, or none, never a
    partial one, removes the temporary file and raises its OSError with
    ``path`` as the file name.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
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


def run_trace(cfg: ScanConfig, outdir: Path) -> list[Path]:
    """Emit trace.csv with columns tau_s, coherence, envelope, each range-checked."""
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.field_axis is not None:
        raise ConfigError("trace takes a single tau axis; drop the field axis")
    data = compute_trace(cfg, None)
    _check_range(data.coherence, "coherence")
    _check_range(data.envelope, "envelope")
    out = outdir / "trace.csv"
    write_csv(out, ["tau_s", "coherence", "envelope"],
              zip(map(float, data.taus), map(float, data.coherence),
                  map(float, data.envelope)))
    manifest = outdir / "trace_manifest.json"
    write_manifest(manifest, cfg, "trace", [out.name])
    return [out, manifest]


def _overlay_rows(cfg: ScanConfig, field_values: list[float], models, pols):
    """Analytic overlay curves for map output, when the system has them.

    The overlay reuses the models and polarizations of the map rows.  A
    boundary or estimate that does not exist at a field is written as inf.
    The rows come as one float array: as one float object per cell, held
    while map.csv is written, they raised the peak RSS of a long-running
    process by about 1 MB.
    """
    kind = cfg.system_kind
    if kind == "nv" and cfg.field_axis.name == "omega_x_hz":
        header = ["omega_x_hz", "tau_plus_s", "tau_minus_s"]
        overlay = []
        for f, (model,) in zip(field_values, models):
            try:
                tau_plus, tau_minus = diamond_boundaries(model)
            except ValidationError:  # w_u = w_d = 0: no boundary at all
                tau_plus, tau_minus = math.inf, None
            overlay.append((f, tau_plus, tau_minus if tau_minus is not None else math.inf))
        return header, np.array(overlay)
    if kind == "donor_pair" and cfg.field_axis.name == "b0_tesla":
        header = ["b0_tesla", "tau_avg_s"]
        return header, np.array([(f, avg_hamiltonian_dip(model))
                                 for f, (model,) in zip(field_values, models)])
    if kind == "cluster3" and cfg.donor is not None and cfg.field_axis.name == "b0_tesla":
        labels = None
        overlay = []
        for f, row_pols in zip(field_values, pols):
            est = doublet_dip_estimates(cfg.system, *row_pols)
            est = sorted(est, key=lambda r: r.label)
            if labels is None:
                labels = [r.label for r in est]
            by_label = {r.label: r.tau for r in est}
            overlay.append((f, *[by_label.get(lb, math.inf) for lb in labels]))
        header = ["b0_tesla"] + [f"tau_{lb.replace('+', 'p').replace('-', 'm')}_s"
                                 for lb in (labels or [])]
        return header, np.array(overlay)
    return None, None


def run_map(cfg: ScanConfig, outdir: Path) -> list[Path]:
    """Emit the long-form map CSV, plus PGM and overlay curves if requested.

    All rows come from one ``field_rows`` call over the field axis; the
    overlay rows are computed before any file is written.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.field_axis is None:
        raise ConfigError("map needs a field axis in addition to tau_s")
    field_values = cfg.field_axis.values().tolist()
    quantity = cfg.output.quantity
    values, models, pols = field_rows(cfg, field_values, (quantity,))
    grid = values[quantity]
    _check_range(grid, quantity)
    header, overlay = (_overlay_rows(cfg, field_values, models, pols)
                       if cfg.output.format in ("csv", "both") else (None, None))
    files = []
    if cfg.output.format in ("csv", "both"):
        out_csv = outdir / "map.csv"
        taus = [FLOAT_FORMAT % tau for tau in cfg.tau_axis.values().tolist()]
        write_csv(out_csv, [cfg.field_axis.name, "tau_s", quantity],
                  [zip(taus, row) for row in grid.tolist()],
                  keys=[(f,) for f in field_values])
        files.append(out_csv)
        if overlay is not None:
            out_overlay = outdir / "map_overlay.csv"
            write_csv(out_overlay, header, map(tuple, overlay.tolist()))
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
    ch = _row_hamiltonians(cfg, None, *_polarizations(cfg, [None]))
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
        model, = _two_state_models(cfg, None, *_polarizations(cfg, [None]))
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
            delta, depth = level_repulsion(model, tau_bar, n_p)
            rows.append((tau_bar, "avg_hamiltonian", delta, depth, 1))
    elif cfg.system_kind == "cluster3":
        (p_u, p_d), = _polarizations(cfg, [None])
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
