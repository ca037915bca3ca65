"""Sweep engine and file emission for the command-line front end.

A map computes its rows in one ``field_rows`` call and ``compute_trace``
is the one-field call, so a map row and the trace at its field are
bitwise identical.  The donor polarizations of all fields come from
the closed-form levels of ``sensors.donor_levels``.  Products of
independent two-state targets (the two-state systems and
``independent_pairs``) are evaluated in closed form on (rows, tau)
grids, in chunks of rows of at most ``linalg.BLOCK_BYTES`` per array,
with no joint 2^k space.  Every other system (``cluster3``,
``joint_full``) goes through one call of the engine's row kernel
``floquet_rows`` for all fields: it splits each field's cells into the
sectors that H_u and H_d conserve (total Iz for cluster baths), stacks
the (field, sector, tau) cells of equal sector size across fields, and
adds the sector contributions up per field (coherence
sum_b Re tr_b(P_u^dag P_d) / D, floor (2/D) sum_b w_b - 1).  A map asks
only for the quantity it emits and a trace asks for both; each value is
the same either way.  The overlay curves of a map reuse the models and
polarizations of its rows.  The engine diagonalizes every dense cell
with one batched eigensolver (``linalg.eig_unitaries``) and sums the
envelope floor over whole clusters of degenerate eigenphases, so a
floor does not depend on the eigenbasis picked inside a cluster.

A run whose largest accumulated phase exceeds ``MAX_PHASE_RAD`` is
rejected with ValidationError (CLI exit 2) before anything is written;
past that phase cos and sin lose their significant digits.  The phase is
the spectral radius of H_u, H_d (for the engine's maps and spectra from
their sector eigenvalues and offsets, ``ConditionalHamiltonians.spectral_radius``) times
``cells`` cells of length 4 max(tau + delta): n_p cells where coherence
or dip depths are computed, one for envelope-only rows and spectra.

CSV output is UTF-8 with ``\n`` line endings and full ``%.17g``
precision.  Float cells are formatted by NumPy array arithmetic
(``_format_floats``), byte for byte equal to ``'%.17g' % v``; fewer than
FORMAT_ARRAY_MIN cells at a time, and values outside its exact range,
take ``'%.17g'`` itself.  ``write_csv`` lays out each slice of lines as
one byte matrix, and a map formats each field and each tau value once,
not once per line.  Maps can also be
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
from .engine import QUANTITIES, ConditionalHamiltonians, _free_intervals, floquet_rows, \
    spectrum_scan
from .errors import ConfigError, NumericalConsistencyError, ValidationError, locate
from .linalg import block_slices, two_product
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
# Bytes of a formatted float cell: a sign, the zeros of '0.000', 17 digits
# and a point, and an exponent 'e-0k'.  The longest FLOAT_FORMAT of any
# double (24 bytes) fits as well.
CELL_BYTES = 27
# Fewer float cells than this are formatted by FLOAT_FORMAT one by one: the
# array path costs a fixed ~150 NumPy calls, more than Python's own
# formatting of a few hundred values.  Either way the bytes are the same.
FORMAT_ARRAY_MIN = 512


@dataclass(frozen=True)
class TraceData:
    """One computed trace over the tau grid; a quantity not computed is None."""

    taus: np.ndarray
    coherence: np.ndarray | None
    envelope: np.ndarray | None


def _polarizations(cfg: ScanConfig, fields: list) -> list[tuple[float, float] | None]:
    """The sensor's (P_u, P_d) at each field, from one ``donor_pair_polarizations``
    call (None for systems without a polarized sensor).  A failing field
    raises with ``index`` set to its position."""
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
    ``floquet_rows`` call for all fields.  A row whose largest accumulated
    phase exceeds MAX_PHASE_RAD raises ValidationError: the spectral radius
    (max(sum_k w_u,k, sum_k w_d,k) for two-state targets) times n_p cells
    of length 4 max(tau + delta) when coherence is asked for, one cell
    otherwise.  An error's ``index`` is its row, and its message starts
    'row i (field f): ' when that row's field is given (not None).  The
    first failing row is named: on the engine path the rows before one
    that fails to build or exceeds the phase limit still go through the
    kernel, which names its first failing row and tau.  A tau + delta that
    overflows is a grid error, raised before any row: its message names the
    tau, and its ``index`` is that tau.
    """
    taus = cfg.tau_axis.values()
    n_p = cfg.sequence.n_p
    delta = cfg.sequence.pulse_duration
    tau_eff = _free_intervals(taus, delta)
    cells = n_p if "coherence" in quantities else 1
    tau_max = float(taus.max())
    try:
        pols = _polarizations(cfg, fields)
        if cfg.system_kind in ("cluster3", "joint_full"):
            chs, failure = [], None
            for i, field in enumerate(fields):
                try:
                    ch = _row_hamiltonians(cfg, field, pols[i])
                    _require_phase(ch.spectral_radius, tau_max, delta, cells)
                except (ValidationError, NumericalConsistencyError) as exc:
                    failure = locate(exc, i)
                    break
                chs.append(ch)
            # The rows before a failing one go through the kernel first: one
            # of them may fail there, and the first failing row is named.
            values = floquet_rows(chs, taus, n_p, quantities, pulse_duration=delta)
            if failure is not None:
                raise failure
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
        values = {q: np.empty((len(fields), taus.size)) for q in quantities}
        for q in quantities:
            _closed_form(models, tau_eff, n_p, q, values[q])
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


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e = a 10^(16 - k) exactly, for 0 <= 16 - k <= 22.

    In that range 10^(16 - k) is an exact double; p is the rounded product
    and e its rounding error (``linalg.two_product``).
    """
    return two_product(a, np.array([float(10 ** j) for j in range(23)])[16 - k])


def _reference_cells(x: np.ndarray) -> np.ndarray:
    """``FLOAT_FORMAT % v`` of every value, one Python call each, as cells."""
    text = np.array([(FLOAT_FORMAT % v).encode() for v in x.tolist()], dtype=f"S{CELL_BYTES}")
    return text.view(np.uint8).reshape(-1, CELL_BYTES)


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``FLOAT_FORMAT % v`` of every value, as an (n, CELL_BYTES) uint8 array
    of ASCII cells padded with null bytes, which the writer drops.

    With k = floor(log10 |x|) the 17 digits are the integer
    N = round-half-even(|x| 10^(16 - k)) in [10^16, 10^17), exact from
    ``_scaled``: p >= 10^16 > 2^53 is an even integer, so N = p + rint(e).
    k comes from ``log10`` and is corrected where that is one decade off.
    The digits are laid out as '%g' does: fixed notation for -4 <= k < 17,
    'e-0k' otherwise, trailing zeros and a bare point dropped, '-' for a
    negative sign.  Values with |x| outside [1e-7, 1e17) (0, -0, non-finite,
    subnormal) and values whose k leaves [-6, 16], where 10^(16 - k) is not
    exact, are formatted by FLOAT_FORMAT itself, and so is every value of
    an array shorter than FORMAT_ARRAY_MIN.  No double in the exact range
    lies within 5e-18 below a power of ten, so none rounds up to
    N = 10^17; the doubles that do (1e-14, 1e98, ...) lie outside it.  The
    arithmetic runs on one row per character position, so each step is one
    long vector.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < FORMAT_ARRAY_MIN:
        return _reference_cells(x)
    a = np.abs(x)
    exact = (a >= 1e-7) & (a < 1e17)  # NaN fails too
    a = np.where(exact, a, 1.0)
    k = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 16)
    p, e = _scaled(a, k)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))  # p + e < 10^16
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    k = k - low + high
    redo = (low | high) & (k >= -6) & (k <= 16)
    if redo.any():
        p[redo], e[redo] = _scaled(a[redo], k[redo])
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    exact &= (k >= -6) & (k <= 16)
    k[~exact] = 0
    size = x.size
    digits = np.empty((17, size), np.uint8)  # row j: digit j, most significant first
    for j in range(16, -1, -1):
        q = n // 10
        digits[j] = n - 10 * q
        n = q
    rows = np.arange(22, dtype=np.uint8)[:, None]
    last = ((digits != 0) * rows[:17]).max(axis=0)  # the last nonzero digit
    point = np.where(k >= -4, k, 0)  # the point follows digit `point`
    # v: rows 0-3 the zeros of '0.000', rows 4-20 the digits up to the last
    # nonzero one or the units digit; the point goes after row `at`.
    at = (4 + point).astype(np.uint8)
    v = np.zeros((22, size), np.uint8)
    v[:4] = (rows[:4] >= at) * np.uint8(ord("0"))
    kept = rows[:17] <= np.maximum(last, point).astype(np.uint8)
    v[4:21] = (digits + np.uint8(ord("0"))) * kept
    cells = np.zeros((CELL_BYTES, size), np.uint8)
    cells[0] = np.signbit(x) * np.uint8(ord("-"))
    body = cells[1:23]
    body[1:] = v[:21]
    np.copyto(body, v, where=rows <= at)
    body[at + 1, np.arange(size)] = np.where(last > point, ord("."), 0)
    small = k < -4
    cells[23:26] = np.array([[ord("e")], [ord("-")], [ord("0")]], np.uint8) * small
    cells[26] = (ord("0") - k) * small
    cells = np.ascontiguousarray(cells.T)
    rest = np.flatnonzero(~exact)
    if rest.size:
        cells[rest] = _reference_cells(x[rest])
    return cells


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _lines(columns) -> np.ndarray:
    """The bytes of the CSV lines of equal-length columns (see ``write_csv``):
    the float columns formatted in one call, then one byte matrix of cells,
    commas and newlines, null bytes dropped."""
    cells = list(columns)
    floats = [i for i, c in enumerate(cells) if _is_float(c)]
    if floats:
        formatted = _format_floats(np.stack([cells[i] for i in floats]))
        for i, block in zip(floats, np.split(formatted, len(floats))):
            cells[i] = block
    for i, c in enumerate(cells):
        if not (isinstance(c, np.ndarray) and c.dtype == np.uint8):
            text = np.array([str(v).encode("utf-8") for v in c], dtype=bytes)
            cells[i] = text.view(np.uint8).reshape(len(text), -1)
    line = np.zeros((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
    at = 0
    for c in cells:
        line[:, at:at + c.shape[1]] = c
        at += c.shape[1] + 1
        line[:, at - 1] = ord(",")
    line[:, -1] = ord("\n")
    return line[line != 0]


def write_csv(path: Path, header: list[str], blocks) -> None:
    """Write a UTF-8 CSV file with ``\\n`` line endings, atomically.

    ``blocks`` yields the lines as blocks of equal-length columns.  A float
    array is a column of ``%.17g`` cells (``_format_floats``), a uint8
    array a column of cells it formatted before, and any other sequence a
    column of str() cells.  Each block is laid out and written in slices
    holding at most ``linalg.BLOCK_BYTES`` of float64 cells, so the file is
    streamed and never held whole.
    """
    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        for columns in blocks:
            columns = list(columns)
            floats = sum(map(_is_float, columns))
            for part in block_slices(len(columns[0]), 8 * max(floats, 1)):
                yield _lines([c[part] for c in columns])

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
              [(data.taus, data.coherence, data.envelope)])
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
        taus, fields = np.split(_format_floats(np.concatenate(
            [cfg.tau_axis.values(), field_values])), [cfg.tau_axis.count])
        write_csv(out_csv, [cfg.field_axis.name, "tau_s", quantity],
                  ((np.repeat(fields[rows], len(taus), axis=0),
                    np.tile(taus, (rows.stop - rows.start, 1)), grid[rows].ravel())
                   for rows in block_slices(len(fields), 8 * len(taus))))
        files.append(out_csv)
        if overlay is not None:
            out_overlay = outdir / "map_overlay.csv"
            write_csv(out_overlay, header, [overlay.T])
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
    _require_phase(ch.spectral_radius, cfg.tau_axis.stop, cfg.sequence.pulse_duration, 1)
    scan = spectrum_scan(ch, cfg.tau_axis.values(),
                         pulse_duration=cfg.sequence.pulse_duration,
                         gap_threshold=cfg.output.crossing_gap)
    dim = scan.phases.shape[1]
    header = ["tau_s"] + [f"phase_{k + 1}" for k in range(dim)] + ["crossing"]
    out = outdir / "spectrum.csv"
    write_csv(out, header, [(scan.taus, *scan.phases.T, scan.crossings.astype(int))])
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
    tau, method, delta, depth, harmonic = zip(*rows) if rows else [()] * 5
    out = outdir / "dips.csv"
    write_csv(out, ["tau_dip_s", "method", "delta_rad", "depth", "harmonic"],
              [(np.array(tau, float), method, np.array(delta, float),
                np.array(depth, float), harmonic)])
    manifest = outdir / "dips_manifest.json"
    write_manifest(manifest, cfg, "dips", [out.name])
    return [out, manifest]
