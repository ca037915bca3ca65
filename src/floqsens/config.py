"""Scan configuration: JSON ingestion, unit normalization and validation.

Physical quantities carry unit-suffixed keys (``a_par_hz``, ``b0_tesla``,
``tau_start_s``...).  Frequencies given with an ``_hz`` suffix are
converted to angular rad/s by 2 pi at load; ``_rad_s`` values pass
through.  Unknown keys are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .clusters import PairSet, SpinCluster
from .engine import QUANTITIES
from .errors import CapacityError, ConfigError
from .pseudospin import PseudoField, TwoStateModel
from .sensors import DonorModel, NVModel, PairTarget, si_bi

TWO_PI = 2.0 * math.pi

SYSTEM_KINDS = ("pseudospin", "nv", "donor_pair", "cluster3",
                "independent_pairs", "joint_full")
FIELD_AXES = {"b0_tesla", "omega_x_hz", "row_index"}
FORMATS = ("csv", "pgm", "both")
# Largest tau count times field count of one run.  A 1000 x 1000 NV map
# (10^6 points) takes 1.8-2.6 s and 142 MB peak RSS on a 2-core Xeon with
# single-threaded BLAS, and the largest shipped map has 24 200 points.
# Memory grows linearly past that: 10^12 tau points would need 8 TB for
# the axis alone.
MAX_GRID_POINTS = 10**6


def _require_keys(obj: Any, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _floats(val, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as float64: the one numeric read
    of a config.  An integer beyond the double range (1 followed by 400 zeros
    is valid JSON) or a non-number raises ConfigError naming ``what``."""
    try:
        return np.asarray(val, dtype=float)
    except OverflowError:
        raise ConfigError(f"{what} is beyond the double range") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be numeric: {exc}") from None


def _number(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing '{key}' in {where}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{key}' in {where} must be a number, got {val!r}")
    val = float(_floats(val, f"'{key}' in {where}"))
    if not math.isfinite(val):
        raise ConfigError(f"'{key}' in {where} must be finite")
    return val


def _integer(obj: dict, key: str, where: str, default=None) -> int:
    """A JSON integer within the double range, so no later stage overflows on
    it; a bool, a float such as 12.7 or 12.0 and a string are rejected."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing '{key}' in {where}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{key}' in {where} must be an integer, got {val!r}")
    _floats(val, f"'{key}' in {where}")
    return val


def _angular(obj: dict, stem: str, where: str, default=None) -> float:
    """Read '<stem>_hz' (times 2 pi) or '<stem>_rad_s' (as is)."""
    hz_key, rad_key = f"{stem}_hz", f"{stem}_rad_s"
    if hz_key in obj and rad_key in obj:
        raise ConfigError(f"give only one of '{hz_key}' / '{rad_key}' in {where}")
    if hz_key in obj:
        return TWO_PI * _number(obj, hz_key, where)
    if rad_key in obj:
        return _number(obj, rad_key, where)
    if default is None:
        raise ConfigError(f"missing '{hz_key}' or '{rad_key}' in {where} "
                          f"(frequencies need an explicit unit suffix)")
    return default


@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: grid of count values from start to stop."""

    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"axis '{self.name}' needs count >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ConfigError(f"axis '{self.name}' needs start < stop, "
                              f"got [{self.start}, {self.stop}]")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"axis '{self.name}' spacing must be linear or log")
        if self.spacing == "log" and self.start <= 0:
            raise ConfigError(f"log-spaced axis '{self.name}' needs start > 0")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SequenceSpec:
    n_p: int = 10
    pulse_duration: float = 0.0


@dataclass(frozen=True)
class OutputSpec:
    quantity: str = "coherence"
    format: str = "csv"
    crossing_gap: float = 1e-2


@dataclass(frozen=True)
class ScanConfig:
    """Fully validated scan description."""

    system_kind: str
    system: Any
    donor: DonorModel | None
    fixed_field: float | None
    polarizations: tuple[float, float] | None
    sequence: SequenceSpec
    tau_axis: AxisSpec
    field_axis: AxisSpec | None
    output: OutputSpec
    resolved: dict = field(repr=False, default_factory=dict)

    def content_hash(self) -> str:
        blob = json.dumps(self.resolved, sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()


def _parse_pseudofield(obj: dict, where: str) -> PseudoField:
    _require_keys(obj, {"x_hz", "x_rad_s", "z_hz", "z_rad_s"}, set(), where)
    return PseudoField(x=_angular(obj, "x", where), z=_angular(obj, "z", where))


def _parse_donor(obj, where: str) -> DonorModel:
    if isinstance(obj, str):
        if obj != "si_bi":
            raise ConfigError(f"unknown donor preset '{obj}' in {where}")
        return si_bi()
    if not isinstance(obj, dict):
        raise ConfigError(f"donor in {where} must be a preset name or an object")
    if obj.get("preset") == "si_bi":
        allowed = {"preset", "level_u", "level_d"}
        _require_keys(obj, allowed, {"preset"}, where)
        return si_bi(level_u=_integer(obj, "level_u", where, 12),
                     level_d=_integer(obj, "level_d", where, 9))
    allowed = {"hyperfine_a_hz", "hyperfine_a_rad_s", "nuclear_spin",
               "gamma_e_hz_per_tesla", "gamma_e_rad_s_per_tesla",
               "delta_gamma", "level_u", "level_d"}
    _require_keys(obj, allowed, {"nuclear_spin", "delta_gamma", "level_u", "level_d"}, where)
    gamma_keys = {"gamma_e_hz_per_tesla", "gamma_e_rad_s_per_tesla"} & set(obj)
    if len(gamma_keys) != 1:
        raise ConfigError(f"give exactly one gamma_e key in {where}")
    gamma = (TWO_PI * _number(obj, "gamma_e_hz_per_tesla", where)
             if "gamma_e_hz_per_tesla" in obj
             else _number(obj, "gamma_e_rad_s_per_tesla", where))
    return DonorModel(hyperfine_a=_angular(obj, "hyperfine_a", where),
                      nuclear_spin=_number(obj, "nuclear_spin", where),
                      gamma_e=gamma,
                      delta_gamma=_number(obj, "delta_gamma", where),
                      level_u=_integer(obj, "level_u", where),
                      level_d=_integer(obj, "level_d", where))


def _parse_pair(obj: dict, where: str) -> PairTarget:
    _require_keys(obj, {"delta_a_hz", "delta_a_rad_s", "c12_hz", "c12_rad_s"}, set(), where)
    return PairTarget(delta_a=_angular(obj, "delta_a", where),
                      c12=_angular(obj, "c12", where))


def _parse_cluster(obj: dict, where: str) -> SpinCluster:
    _require_keys(obj, {"a_hz", "a_rad_s", "c_hz", "c_rad_s"}, set(), where)
    a_keys = {"a_hz", "a_rad_s"} & set(obj)
    c_keys = {"c_hz", "c_rad_s"} & set(obj)
    if len(a_keys) != 1 or len(c_keys) != 1:
        raise ConfigError(f"cluster in {where} needs exactly one hyperfine 'a_*' "
                          f"and one dipolar 'c_*' list")
    a_key, c_key = a_keys.pop(), c_keys.pop()
    scale_a = TWO_PI if a_key == "a_hz" else 1.0
    scale_c = TWO_PI if c_key == "c_hz" else 1.0
    return SpinCluster(a=scale_a * _floats(obj[a_key], f"'{a_key}' in {where}"),
                       c=scale_c * _floats(obj[c_key], f"'{c_key}' in {where}"))


def _parse_sensor(sys_obj: dict, where: str, field_swept: bool
                  ) -> tuple[DonorModel | None, float | None, tuple[float, float] | None]:
    """(donor, fixed b0_tesla, (p_u, p_d)) of a bath system's sensor.

    Exactly one source sets the polarizations: a donor at a field that is
    fixed ('b0_tesla') or swept (a b0_tesla axis), or fixed p_u/p_d, which
    take no field.
    """
    fixed_field = _number(sys_obj, "b0_tesla", where) if "b0_tesla" in sys_obj else None
    if "donor" in sys_obj:
        if "p_u" in sys_obj or "p_d" in sys_obj:
            raise ConfigError(f"{where} takes a donor or fixed p_u/p_d, not both")
        donor = _parse_donor(sys_obj["donor"], where + ".donor")
        if fixed_field is None and not field_swept:
            raise ConfigError(f"{where} needs 'b0_tesla' fixed in the system "
                              f"block or a b0_tesla field axis")
        return donor, fixed_field, None
    if "p_u" in sys_obj and "p_d" in sys_obj:
        if fixed_field is not None or field_swept:
            raise ConfigError(f"{where} with fixed p_u/p_d takes no b0_tesla: "
                              f"a field acts only through a donor")
        return None, None, (_number(sys_obj, "p_u", where), _number(sys_obj, "p_d", where))
    raise ConfigError(f"{where} needs either a donor (field-dependent "
                      f"polarizations) or fixed p_u/p_d")


def _parse_system(cfg: dict, field_axis: AxisSpec | None
                  ) -> tuple[str, Any, DonorModel | None, float | None,
                             tuple[float, float] | None]:
    sys_obj = cfg.get("system")
    if not isinstance(sys_obj, dict) or "kind" not in sys_obj:
        raise ConfigError("config needs a 'system' object with a 'kind'")
    kind = sys_obj["kind"]
    if kind not in SYSTEM_KINDS:
        raise ConfigError(f"unknown system kind '{kind}'; choose from {SYSTEM_KINDS}")
    if field_axis is not None:
        valid = {"nv": {"omega_x_hz", "row_index"},
                 "pseudospin": {"row_index"}}.get(kind, {"b0_tesla", "row_index"})
        if field_axis.name not in valid:
            raise ConfigError(f"field axis '{field_axis.name}' not valid for "
                              f"system '{kind}' (use one of {sorted(valid)})")
    field_swept = field_axis is not None and field_axis.name == "b0_tesla"
    where = f"system ({kind})"
    donor = None
    fixed_field = None
    polarizations = None

    if kind == "pseudospin":
        _require_keys(sys_obj, {"kind", "h_u", "h_d"}, {"h_u", "h_d"}, where)
        system = TwoStateModel(h_u=_parse_pseudofield(sys_obj["h_u"], where + ".h_u"),
                               h_d=_parse_pseudofield(sys_obj["h_d"], where + ".h_d"))
    elif kind == "nv":
        allowed = {"kind", "omega_x_hz", "omega_x_rad_s", "omega_z_hz",
                   "omega_z_rad_s", "a_par_hz", "a_par_rad_s"}
        _require_keys(sys_obj, allowed, set(), where)
        system = NVModel(omega_x=_angular(sys_obj, "omega_x", where, default=0.0),
                         omega_z=_angular(sys_obj, "omega_z", where, default=0.0),
                         a_par=_angular(sys_obj, "a_par", where))
    elif kind == "donor_pair":
        _require_keys(sys_obj, {"kind", "donor", "pair", "b0_tesla"},
                      {"donor", "pair"}, where)
        donor, fixed_field, polarizations = _parse_sensor(sys_obj, where, field_swept)
        system = _parse_pair(sys_obj["pair"], where + ".pair")
    elif kind == "cluster3":
        allowed = {"kind", "cluster", "donor", "b0_tesla", "p_u", "p_d"}
        _require_keys(sys_obj, allowed, {"cluster"}, where)
        system = _parse_cluster(sys_obj["cluster"], where + ".cluster")
        donor, fixed_field, polarizations = _parse_sensor(sys_obj, where, field_swept)
    elif kind == "independent_pairs":
        allowed = {"kind", "pairs", "donor", "b0_tesla", "p_u", "p_d"}
        _require_keys(sys_obj, allowed, {"pairs"}, where)
        pairs_obj = sys_obj["pairs"]
        if not isinstance(pairs_obj, list) or not pairs_obj:
            raise ConfigError(f"{where}.pairs must be a non-empty list")
        system = PairSet(pairs=tuple(
            _parse_pair(p, f"{where}.pairs[{i}]") for i, p in enumerate(pairs_obj)))
        donor, fixed_field, polarizations = _parse_sensor(sys_obj, where, field_swept)
    else:  # joint_full
        _require_keys(sys_obj, {"kind", "donor", "cluster", "b0_tesla"},
                      {"donor", "cluster"}, where)
        donor, fixed_field, polarizations = _parse_sensor(sys_obj, where, field_swept)
        system = _parse_cluster(sys_obj["cluster"], where + ".cluster")
    return kind, system, donor, fixed_field, polarizations


def _parse_axes(cfg: dict) -> tuple[AxisSpec, AxisSpec | None]:
    axes_obj = cfg.get("axes")
    if not isinstance(axes_obj, dict) or "tau_s" not in axes_obj:
        raise ConfigError("config needs an 'axes' object with at least 'tau_s'")
    known = {"tau_s"} | FIELD_AXES
    _require_keys(axes_obj, known, {"tau_s"}, "axes")
    field_keys = [k for k in axes_obj if k in FIELD_AXES]
    if len(field_keys) > 1:
        raise ConfigError(f"at most one field axis allowed, got {field_keys}")

    def build(name: str, obj: dict) -> AxisSpec:
        _require_keys(obj, {"start", "stop", "count", "spacing"},
                      {"start", "stop", "count"}, f"axes.{name}")
        return AxisSpec(name=name, start=_number(obj, "start", name),
                        stop=_number(obj, "stop", name),
                        count=_integer(obj, "count", f"axes.{name}"),
                        spacing=obj.get("spacing", "linear"))

    tau_axis = build("tau_s", axes_obj["tau_s"])
    if tau_axis.start <= 0:
        raise ConfigError("tau_s axis must start above 0")
    field_axis = build(field_keys[0], axes_obj[field_keys[0]]) if field_keys else None
    return tau_axis, field_axis


def parse_config(cfg: dict) -> ScanConfig:
    """Validate a parsed JSON document into a ScanConfig."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    _require_keys(cfg, {"system", "sequence", "axes", "output"}, {"system", "axes"},
                  "top level")
    tau_axis, field_axis = _parse_axes(cfg)
    kind, system, donor, fixed_field, polarizations = _parse_system(cfg, field_axis)
    points = tau_axis.count * (field_axis.count if field_axis is not None else 1)
    if points > MAX_GRID_POINTS:
        raise CapacityError(f"scan grid of {points} tau x field points exceeds "
                            f"{MAX_GRID_POINTS}")

    seq_obj = cfg.get("sequence", {})
    _require_keys(seq_obj, {"n_p", "pulse_duration_s"}, set(), "sequence")
    n_p = _integer(seq_obj, "n_p", "sequence", default=10)
    if n_p < 1:
        raise ConfigError(f"sequence.n_p must be a positive integer, got {n_p!r}")
    sequence = SequenceSpec(n_p=n_p,
                            pulse_duration=_number(seq_obj, "pulse_duration_s",
                                                   "sequence", default=0.0))
    if sequence.pulse_duration < 0:
        raise ConfigError("sequence.pulse_duration_s must be >= 0")
    if not math.isfinite(tau_axis.stop + sequence.pulse_duration):  # the longest interval
        raise ConfigError(f"tau_s stop {tau_axis.stop:g} + sequence.pulse_duration_s "
                          f"{sequence.pulse_duration:g} overflows")

    out_obj = cfg.get("output", {})
    _require_keys(out_obj, {"quantity", "format", "crossing_gap_rad"}, set(), "output")
    quantity = out_obj.get("quantity", "coherence")
    fmt = out_obj.get("format", "csv")
    if quantity not in QUANTITIES:
        raise ConfigError(f"output.quantity must be one of {QUANTITIES}")
    if fmt not in FORMATS:
        raise ConfigError(f"output.format must be one of {FORMATS}")
    output = OutputSpec(quantity=quantity, format=fmt,
                        crossing_gap=_number(out_obj, "crossing_gap_rad", "output",
                                             default=1e-2))
    if output.crossing_gap < 0:
        raise ConfigError("output.crossing_gap_rad must be >= 0")

    resolved = {
        "system": {"kind": kind},
        "sequence": {"n_p": sequence.n_p, "pulse_duration_s": sequence.pulse_duration},
        "axes": {
            "tau_s": {"start": tau_axis.start, "stop": tau_axis.stop,
                      "count": tau_axis.count, "spacing": tau_axis.spacing},
        },
        "output": {"quantity": output.quantity, "format": output.format},
        "input": cfg,
    }
    if field_axis is not None:
        resolved["axes"][field_axis.name] = {
            "start": field_axis.start, "stop": field_axis.stop,
            "count": field_axis.count, "spacing": field_axis.spacing}
    return ScanConfig(system_kind=kind, system=system, donor=donor,
                      fixed_field=fixed_field, polarizations=polarizations,
                      sequence=sequence, tau_axis=tau_axis, field_axis=field_axis,
                      output=output, resolved=resolved)


def load_config(path: str | Path) -> ScanConfig:
    """Load and validate a JSON scan configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ConfigError(f"{path}: unreadable as UTF-8 JSON: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: JSON parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal of more digits than int() reads
        raise ConfigError(f"{path}: unreadable as JSON: {exc}")
    return parse_config(cfg)
