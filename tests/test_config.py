import json
import math

import pytest

from floqsens import CapacityError, ConfigError
from floqsens.config import MAX_GRID_POINTS, load_config, parse_config


def minimal_pseudospin():
    return {
        "system": {"kind": "pseudospin",
                   "h_u": {"x_rad_s": 1.0e4, "z_rad_s": 4.0e4},
                   "h_d": {"x_rad_s": 1.0e4, "z_rad_s": -1.0e4}},
        "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 50}},
    }


class TestDefaults:
    def test_sequence_defaults(self):
        cfg = parse_config(minimal_pseudospin())
        assert cfg.sequence.n_p == 10
        assert cfg.sequence.pulse_duration == 0.0
        assert cfg.output.quantity == "coherence"
        assert cfg.output.format == "csv"

    def test_hz_conversion(self):
        raw = minimal_pseudospin()
        raw["system"]["h_u"] = {"x_hz": 1e3, "z_hz": 2e3}
        cfg = parse_config(raw)
        assert cfg.system.h_u.x == pytest.approx(2 * math.pi * 1e3)
        assert cfg.system.h_u.z == pytest.approx(2 * math.pi * 2e3)

    def test_n_p_echo(self):
        raw = minimal_pseudospin()
        raw["sequence"] = {"n_p": 20}  # 40 pulses total
        cfg = parse_config(raw)
        assert cfg.resolved["sequence"]["n_p"] == 20


class TestValidation:
    def test_unknown_top_level_key(self):
        raw = minimal_pseudospin()
        raw["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(raw)

    def test_unknown_system_key(self):
        raw = minimal_pseudospin()
        raw["system"]["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(raw)

    def test_missing_unit_suffix(self):
        raw = minimal_pseudospin()
        raw["system"]["h_u"] = {"x": 1.0, "z_rad_s": 1.0}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_conflicting_unit_suffixes(self):
        raw = minimal_pseudospin()
        raw["system"]["h_u"] = {"x_hz": 1.0, "x_rad_s": 6.28, "z_rad_s": 1.0}
        with pytest.raises(ConfigError, match="only one"):
            parse_config(raw)

    def test_reversed_tau_axis(self):
        raw = minimal_pseudospin()
        raw["axes"]["tau_s"] = {"start": 1e-4, "stop": 1e-6, "count": 50}
        with pytest.raises(ConfigError, match="start < stop"):
            parse_config(raw)

    def test_axis_count_minimum(self):
        raw = minimal_pseudospin()
        raw["axes"]["tau_s"]["count"] = 1
        with pytest.raises(ConfigError, match="count"):
            parse_config(raw)

    def test_grid_limit_counts_tau_times_field_points(self):
        raw = minimal_pseudospin()
        raw["axes"]["tau_s"]["count"] = 1000
        raw["axes"]["row_index"] = {"start": 0, "stop": 1, "count": 1000}
        assert parse_config(raw).field_axis.count * 1000 == MAX_GRID_POINTS
        raw["axes"]["row_index"]["count"] = 1001
        with pytest.raises(CapacityError, match="1001000 tau x field points"):
            parse_config(raw)

    def test_two_field_axes_rejected(self):
        raw = minimal_pseudospin()
        raw["axes"]["b0_tesla"] = {"start": 0.1, "stop": 0.2, "count": 3}
        raw["axes"]["row_index"] = {"start": 0, "stop": 1, "count": 2}
        with pytest.raises(ConfigError, match="at most one field axis"):
            parse_config(raw)

    def test_field_axis_kind_mismatch(self):
        raw = minimal_pseudospin()
        raw["axes"]["b0_tesla"] = {"start": 0.1, "stop": 0.2, "count": 3}
        with pytest.raises(ConfigError, match="not valid"):
            parse_config(raw)

    def test_donor_pair_needs_field(self):
        raw = {
            "system": {"kind": "donor_pair", "donor": "si_bi",
                       "pair": {"delta_a_rad_s": 1.8e5, "c12_rad_s": 1.8e3}},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}},
        }
        with pytest.raises(ConfigError, match="b0_tesla"):
            parse_config(raw)
        # a row_index axis sweeps no field
        raw["axes"]["row_index"] = {"start": 0, "stop": 2, "count": 3}
        with pytest.raises(ConfigError, match="b0_tesla"):
            parse_config(raw)

    def test_bad_n_p(self):
        raw = minimal_pseudospin()
        raw["sequence"] = {"n_p": 0}
        with pytest.raises(ConfigError, match="n_p"):
            parse_config(raw)

    @pytest.mark.parametrize("block, key", [("sequence", "pulse_duration_s"),
                                            ("output", "crossing_gap_rad")])
    def test_negative_lengths_rejected(self, block, key):
        raw = minimal_pseudospin()
        raw[block] = {key: -1}
        with pytest.raises(ConfigError, match=rf"^{block}\.{key} must be >= 0$"):
            parse_config(raw)
        raw[block] = {key: 0}
        parse_config(raw)

    def test_bad_quantity(self):
        raw = minimal_pseudospin()
        raw["output"] = {"quantity": "phase"}
        with pytest.raises(ConfigError, match="quantity"):
            parse_config(raw)

    def test_cluster_needs_polarization_source(self):
        raw = {
            "system": {"kind": "cluster3",
                       "cluster": {"a_rad_s": [1e5, 0, 5e4],
                                   "c_rad_s": [[0, 1e3, 2e3], [1e3, 0, 1e3],
                                               [2e3, 1e3, 0]]}},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}},
        }
        with pytest.raises(ConfigError, match="donor"):
            parse_config(raw)
        # independent_pairs shares the sensor block and its message
        raw["system"] = {"kind": "independent_pairs", "p_u": 0.5,
                         "pairs": [{"delta_a_rad_s": 1e5, "c12_rad_s": 1e3}]}
        with pytest.raises(ConfigError, match=r"^system \(independent_pairs\) needs either "
                           r"a donor \(field-dependent polarizations\) or fixed p_u/p_d$"):
            parse_config(raw)

    @pytest.mark.parametrize("kind", ["cluster3", "independent_pairs"])
    @pytest.mark.parametrize("extra", [
        {"system": {"donor": "si_bi", "b0_tesla": 0.15}},
        {"system": {"b0_tesla": 0.15}},
        {"axes": {"b0_tesla": {"start": 0.1, "stop": 0.2, "count": 3}}},
    ], ids=["donor", "fixed-field", "field-axis"])
    def test_fixed_polarizations_take_no_other_source(self, kind, extra):
        # Each of these inputs would be silently ignored by one of the sources.
        bath = ({"cluster": {"a_rad_s": [1e5, 0, 5e4], "c_rad_s": [[0, 1e3, 2e3],
                                                                   [1e3, 0, 1e3],
                                                                   [2e3, 1e3, 0]]}}
                if kind == "cluster3"
                else {"pairs": [{"delta_a_rad_s": 1e5, "c12_rad_s": 1e3}]})
        raw = {"system": {"kind": kind, **bath, "p_u": 0.5, "p_d": -0.5},
               "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}}}
        parse_config(raw)
        for block, keys in extra.items():
            raw[block].update(keys)
        with pytest.raises(ConfigError, match=r"p_u/p_d"):
            parse_config(raw)

    @pytest.mark.parametrize("block, key, value", [
        ("donor", "level_u", 12.7), ("donor", "level_d", 9.0),
        ("sequence", "n_p", 2.5), ("axis", "count", 10.5)])
    def test_integer_fields_reject_non_integers(self, block, key, value):
        raw = {
            "system": {"kind": "donor_pair", "donor": {"preset": "si_bi"},
                       "pair": {"delta_a_rad_s": 1.8e5, "c12_rad_s": 1.8e3},
                       "b0_tesla": 0.15},
            "sequence": {"n_p": 10},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}},
        }
        parse_config(raw)
        target = {"donor": raw["system"]["donor"], "sequence": raw["sequence"],
                  "axis": raw["axes"]["tau_s"]}[block]
        target[key] = value
        with pytest.raises(ConfigError, match=f"'{key}' in .* must be an integer"):
            parse_config(raw)

    @pytest.mark.parametrize("path, where", [
        (("sequence",), "sequence"), (("output",), "output"),
        (("axes", "tau_s"), "axes.tau_s"),
        (("system", "h_u"), r"system \(pseudospin\)\.h_u")])
    def test_blocks_must_be_objects(self, path, where):
        raw = minimal_pseudospin()
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 5
        with pytest.raises(ConfigError, match=f"^{where} must be a JSON object, got 5$"):
            parse_config(raw)

    @pytest.mark.parametrize("spin", [1e6, 1100.5])
    def test_donor_dimension_is_bounded_at_load(self, spin):
        # 2 (2I + 1) > MAX_DIM: rejected before any spin operator is built.
        raw = {
            "system": {"kind": "donor_pair",
                       "donor": {"hyperfine_a_hz": 1.4754e9, "nuclear_spin": spin,
                                 "gamma_e_hz_per_tesla": 27.997e9,
                                 "delta_gamma": 2.488e-4,
                                 "level_u": 12, "level_d": 9},
                       "pair": {"delta_a_rad_s": 1.8e5, "c12_rad_s": 1.8e3},
                       "b0_tesla": 0.15},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}},
        }
        with pytest.raises(CapacityError, match="donor space"):
            parse_config(raw)

    def test_unknown_donor_preset(self):
        raw = {
            "system": {"kind": "donor_pair", "donor": "si_p",
                       "pair": {"delta_a_rad_s": 1.8e5, "c12_rad_s": 1.8e3},
                       "b0_tesla": 0.1},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}},
        }
        with pytest.raises(ConfigError, match="preset"):
            parse_config(raw)


class TestShippedConfigs:
    def test_sample_configs_parse(self):
        from pathlib import Path
        configs = sorted((Path(__file__).parent.parent / "scripts" / "configs").glob("*.json"))
        assert len(configs) >= 5
        for path in configs:
            cfg = load_config(path)
            assert cfg.tau_axis.count >= 2


class TestLoad:
    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_integer_of_more_digits_than_int_reads(self, tmp_path):
        # Valid JSON, but json.loads raises a plain ValueError past the
        # interpreter's limit on digits converted to int (4300 by default).
        path = tmp_path / "long.json"
        path.write_text('{"sequence": {"n_p": ' + "1" * 5000 + "}}")
        with pytest.raises(ConfigError, match="unreadable as JSON"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal_pseudospin()))
        cfg = load_config(path)
        assert cfg.system_kind == "pseudospin"
        assert cfg.tau_axis.count == 50
        assert len(cfg.content_hash()) == 40

    def test_custom_donor_object(self):
        raw = {
            "system": {"kind": "donor_pair",
                       "donor": {"hyperfine_a_hz": 1.4754e9, "nuclear_spin": 4.5,
                                 "gamma_e_hz_per_tesla": 27.997e9,
                                 "delta_gamma": 2.488e-4,
                                 "level_u": 12, "level_d": 9},
                       "pair": {"delta_a_rad_s": 1.8e5, "c12_rad_s": 1.8e3},
                       "b0_tesla": 0.15},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1e-4, "count": 10}},
        }
        cfg = parse_config(raw)
        assert cfg.donor.dim == 20
        assert cfg.donor.gamma_e == pytest.approx(2 * math.pi * 27.997e9)
