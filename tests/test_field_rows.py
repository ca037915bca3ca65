"""Differential tests of the field-batched closed-form map kernel.

A map is computed by ``scans.field_rows`` on whole (field, tau) grids, in
chunks of rows; a trace is its one-field call.  Each map row must equal
``compute_trace`` at its field bit for bit, and must match direct 2x2
propagation (``floquet_rows`` on each two-state target, combined as the
product) to 1e-9.  The block budget ``linalg.BLOCK_BYTES`` is shrunk so that
row counts do not divide into whole chunks, or to 0, below one item of
every batched kernel (row chunks, donor polarizations, engine cells), which
then takes one item per block.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqsens import ConfigError, TwoStateModel, ValidationError, coherence_analytic, envelope, si_bi
from floqsens import linalg
from floqsens.cli import main
from floqsens.config import parse_config
from floqsens.engine import floquet_rows
from floqsens.errors import NumericalConsistencyError, locate
from floqsens.pseudospin import two_state_grid
from floqsens.sensors import donor_pair_polarizations
from floqsens.scans import compute_trace, field_rows
from conftest import donor_eigh, level_gaps, near_crossing

TOL = 1e-9


def reference_rows(row_models, cfg, quantity):
    """Each row from floquet_rows on the 2x2 cell of every two-state target."""
    tau_eff = cfg.tau_axis.values() + cfg.sequence.pulse_duration
    n_p = cfg.sequence.n_p
    out = []
    for models in row_models:
        parts = [floquet_rows([m.conditional()], tau_eff, n_p, (quantity,))[quantity][0]
                 for m in models]
        if quantity == "coherence":
            out.append(np.prod(parts, axis=0))
        else:
            combined = parts[0]
            for f in parts[1:]:
                combined = (1.0 + combined) * (1.0 + f) / 2.0 - 1.0
            out.append(combined)
    return np.array(out)


def check_map(cfg, quantity, rows_per_chunk):
    """Map rows against compute_trace (bitwise) and floquet_rows (1e-9), with
    ``rows_per_chunk`` rows per chunk (0: a budget below one item); returns
    the number of rows with a target within 1e-3 of a true crossing
    (``near_crossing``)."""
    n_tau = cfg.tau_axis.count
    fields = cfg.field_axis.values().tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "BLOCK_BYTES", 8 * n_tau * rows_per_chunk)
        values, row_models, _ = field_rows(cfg, fields, (quantity,))
    grid = values[quantity]
    assert grid.shape == (len(fields), n_tau)
    for i, field in enumerate(fields):
        trace = compute_trace(cfg, field, (quantity,))
        assert getattr(trace, quantity).tobytes() == grid[i].tobytes()
        assert field_rows(cfg, [field], (quantity,))[1] == [row_models[i]]
    assert np.abs(grid - reference_rows(row_models, cfg, quantity)).max() <= TOL
    tau_eff = cfg.tau_axis.values() + cfg.sequence.pulse_duration
    return sum(any(near_crossing(m, tau_eff).any() for m in models) for models in row_models)


QUANTITY = st.sampled_from(["coherence", "envelope"])
CHUNK = st.integers(0, 5)
N_P = st.integers(1, 40)


@st.composite
def nv_maps(draw):
    """An NV map whose row ``j`` has a true level crossing at the first tau.

    With omega_z = 0 the fields are h_u = (w_x, a), h_d = (w_x, 0); at
    a = w_x sqrt((m_u / m_d)^2 - 1) and m_u + m_d odd the cell phase is pi
    at s0 = m_d / (2 f), f = w_x / 2 pi.  The first tau lies a relative
    1e-6..4e-5 from s0, where |cos(E/2)| < 1e-3; the others lie 5-30 % away.
    ``flat`` sets a = 0: every row then has h_u == h_d.
    """
    count = draw(st.integers(2, 13))
    j = draw(st.integers(0, count - 1))
    f0 = draw(st.floats(1e3, 1e5))
    step = f0 * draw(st.floats(0.01, 0.2)) / count
    m_d = draw(st.integers(1, 3))
    m_u = m_d + draw(st.sampled_from([1, 3]))
    flat = draw(st.booleans())
    a_hz = 0.0 if flat else f0 * math.sqrt((m_u / m_d) ** 2 - 1.0)
    s0 = m_d / (2.0 * f0)
    delta = draw(st.sampled_from([0.0, 1e-3 * s0]))
    side = draw(st.sampled_from([-1, 1]))
    near = s0 * (1.0 + side * draw(st.floats(1e-6, 4e-5))) - delta
    far = s0 * (1.0 + draw(st.floats(0.05, 0.3))) - delta
    doc = {"system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": a_hz},
           "sequence": {"n_p": draw(N_P), "pulse_duration_s": delta},
           "axes": {"tau_s": {"start": near, "stop": far, "count": draw(st.integers(2, 30))},
                    "omega_x_hz": {"start": f0 - j * step,
                                   "stop": f0 + (count - 1 - j) * step, "count": count}},
           "output": {"format": "csv"}}
    return parse_config(doc), flat


@settings(max_examples=40, deadline=None)
@given(case=nv_maps(), quantity=QUANTITY, chunk=CHUNK)
def test_nv_rows_with_crossings(case, quantity, chunk):
    cfg, flat = case
    near = check_map(cfg, quantity, chunk)
    values, row_models, _ = field_rows(cfg, cfg.field_axis.values().tolist(), (quantity,))
    if flat:
        assert all(m.h_u == m.h_d for (m,) in row_models)
        assert np.all(values[quantity] == 1.0)
    else:
        assert near >= 1


PSEUDOFIELD = st.fixed_dictionaries({"x_rad_s": st.floats(-3e4, 3e4),
                                     "z_rad_s": st.floats(-3e4, 3e4)})


@settings(max_examples=30, deadline=None)
@given(h_u=PSEUDOFIELD, h_d=PSEUDOFIELD, same=st.booleans(), count=st.integers(2, 9),
       quantity=QUANTITY, chunk=CHUNK, n_p=N_P)
def test_pseudospin_row_index_maps(h_u, h_d, same, count, quantity, chunk, n_p):
    cfg = parse_config({
        "system": {"kind": "pseudospin", "h_u": h_u, "h_d": h_u if same else h_d},
        "sequence": {"n_p": n_p},
        "axes": {"tau_s": {"start": 2e-6, "stop": 2.4e-4, "count": 17},
                 "row_index": {"start": 0, "stop": count - 1, "count": count}}})
    check_map(cfg, quantity, chunk)


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(st.fixed_dictionaries({
           "delta_a_rad_s": st.one_of(st.just(0.0), st.floats(-2e5, 2e5)),
           "c12_rad_s": st.floats(500.0, 5e3)}), min_size=1, max_size=3),
       kind=st.sampled_from(["donor_pair", "independent_pairs"]),
       b0=st.floats(0.02, 0.35), span=st.floats(1e-3, 0.1), count=st.integers(2, 9),
       quantity=QUANTITY, chunk=CHUNK, n_p=N_P)
def test_donor_field_sweeps(pairs, kind, b0, span, count, quantity, chunk, n_p):
    system = ({"kind": kind, "donor": "si_bi", "pair": pairs[0]} if kind == "donor_pair"
              else {"kind": kind, "donor": "si_bi", "pairs": pairs})
    cfg = parse_config({
        "system": system, "sequence": {"n_p": n_p},
        "axes": {"tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 23},
                 "b0_tesla": {"start": b0, "stop": b0 + span, "count": count}}})
    check_map(cfg, quantity, chunk)


@st.composite
def crossing_pairs(draw):
    """Independent pairs at fixed polarizations, one pair with a true crossing
    (w_u = m_u scale, w_d = m_d scale, m_u + m_d odd) at s0 = pi / (2 scale);
    the first tau lies where |cos(E/2)| < 1e-3."""
    m_small = draw(st.integers(1, 3))
    m_big = m_small + draw(st.sampled_from([1, 3]))
    p_big = draw(st.floats(0.1, 1.0))
    p_small = p_big * draw(st.floats(0.05, 0.95)) * m_small / m_big
    scale = draw(st.floats(1e3, 1e4))
    span = p_big ** 2 - p_small ** 2
    crossing = {"delta_a_rad_s": 4 * scale * math.sqrt((m_big ** 2 - m_small ** 2) / span),
                "c12_rad_s": 4 * scale * math.sqrt(
                    (m_small ** 2 * p_big ** 2 - m_big ** 2 * p_small ** 2) / span)}
    others = draw(st.lists(st.fixed_dictionaries({
        "delta_a_rad_s": st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda v: v * scale)),
        "c12_rad_s": st.floats(0.2, 3.0).map(lambda v: v * scale)}), max_size=2))
    index = draw(st.integers(0, len(others)))
    s0 = math.pi / (2.0 * scale)
    axis = {"start": s0 * (1.0 + draw(st.floats(1e-6, 4e-5))),
            "stop": s0 * (1.0 + draw(st.floats(0.05, 0.3))), "count": draw(st.integers(2, 12))}
    return others[:index] + [crossing] + others[index:], p_small, p_big, axis


@settings(max_examples=30, deadline=None)
@given(case=crossing_pairs(), count=st.integers(2, 7), quantity=QUANTITY, chunk=CHUNK,
       n_p=N_P)
def test_fixed_polarization_pairs_with_crossings(case, count, quantity, chunk, n_p):
    pairs, p_u, p_d, axis = case
    cfg = parse_config({
        "system": {"kind": "independent_pairs", "pairs": pairs, "p_u": p_u, "p_d": p_d},
        "sequence": {"n_p": n_p},
        "axes": {"tau_s": axis, "row_index": {"start": 0, "stop": 1, "count": count}}})
    assert check_map(cfg, quantity, chunk) == count


MODELS = st.one_of(
    st.tuples(*[st.floats(-3.0, 3.0)] * 4).map(lambda v: TwoStateModel.from_components(*v)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
        lambda v: TwoStateModel.from_components(v[0], v[1], v[0], v[1])),
    # a true crossing at s = pi / 2 (2 w_u s = 2 pi, 2 w_d s = pi)
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
        lambda v: TwoStateModel.from_angles(2.0, v[0], 1.0, v[1])))
CROSSING_TAUS = math.pi / 2 * (1.0 + np.array([-0.3, -2e-5, -1e-6, 1e-6, 3e-5, 0.2, 0.9]))


@settings(max_examples=60, deadline=None)
@given(models=st.lists(MODELS, min_size=1, max_size=8), quantity=QUANTITY, n_p=N_P)
def test_grid_rows_are_their_one_model_calls(models, quantity, n_p):
    vals = two_state_grid(models, CROSSING_TAUS, quantity, n_p)
    for model, row in zip(models, vals):
        one = (coherence_analytic(model, CROSSING_TAUS, n_p) if quantity == "coherence"
               else envelope(model, CROSSING_TAUS))
        assert one.tobytes() == row.tobytes()
        if model.h_u == model.h_d:
            assert np.all(row == 1.0)
        ref = floquet_rows([model.conditional()], CROSSING_TAUS, n_p, (quantity,))[quantity][0]
        assert np.abs(row - ref).max() <= TOL


@settings(max_examples=30, deadline=None)
@given(fields=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       levels=st.sampled_from([(12, 9), (1, 20), (10, 11)]))
def test_batched_polarizations_equal_per_field_solves(fields, levels):
    donor = si_bi(*levels)
    p_u, p_d = donor_pair_polarizations(donor, np.array(fields))
    w, pols = donor_eigh(donor, np.array(fields))
    resolved = level_gaps(w) > 1e-3 * donor.hyperfine_a
    for k, (b0, got_u, got_d) in enumerate(zip(fields, p_u.tolist(), p_d.tolist())):
        assert (got_u, got_d) == donor_pair_polarizations(donor, b0)
        for level, got in zip(levels, (got_u, got_d)):
            if resolved[k, level - 1]:
                assert abs(got - pols[k, level - 1]) <= 1e-13


@pytest.mark.parametrize("kind", ["donor_pair", "independent_pairs", "cluster3"])
def test_negative_field_names_row_0(tmp_path, capsys, kind):
    pair = {"delta_a_rad_s": 180e3, "c12_rad_s": 1.8e3}
    system = {"donor_pair": {"pair": pair}, "independent_pairs": {"pairs": [pair]},
              "cluster3": {"cluster": {"a_rad_s": [180e3, 0.0, 100e3],
                                       "c_rad_s": [[0, 1e3, 2e3], [1e3, 0, 1e3],
                                                   [2e3, 1e3, 0]]}}}[kind]
    doc = {"system": {"kind": kind, "donor": "si_bi", **system},
           "axes": {"tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 5},
                    "b0_tesla": {"start": -0.1, "stop": 0.3, "count": 3}}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["map", "--config", str(tmp_path / "c.json"), "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: row 0 (field -0.1): magnetic field "
                                       "must be finite and >= 0, got -0.1\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad", [2, 17])
def test_polarization_error_index_is_the_field_position(bad):
    # 25 fields take three eigh blocks (10 fields of D = 20 per 64 KiB).
    fields = np.linspace(0.1, 0.3, 25)
    fields[bad:] = -0.5
    with pytest.raises(ValidationError, match="got -0.5") as failure:
        donor_pair_polarizations(si_bi(), fields)
    assert failure.value.index == bad


def test_grid_error_names_its_row_in_a_later_chunk(monkeypatch):
    # Row 4 of 6 (f = 1e4 Hz) fails inside two_state_grid; with two rows per
    # chunk it is evaluated in the third chunk, at position 0 of its chunk.
    import floqsens.scans as scans

    cfg = parse_config({
        "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 1e4 * math.sqrt(3.0)},
        "axes": {"tau_s": {"start": 5e-5 * (1 + 1e-6), "stop": 6e-5, "count": 5},
                 "omega_x_hz": {"start": 6e3, "stop": 1.1e4, "count": 6}}})
    fields = cfg.field_axis.values().tolist()
    assert fields[4] == 1e4
    (bad,), = field_rows(cfg, [1e4])[1]

    def failing_grid(models, *args):
        if bad in models:
            raise locate(NumericalConsistencyError("synthetic"), models.index(bad))
        return two_state_grid(models, *args)

    monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * 5 * 2)
    monkeypatch.setattr(scans, "two_state_grid", failing_grid)
    with pytest.raises(NumericalConsistencyError, match=r"^row 4 \(field 10000\): synthetic$") \
            as failure:
        field_rows(cfg, fields, ("coherence",))
    assert failure.value.index == 4


@pytest.mark.parametrize("kind, axis", [("donor_pair", "b0_tesla"), ("nv", "omega_x_hz")])
def test_swept_config_without_a_field_is_a_config_error(kind, axis):
    system = ({"kind": kind, "donor": "si_bi", "pair": {"delta_a_rad_s": 1e5, "c12_rad_s": 1e3}}
              if kind == "donor_pair" else {"kind": kind, "a_par_hz": 5e4})
    cfg = parse_config({"system": system,
                        "axes": {"tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 5},
                                 axis: {"start": 0.1, "stop": 0.3, "count": 3}}})
    with pytest.raises(ConfigError, match="needs a"):
        compute_trace(cfg)


def test_kernel_failure_of_an_earlier_row_is_named_before_a_phase_failure(monkeypatch):
    # Row 2 (16000 T) exceeds the phase limit before the engine's kernel
    # runs; with a negative half-period tolerance every row fails inside
    # the kernel.  The rows before row 2 still go through it, and row 0,
    # the first failing row, is named.
    import floqsens.engine as engine
    from floqsens import SymmetryViolationError

    cfg = parse_config({
        "system": {"kind": "joint_full", "donor": "si_bi",
                   "cluster": {"a_rad_s": [180e3, 0.0, 100e3],
                               "c_rad_s": [[0, 1e3, 2e3], [1e3, 0, 1e3], [2e3, 1e3, 0]]}},
        "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 4},
                 "b0_tesla": {"start": 0.1, "stop": 16000.0, "count": 3}}})
    fields = cfg.field_axis.values().tolist()
    with pytest.raises(ValidationError, match=r"^row 2 \(field 16000\): largest accumulated phase"):
        field_rows(cfg, fields, ("envelope",))
    monkeypatch.setattr(engine, "PHASE_MATCH_TOL", -1.0)
    with pytest.raises(SymmetryViolationError,
                       match=r"^row 0 \(field 0\.1\): tau\[0\] = 2e-05: u/d eigenphase") as failure:
        field_rows(cfg, fields, ("envelope",))
    assert failure.value.index == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("system", [
    {"kind": "cluster3", "donor": "si_bi", "b0_tesla": 0.15,
     "cluster": {"a_rad_s": [180e3, 0.0, 100e3],
                 "c_rad_s": [[0, 1e3, 2e3], [1e3, 0, 1e3], [2e3, 1e3, 0]]}},
    {"kind": "pseudospin", "h_u": {"x_rad_s": 1e4, "z_rad_s": 3e4},
     "h_d": {"x_rad_s": 1e4, "z_rad_s": -2e4}}], ids=["engine", "closed-form"])
def test_overflowing_interval_is_a_grid_error_at_its_tau(system):
    # parse_config rejects a tau_s stop whose sum with the pulse duration
    # overflows, so the config is built past it.  The failing sum is one of
    # the tau grid, before any row: it names its tau, not a row.
    cfg = parse_config({"system": system,
                        "axes": {"tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 5}}})
    cfg = dataclasses.replace(
        cfg, tau_axis=dataclasses.replace(cfg.tau_axis, start=1e307, stop=1e308),
        sequence=dataclasses.replace(cfg.sequence, pulse_duration=1e308))
    with pytest.raises(ValidationError, match=r"^tau\[4\] = 1e\+308: tau \+ pulse_duration "
                                              r"1e\+308 overflows$") as failure:
        compute_trace(cfg)
    assert failure.value.index == 4
