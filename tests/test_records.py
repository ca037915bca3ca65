"""The checked records: every way of making one runs its checks.

Seven records check or normalize their fields in ``__new__``: AxisSpec,
NVModel, DonorModel, PairTarget, SpinCluster, PseudoField and
ConditionalHamiltonians.  A named tuple can also be made by ``_make``
(which ``_replace`` calls) and by unpickling, and each of those must raise
the constructor's exception, with its message, on the same bad field.
"""

import pickle

import numpy as np
import pytest

from floqsens import (
    CapacityError,
    ConditionalHamiltonians,
    ConfigError,
    DonorModel,
    NVModel,
    PairTarget,
    PseudoField,
    SpinCluster,
    ValidationError,
    si_bi,
)
from floqsens.config import AxisSpec

CLUSTER_A = [180e3, 0.0, 100e3]
CLUSTER_C = [[0.0, 1e3, 2e3], [1e3, 0.0, 1e3], [2e3, 1e3, 0.0]]

# (record, good fields, the field made bad, its bad value, exception type, message)
CASES = {
    "axis-count": (AxisSpec, dict(name="tau_s", start=1e-6, stop=2e-6, count=5, spacing="log"),
                   "count", 1, ConfigError, "axis 'tau_s' needs count >= 2, got 1"),
    "axis-log-start": (AxisSpec, dict(name="b0_tesla", start=1.0, stop=2.0, count=3,
                                      spacing="log"),
                       "start", -1.0, ConfigError, "log-spaced axis 'b0_tesla' needs start > 0"),
    "nv": (NVModel, dict(omega_x=1e4, omega_z=2e4, a_par=3e5),
           "a_par", -1.0, ValidationError, "parallel hyperfine must be >= 0, got -1.0"),
    "donor-levels": (DonorModel, si_bi()._asdict(), "level_d", 12, ValidationError,
                     "transition levels must be distinct"),
    "donor-dim": (DonorModel, si_bi()._asdict(), "nuclear_spin", 2047.5, CapacityError,
                  "donor space of dim 8192 exceeds maximum 4096"),
    "pair": (PairTarget, dict(delta_a=2e4, c12=1e3), "delta_a", float("nan"),
             ValidationError, "pair couplings must be finite, got "
                              "PairTarget(delta_a=nan, c12=1000.0)"),
    "pseudofield": (PseudoField, dict(x=1e4, z=2e4), "z", float("inf"), ValidationError,
                    "pseudofield components must be finite, got PseudoField(x=10000.0, z=inf)"),
    "cluster": (SpinCluster, dict(a=np.array(CLUSTER_A), c=np.array(CLUSTER_C)),
                "c", np.triu(CLUSTER_C), ValidationError,
                "dipolar matrix must be symmetric with zero diagonal"),
    "hamiltonians": (ConditionalHamiltonians,
                     dict(h_u=np.diag([1.0, -1.0]).astype(complex),
                          h_d=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
                     "h_d", np.eye(4, dtype=complex), ValidationError,
                     "conditional Hamiltonians disagree in shape: (2, 2) vs (4, 4)"),
}

PATHS = {
    "constructor": lambda cls, good, fields: cls(**fields),
    "_replace": lambda cls, good, fields: good._replace(**fields),
    "_make": lambda cls, good, fields: cls._make(fields.values()),
    # A record that skipped its checks, pickled and loaded at every protocol.
    "pickle": lambda cls, good, fields: [
        pickle.loads(pickle.dumps(tuple.__new__(cls, fields.values()), protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
}


def same_fields(a, b):
    return type(a) is type(b) and all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", CASES)
def test_every_construction_path_runs_the_checks(case, path):
    cls, fields, name, bad, error, message = CASES[case]
    good = cls(**fields)
    assert good._fields == tuple(fields)
    with pytest.raises(error) as failure:
        PATHS[path](cls, good, {**fields, name: bad})
    assert type(failure.value) is error
    assert str(failure.value) == message


@pytest.mark.parametrize("case", ["axis-count", "nv", "donor-levels", "pair", "pseudofield",
                                  "cluster", "hamiltonians"])
def test_good_records_survive_every_path(case):
    cls, fields, *_ = CASES[case]
    good = cls(**fields)
    assert same_fields(good._replace(), good)
    assert same_fields(cls._make(good), good)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert same_fields(pickle.loads(pickle.dumps(good, protocol)), good)


def test_normalization_holds_on_every_path():
    # SpinCluster stores float arrays and ConditionalHamiltonians complex
    # ones, whatever numbers they were given and however they were made.
    for cls, fields, dtype in (
            (SpinCluster, ([1, 0, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]), float),
            (ConditionalHamiltonians, ([[1, 0], [0, -1]], [[0, 1], [1, 0]]), complex)):
        record = cls(*fields)
        made = [record, record._replace(**dict(zip(record._fields, fields))),
                cls._make(fields), pickle.loads(pickle.dumps(tuple.__new__(cls, fields), 0))]
        for m in made:
            assert all(type(f) is np.ndarray and f.dtype == dtype for f in m)
            assert same_fields(m, record)


def test_cached_operators_are_built_once_per_object():
    cluster = SpinCluster(a=CLUSTER_A, c=CLUSTER_C)
    assert cluster.operators is cluster.operators
    copy = cluster._replace()
    assert copy.operators is not cluster.operators
    assert all(np.array_equal(x, y) for x, y in zip(copy.operators, cluster.operators))
    pair = ConditionalHamiltonians(*cluster.operators)
    assert pair.sectors is pair.sectors
    assert pickle.loads(pickle.dumps(pair)).sectors is not pair.sectors
