"""Seeded workload generator: the CLI commands and JSON configs of each workload.

Seed 0 reproduces the parameters shipped in ``scripts/`` exactly.  Any other
seed scales every non-zero physical constant by its own factor drawn from
[0.9, 1.1] and keeps every grid size, bath dimension D and pulse count n_p,
so the amount of work per command does not depend on the seed.  The CLI
only ever sees the generated JSON documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The 3-cluster of cluster_doublet_map.py and scripts/configs/cluster3_*.json.
CLUSTER_A_RAD_S = [180e3, 0.0, 100e3]
CLUSTER_C_RAD_S = [[0.0, 1.05e3, 2.2e3], [1.05e3, 0.0, 1.05e3], [2.2e3, 1.05e3, 0.0]]
# Four independent pairs (delta_a, c12) in rad/s: the three pairs of the
# 3-cluster plus one more, so the joint space has D = 2^4 = 16.
PAIRS_RAD_S = [(180e3, 1.05e3), (-100e3, 1.05e3), (-80e3, 2.2e3), (60e3, 1.5e3)]
DONOR_DELTA_A_RAD_S = 180e3          # donor_field_sweep.py
DONOR_RATIOS = (100, 20, 10)         # delta_a / c12
DENSE_MAP_FIELDS = 0.10, 0.26        # b0_tesla range of cluster3_map.json
# Field rows cut from the shipped 80 so one dense command takes well under
# a second and a run holds many commands.
CLUSTER3_MAP_ROWS = 6
PAIRS_MAP_ROWS = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``floqsens <subcommand> --config <name>.json``."""

    name: str
    subcommand: str
    config: dict

    @property
    def points(self) -> int:
        """(field, tau) samples the command delivers; a spectrum has one field."""
        axes = self.config["axes"]
        fields = axes["b0_tesla"]["count"] if "b0_tesla" in axes else (
            axes["omega_x_hz"]["count"] if "omega_x_hz" in axes else 1)
        return fields * axes["tau_s"]["count"]

    @property
    def output(self) -> str:
        return f"{self.subcommand}.csv"


class _Scaler:
    """Multiplies constants by seeded factors in [0.9, 1.1]; identity for seed 0."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.identity = seed == 0

    def __call__(self, value: float) -> float:
        if self.identity or value == 0.0:
            return value
        return value * self.rng.uniform(0.9, 1.1)

    def cluster(self) -> dict:
        c = [row[:] for row in CLUSTER_C_RAD_S]
        for j, k in ((0, 1), (1, 2), (0, 2)):
            c[j][k] = c[k][j] = self(c[j][k])
        return {"a_rad_s": [self(a) for a in CLUSTER_A_RAD_S], "c_rad_s": c}


def _two_state_maps(s: _Scaler) -> list[Command]:
    """Closed-form D = 2 maps: pseudospin, donor-model builds and CSV/PGM emission."""
    nv = {
        "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": s(50000.0)},
        "sequence": {"n_p": 10},
        "axes": {"tau_s": {"start": 5e-8, "stop": 3.6e-5, "count": 240},
                 "omega_x_hz": {"start": 1000.0, "stop": 80000.0, "count": 120}},
        "output": {"quantity": "envelope", "format": "both"},
    }
    commands = [Command("nv_diamond_map", "map", nv)]
    for ratio in DONOR_RATIOS:
        delta_a = s(DONOR_DELTA_A_RAD_S)
        doc = {
            "system": {"kind": "donor_pair", "donor": "si_bi",
                       "pair": {"delta_a_rad_s": delta_a,
                                "c12_rad_s": s(DONOR_DELTA_A_RAD_S / ratio)}},
            "sequence": {"n_p": 20},
            "axes": {"tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 220},
                     "b0_tesla": {"start": 0.05, "stop": 0.30, "count": 110}},
            "output": {"quantity": "coherence", "format": "both"},
        }
        commands.append(Command(f"donor_pair_r{ratio}_map", "map", doc))
    return commands


def _dense_maps(s: _Scaler) -> list[Command]:
    """Dense Floquet cells on every (field, tau) sample: linalg and engine."""
    tau = {"start": 2e-5, "stop": 3.2e-4, "count": 150}
    cluster3 = {
        "system": {"kind": "cluster3", "donor": "si_bi", "cluster": s.cluster()},
        "sequence": {"n_p": 100},
        "axes": {"tau_s": tau, "b0_tesla": {"start": DENSE_MAP_FIELDS[0],
                                            "stop": DENSE_MAP_FIELDS[1],
                                            "count": CLUSTER3_MAP_ROWS}},
        "output": {"quantity": "envelope", "format": "both"},
    }
    pairs = {
        "system": {"kind": "independent_pairs", "donor": "si_bi",
                   "pairs": [{"delta_a_rad_s": s(da), "c12_rad_s": s(c)}
                             for da, c in PAIRS_RAD_S]},
        "sequence": {"n_p": 100},
        "axes": {"tau_s": tau, "b0_tesla": {"start": DENSE_MAP_FIELDS[0],
                                            "stop": DENSE_MAP_FIELDS[1],
                                            "count": PAIRS_MAP_ROWS}},
        "output": {"quantity": "coherence", "format": "both"},
    }
    return [Command("cluster3_map", "map", cluster3),
            Command("pairs4_map", "map", pairs)]


def _spectrum_scan(s: _Scaler) -> list[Command]:
    """n_p = 1 cells with eigenmode tracking: the Schur/tracking path, no coherence."""
    def doc(kind: str) -> dict:
        return {
            "system": {"kind": kind, "donor": "si_bi", "b0_tesla": 0.15,
                       "cluster": s.cluster()},
            "sequence": {"n_p": 100},
            "axes": {"tau_s": {"start": 1e-6, "stop": 1.6e-4, "count": 500}},
            "output": {"crossing_gap_rad": 0.02},
        }
    return [Command("cluster3_spectrum", "spectrum", doc("cluster3")),
            Command("joint_full_spectrum", "spectrum", doc("joint_full"))]


_BUILDERS = {"two-state-maps": _two_state_maps, "dense-maps": _dense_maps,
             "spectrum-scan": _spectrum_scan}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int) -> list[Command]:
    """The commands of one round of ``workload`` for ``seed``."""
    return _BUILDERS[workload](_Scaler(workload, seed))
