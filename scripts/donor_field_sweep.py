#!/usr/bin/env python3
"""Field-swept coherence maps for a Si:Bi donor detecting a nuclear pair.

Produces a (tau, B0) map for each coupling ratio R = delta_a / c12.  The
dip loci curve with field and collapse into single sharp dips at the
optimal working point near 188 mT, where the two conditional dynamics
coincide.  Also writes a comparison of the first-dip position against the
averaged-Hamiltonian estimate along the sweep.

Usage: python scripts/donor_field_sweep.py [outdir]
"""

import json
import sys
from pathlib import Path

import numpy as np

from floqsens import PairTarget, avg_hamiltonian_dip, dip_positions, donor_pair_polarizations, \
    owp_locate, si_bi
from floqsens.config import parse_config
from floqsens.scans import run_map, write_csv

DELTA_A = 180e3          # rad/s, fixed hyperfine detuning
RATIOS = (100, 20, 10)   # delta_a / c12
B0_RANGE = (0.05, 0.30)
N_P = 20                 # 40 pulses


def map_config(ratio: float) -> dict:
    return {
        "system": {"kind": "donor_pair", "donor": "si_bi",
                   "pair": {"delta_a_rad_s": DELTA_A, "c12_rad_s": DELTA_A / ratio}},
        "sequence": {"n_p": N_P},
        "axes": {
            "tau_s": {"start": 2e-6, "stop": 3.5e-4, "count": 220},
            "b0_tesla": {"start": B0_RANGE[0], "stop": B0_RANGE[1], "count": 110},
        },
        "output": {"quantity": "coherence", "format": "both"},
    }


def first_dip(model):
    cap = 3.0 * avg_hamiltonian_dip(model)
    records = dip_positions(model, cap)
    while not records:
        cap *= 2.0
        records = dip_positions(model, cap)
    return records[0]


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/donor_sweep")
    donor = si_bi()
    owp = owp_locate(donor, *B0_RANGE)
    print(f"optimal working point: {owp * 1e3:.1f} mT")
    for ratio in RATIOS:
        subdir = outdir / f"r{ratio}"
        subdir.mkdir(parents=True, exist_ok=True)
        cfg_doc = map_config(ratio)
        (subdir / "config.json").write_text(json.dumps(cfg_doc, indent=2))
        for path in run_map(parse_config(cfg_doc), subdir):
            print(path)

        pair = PairTarget(delta_a=DELTA_A, c12=DELTA_A / ratio)
        rows = []
        for b0 in np.linspace(*B0_RANGE, 60):
            model = pair.two_state(*donor_pair_polarizations(donor, float(b0)))
            rec = first_dip(model)
            rows.append((float(b0), rec.tau_dip, avg_hamiltonian_dip(model), rec.delta))
        write_csv(subdir / "dip_comparison.csv",
                  ["b0_tesla", "tau_dip_s", "tau_avg_s", "delta_rad"], [np.array(rows).T])
        print(subdir / "dip_comparison.csv")


if __name__ == "__main__":
    main()
