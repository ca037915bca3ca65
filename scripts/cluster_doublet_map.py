#!/usr/bin/env python3
"""Decoherence fingerprint of an interacting 3-cluster vs independent pairs.

Maps the coherence over (tau, B0) for three interacting bath spins and for
the three disjoint pairs with the same couplings.  The cluster's secular
dipolar shifts split each dip locus into a doublet (one line per
total-Iz = +-1/2 subspace); the pair decomposition shows single lines.
The secular quasienergy estimates of the doublet positions are written
alongside for comparison.

Usage: python scripts/cluster_doublet_map.py [outdir]
"""

import json
import sys
from pathlib import Path

from floqsens.config import parse_config
from floqsens.scans import run_dips, run_map

A_RAD_S = [180e3, 0.0, 100e3]
C_RAD_S = [[0.0, 1.05e3, 2.2e3],
           [1.05e3, 0.0, 1.05e3],
           [2.2e3, 1.05e3, 0.0]]
N_P = 100
AXES = {
    "tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 150},
    "b0_tesla": {"start": 0.10, "stop": 0.26, "count": 80},
}


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/cluster_doublets")
    cluster_doc = {
        "system": {"kind": "cluster3", "donor": "si_bi",
                   "cluster": {"a_rad_s": A_RAD_S, "c_rad_s": C_RAD_S}},
        "sequence": {"n_p": N_P},
        "axes": AXES,
        "output": {"quantity": "envelope", "format": "both"},
    }
    pairs_doc = {
        "system": {"kind": "independent_pairs", "donor": "si_bi",
                   "pairs": [
                       {"delta_a_rad_s": A_RAD_S[0] - A_RAD_S[1], "c12_rad_s": C_RAD_S[0][1]},
                       {"delta_a_rad_s": A_RAD_S[1] - A_RAD_S[2], "c12_rad_s": C_RAD_S[1][2]},
                       {"delta_a_rad_s": A_RAD_S[2] - A_RAD_S[0], "c12_rad_s": C_RAD_S[2][0]},
                   ]},
        "sequence": {"n_p": N_P},
        "axes": AXES,
        "output": {"quantity": "envelope", "format": "both"},
    }
    for name, doc in (("cluster", cluster_doc), ("pairs", pairs_doc)):
        subdir = outdir / name
        subdir.mkdir(parents=True, exist_ok=True)
        (subdir / "config.json").write_text(json.dumps(doc, indent=2))
        for path in run_map(parse_config(doc), subdir):
            print(path)

    # secular estimates at a representative field, for the dip report
    dips_doc = {
        "system": {"kind": "cluster3", "donor": "si_bi", "b0_tesla": 0.15,
                   "cluster": {"a_rad_s": A_RAD_S, "c_rad_s": C_RAD_S}},
        "sequence": {"n_p": N_P},
        "axes": {"tau_s": {"start": 2e-5, "stop": 3.2e-4, "count": 2}},
    }
    subdir = outdir / "estimates"
    subdir.mkdir(parents=True, exist_ok=True)
    for path in run_dips(parse_config(dips_doc), subdir):
        print(path)


if __name__ == "__main__":
    main()
