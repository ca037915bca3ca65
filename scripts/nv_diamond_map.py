#!/usr/bin/env python3
"""Transverse-field decoherence map of an NV sensor.

Sweeps the transverse Zeeman frequency at zero parallel field and maps the
coherence envelope over the pulse interval.  The avoided crossings widen
and narrow with the transverse field, tiling the map with diamond-shaped
high-decoherence regions; the emitted overlay CSV carries the analytic
sum- and difference-frequency boundary curves.

Usage: python scripts/nv_diamond_map.py [outdir]
"""

import json
import sys
from pathlib import Path

from floqsens.config import parse_config
from floqsens.scans import run_map

A_PAR_HZ = 50e3
N_P = 10

config = {
    "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": A_PAR_HZ},
    "sequence": {"n_p": N_P},
    "axes": {
        "tau_s": {"start": 0.05e-6, "stop": 36e-6, "count": 240},
        "omega_x_hz": {"start": 1e3, "stop": 80e3, "count": 120},
    },
    "output": {"quantity": "envelope", "format": "both"},
}


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/nv_diamond")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(json.dumps(config, indent=2))
    files = run_map(parse_config(config), outdir)
    for path in files:
        print(path)


if __name__ == "__main__":
    main()
