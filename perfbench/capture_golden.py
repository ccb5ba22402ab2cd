#!/usr/bin/env python3
"""Write the golden outputs of the default seed into ``perfbench/golden/``.

    python3 perfbench/capture_golden.py

Run it only at a commit whose outputs are meant to be the baseline: the
files it writes are what ``run.py`` compares the default seed against.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from defectlaser import config  # noqa: E402


def main() -> int:
    out_dir = HERE.parent / ".perfbench_out" / "golden-capture"
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.GOLDEN.mkdir(exist_ok=True)
    dyn = {}
    for name in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        base = config.params_from_config(workloads.config_text(name, seed))
        wl = workloads.build(name, seed, base)
        result = wl.run(out_dir)
        outcome = wl.check(result, out_dir)
        if outcome.failed:
            print(f"{name}: output check failed: {outcome.notes}",
                  file=sys.stderr)
            return 1
        if isinstance(wl, workloads.Sweeps):
            for spec in wl.specs:
                data = (out_dir / f"{spec.name}.csv").read_bytes()
                (workloads.GOLDEN / f"{spec.name}.csv.gz").write_bytes(
                    gzip.compress(data, mtime=0))
        elif isinstance(wl, workloads.Ensemble):
            dyn[name] = {"rates": [r.value for r in result]}
        else:
            dyn[name] = {"drift": result[0].value}
    (workloads.GOLDEN / "dynamics.json").write_text(
        json.dumps(dyn, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
