"""Record the reference final energies that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one leg per (workload, scheme, input variant), untimed, and writes
each final ``energy_modified`` to perfbench/reference.json.  Rerun it only
when a workload's inputs or leg length change, never to make a check pass.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    N_VARIANTS,
    REFERENCE_FILE,
    WORKLOADS,
    run_leg,
    seeded_preset,
)


def main():
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for wl in WORKLOADS.values():
            out[wl.name] = {leg.scheme: [] for leg in wl.legs}
            for v in range(N_VARIANTS):
                ic = seeded_preset(wl.ic, v)
                for leg in wl.legs:
                    res = run_leg(wl, leg, ic, workdir=workdir)
                    if res.failure or res.problems:
                        why = res.failure or res.problems
                        sys.exit(f"{wl.name} {leg.scheme} variant {v}: {why}")
                    out[wl.name][leg.scheme].append(res.energy)
                print(f"{wl.name} variant {v} done", flush=True)
    with open(REFERENCE_FILE, "w") as fp:
        json.dump(out, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
