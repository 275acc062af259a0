"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fine-gauss --seed 0 --seconds 36 --trace 0

A single-process closed loop: rounds of one leg per scheme (set-up, then a
fixed number of steps) run back to back until ``--seconds`` is used up.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
workload's known-failure leg, if it has one, then alternates untraced and
traced rounds for the remaining time, and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
say the same in words.  See perfbench/README.md.
"""

import os

# BLAS threading changes timings by up to 2x on small machines: pin it
# before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _import_program():
    """The chemorepfem sources of this checkout, or exit 1 without them."""
    try:
        import chemorepfem
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import chemorepfem from {ROOT / 'src'}: {exc}")
    if not Path(chemorepfem.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: chemorepfem imported from {chemorepfem.__file__}, not {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy
    import scipy

    from perfbench import report, spans
    from perfbench.workloads import (
        KNOWN_FAILURES,
        WORKLOADS,
        check_leg,
        load_reference,
        measure,
        run_leg,
        seeded_preset,
    )

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = {
        **{var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }
    print(f"env {json.dumps(env)}")
    ic = seeded_preset(wl.ic, args.seed)
    reference = load_reference()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        seconds = args.seconds
        probe_failed = {}
        known = KNOWN_FAILURES.get(wl.name) if args.trace else None
        if known is not None:
            res = run_leg(wl, known, ic, workdir=workdir)
            seconds -= res.setup_s + res.run_s
            probe_failed[known.scheme] = res.attempted - res.completed
            print(
                f"known failure {wl.name} {known.scheme} dt={known.dt:g}: "
                f"{res.attempted} attempted, {res.attempted - res.completed} failed "
                f"({res.failure or 'converged'})"
            )
        tracers = {leg.scheme: spans.Tracer() for leg in wl.legs} if args.trace else None
        phases = measure(wl, ic, seconds, tracers, workdir)

    problems, attempted, failed = [], 0, 0
    for legs in phases:
        for rs in legs.values():
            for r in rs:
                attempted += r.attempted
                failed += r.attempted - r.completed
                if r.failure:
                    print(f"failed step: {wl.name} {r.scheme} step {r.attempted}: {r.failure}")
                problems += check_leg(wl, r, args.seed, reference)
    for p in problems:
        print(f"check FAILED: {p}")

    if args.trace:
        values = report.per_layer(phases[0], phases[1], tracers, probe_failed)
        units = report.PER_LAYER_UNITS
    else:
        values = report.end_to_end(phases[0])
        units = report.END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    n_legs = sum(len(rs) for legs in phases for rs in legs.values())
    print(
        f"{wl.name} seed {args.seed}: {n_legs} legs, {attempted} steps attempted, "
        f"{failed} failed, checks {'passed' if not problems else 'FAILED'}"
    )
    print(report.result_line(not problems, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
