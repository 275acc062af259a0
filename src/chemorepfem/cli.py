"""Command-line interface: run, sweep, verify, dump.

Exit codes: 0 success, 1 verification failure, 2 non-convergence (Picard
or linear solver) or non-finite values, 3 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields

from . import runner, verification, vtkio
from .linsolve import SolverError
from .schemes import SCHEMES, PicardError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_CONFIG = 3


def _add_config_args(sub):
    # values stay text: resolve_config types and checks them as it does a file's
    sub.add_argument("--config", help="flat 'key = value' configuration file")
    sub.add_argument("--scheme", help=f"one of {', '.join(SCHEMES)}")
    sub.add_argument("--p", help="production exponent, 1 < p < 2")
    sub.add_argument("--eps", help="regularization parameter (uveps/useps)")
    sub.add_argument("--dt", help="time step")
    sub.add_argument("--steps", help="number of time steps")
    sub.add_argument("--nx")
    sub.add_argument("--ny")
    sub.add_argument("--lx")
    sub.add_argument("--ly")
    sub.add_argument("--ic", help="initial condition: gauss, cosine, or constant:<cu>:<cv>")
    sub.add_argument("--picard-tol", dest="picard_tol")
    sub.add_argument("--picard-max", dest="picard_max")
    sub.add_argument("--linear-tol", dest="linear_tol")
    sub.add_argument("--output-every", dest="output_every")
    sub.add_argument("--out", dest="out_dir", help="output directory")


def _resolve(args) -> dict:
    """The raw values given: the config file's keys, then the flags given."""
    values = runner.parse_config_file(args.config) if args.config else {}
    flags = {f.name: getattr(args, f.name, None) for f in fields(runner.RunConfig)}
    values.update({key: val for key, val in flags.items() if val is not None})
    return values


def _cmd_run(args) -> int:
    rc = runner.resolve_config(_resolve(args))
    result = runner.run(rc)
    print(f"run: {rc.scheme} p={rc.p} eps={rc.eps} -> {rc.out_dir}")
    if result.records:
        last = result.records[-1]
        print(
            f"  steps completed: {result.last_step}/{rc.steps}"
            f"  mass at step {last.step}: {last.mass!r}"
        )
    if not result.ok:
        print(f"  FAILED ({result.status}): {result.detail}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _axis(text, key, default) -> list:
    """A comma-separated sweep axis, each value typed as the config key is."""
    return [runner._coerce(key, tok) for tok in text.split(",") if tok] if text else [default]


def _cmd_sweep(args) -> int:
    given = _resolve(args)
    base = runner.resolve_config(given)
    schemes = _axis(args.schemes, "scheme", base.scheme)
    ps = _axis(args.ps, "p", base.p)
    # the eps given, which base has dropped if its own scheme takes none
    epss = _axis(args.epss, "eps", runner._coerce("eps", given.get("eps")))
    manifest = runner.sweep(base, schemes, ps, epss, args.sweep_out, jobs=args.jobs)
    print(f"sweep manifest: {manifest}")
    with open(manifest) as fp:
        failed = [row["run"] for row in csv.DictReader(fp) if row["status"] != "ok"]
    if failed:
        print("failed runs:", *failed, sep="\n  ", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verification.run_verification(args.level)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
        ok = ok and r.passed
    print(f"verification {'passed' if ok else 'FAILED'} ({args.level})")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_dump(args) -> int:
    given = _resolve(args)
    # zero steps writes the initial state: resolve as one step, advance none
    no_steps = runner._coerce("steps", given.get("steps")) == 0
    rc = runner.resolve_config(given, {"steps": 1} if no_steps else None)
    known = ("u", "v", "sigma")
    which = tuple(args.fields.split(",")) if args.fields else known
    unknown = [name for name in which if name not in known]
    if unknown:
        raise runner.ConfigError(f"unknown field(s) {unknown}; choose among u, v, sigma")
    # a path that cannot take the file is found before any step
    runner._make_dir(*os.path.split(os.path.abspath(args.vtk_out)))
    ops, state = runner.start(rc)
    for _, state, _ in ops.march(state, 0 if no_steps else rc.steps):
        pass
    path = vtkio.dump_field(ops.mesh, state, args.vtk_out, which=which)
    print(f"dump: wrote {path} at step {state.step}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a bad configuration, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chemorepfem",
        description=(
            "Energy-stable P1 finite element schemes for the chemo-repulsion "
            "system du/dt - lap u = div(u grad v), dv/dt - lap v + v = u^p"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run")
    _add_config_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="Cartesian sweep over scheme/p/eps")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--schemes", help="comma-separated scheme axis")
    p_sweep.add_argument("--ps", help="comma-separated p axis")
    p_sweep.add_argument("--epss", help="comma-separated eps axis")
    p_sweep.add_argument("--sweep-out", default="runs/sweep", help="sweep output root")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--level", choices=["fast", "full"], default="fast")
    p_verify.set_defaults(func=_cmd_verify)

    p_dump = sub.add_parser("dump", help="advance a run and write a VTK snapshot")
    _add_config_args(p_dump)
    p_dump.add_argument("--vtk-out", default="fields.vtk", help="output VTK file")
    p_dump.add_argument("--fields", help="comma-separated subset of u,v,sigma")
    p_dump.set_defaults(func=_cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except runner.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (PicardError, SolverError, runner.NonFiniteError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
