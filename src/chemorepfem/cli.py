"""Command-line interface: run, sweep, verify, dump.

Exit codes: 0 success, 1 verification failure, 2 non-convergence (Picard
or linear solver) or non-finite values, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

from . import runner, verification, vtkio
from .linsolve import SolverError
from .mesh import build_rect_mesh
from .presets import get_preset
from .schemes import SCHEMES, PicardError, Workspace, init_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_CONFIG = 3


def _add_config_args(sub):
    sub.add_argument("--config", help="flat 'key = value' configuration file")
    sub.add_argument("--scheme", choices=SCHEMES)
    sub.add_argument("--p", type=float, help="production exponent, 1 < p < 2")
    sub.add_argument("--eps", type=float, help="regularization parameter (uveps/useps)")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--steps", type=int, help="number of time steps")
    sub.add_argument("--nx", type=int)
    sub.add_argument("--ny", type=int)
    sub.add_argument("--lx", type=float)
    sub.add_argument("--ly", type=float)
    sub.add_argument("--ic", help="initial condition: gauss, cosine, or constant:<cu>:<cv>")
    sub.add_argument("--picard-tol", dest="picard_tol", type=float)
    sub.add_argument("--picard-max", dest="picard_max", type=int)
    sub.add_argument("--linear-tol", dest="linear_tol", type=float)
    sub.add_argument("--output-every", dest="output_every", type=int)
    sub.add_argument("--out", dest="out_dir", help="output directory")


def _resolve(args) -> runner.RunConfig:
    file_values = runner.parse_config_file(args.config) if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in fields(runner.RunConfig)}
    return runner.resolve_config(file_values, overrides)


def _cmd_run(args) -> int:
    rc = _resolve(args)
    result = runner.run(rc)
    last = result.records[-1]
    print(f"run: {rc.scheme} p={rc.p} eps={rc.eps} -> {rc.out_dir}")
    print(f"  steps completed: {last.step}/{rc.steps}  mass: {last.mass!r}")
    if not result.ok:
        print(f"  FAILED ({result.status}): {result.detail}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _split_list(text, cast):
    return [cast(tok) for tok in text.split(",") if tok]


def _cmd_sweep(args) -> int:
    base = _resolve(args)
    schemes = _split_list(args.schemes, str) if args.schemes else [base.scheme]
    ps = _split_list(args.ps, float) if args.ps else [base.p]
    epss = _split_list(args.epss, float) if args.epss else [base.eps]
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
    n_steps = args.steps
    if n_steps == 0:
        args.steps = 1  # satisfy run-config validation, then advance nothing
    rc = _resolve(args)
    if n_steps is None:
        n_steps = rc.steps
    mesh = build_rect_mesh(rc.nx, rc.ny, rc.lx, rc.ly)
    cfg = rc.scheme_config()
    preset = get_preset(rc.ic)
    ops = Workspace(mesh, cfg)
    state = init_state(mesh, cfg, preset.u0, preset.v0, preset.grad_v0)
    try:
        for _ in range(n_steps):
            state, _ = ops.step(state)
    except (PicardError, SolverError) as exc:
        print(f"dump: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    which = tuple(args.fields.split(",")) if args.fields else ("u", "v", "sigma")
    path = vtkio.dump_field(mesh, state, args.vtk_out, which=which)
    print(f"dump: wrote {path} at step {state.step}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
