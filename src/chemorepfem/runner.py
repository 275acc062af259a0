"""Experiment execution: single runs, sweeps, CSV/echo serialization.

A run owns its output directory and writes ``series.csv`` (one row per
``output_every`` steps) plus ``config.echo`` (every resolved key, re-runnable
to a bitwise-identical series).  Sweeps lay one run directory per parameter
combination next to a ``manifest.csv`` index.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from itertools import product
from typing import List, Optional, get_args, get_type_hints

import numpy as np

from . import diagnostics
from .linsolve import SolverError
from .mesh import build_rect_mesh
from .presets import get_preset
from .schemes import PicardError, SchemeConfig, SchemeState, Workspace, init_state

__all__ = [
    "RunConfig",
    "RunResult",
    "ConfigError",
    "NonFiniteError",
    "parse_config_file",
    "resolve_config",
    "execute_run",
    "run",
    "sweep",
    "SERIES_HEADER",
]

SERIES_HEADER = ",".join(f.name for f in fields(diagnostics.RunRecord))


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


class NonFiniteError(RuntimeError):
    """A tracked quantity became NaN/Inf; the run is aborted."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one simulation run.  Like
    ``SchemeConfig`` it checks itself: a bad setting raises ``ConfigError``."""

    scheme: str = "uv"
    p: float = 1.5
    eps: Optional[float] = SchemeConfig.eps
    dt: float = 1e-4
    steps: int = 500
    nx: int = 20
    ny: int = 20
    lx: float = 2.0
    ly: float = 2.0
    ic: str = "gauss"
    picard_tol: float = SchemeConfig.picard_tol
    picard_max: int = SchemeConfig.picard_max
    linear_tol: float = SchemeConfig.linear_tol
    output_every: int = 1
    out_dir: str = "runs/out"

    def __post_init__(self):
        # a scheme without regularization ignores eps: store none, so that
        # config.echo and a sweep's run names say so
        if not SchemeConfig.takes_eps(self.scheme):
            object.__setattr__(self, "eps", None)
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.output_every < 1:
            raise ConfigError(f"output_every must be >= 1, got {self.output_every}")
        if self.nx < 1 or self.ny < 1:
            raise ConfigError(f"cell counts must be >= 1, got nx={self.nx}, ny={self.ny}")
        # a patch of up to 2 x 2 cells holds a node in as many elements as
        # any node of the mesh: it checks the sides and every element's
        # areas and gradients, and reports their under- or overflow itself
        nx, ny = min(self.nx, 2), min(self.ny, 2)
        try:
            with np.errstate(all="ignore"):
                patch = build_rect_mesh(nx, ny, nx * (self.lx / self.nx), ny * (self.ly / self.ny))
            self.scheme_config()
            get_preset(self.ic)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the Workspace scales the masses by 1 / dt, as scipy's M / k does
        with np.errstate(over="ignore"):
            scaled = np.concatenate([patch.M.data, patch.D]) * (1.0 / self.dt)
        if not np.all(np.isfinite(scaled)):
            raise ConfigError(
                f"time step {self.dt!r} is too small for cells of {self.lx / self.nx!r} x "
                f"{self.ly / self.ny!r}: their mass over the time step overflows"
            )

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(**{f.name: getattr(self, f.name) for f in fields(SchemeConfig)})


# every configuration key with its declared type
_KEY_TYPES = get_type_hints(RunConfig)


def parse_config_file(path) -> dict:
    """Flat 'key = value' format with '#' comments."""
    try:
        with open(path, encoding="utf-8") as fp:
            lines = list(fp)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {getattr(exc, 'strerror', exc)}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _coerce(key: str, val):
    """A text value converted to the key's declared type; 'none' is None,
    which only an Optional key accepts."""
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    if not isinstance(val, str):
        return val
    # Optional[X] has the arguments (X, NoneType), a plain type none
    kind, *optional = get_args(_KEY_TYPES[key]) or (_KEY_TYPES[key],)
    if val.lower() == "none":
        if optional:
            return None
        raise ConfigError(f"{key} does not take none")
    try:
        return kind(val)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {val!r}") from exc


def resolve_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config-file keys, then explicit overrides."""
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, val in source.items():
            if val is not None:
                merged[key] = _coerce(key, val)
    return RunConfig(**merged)


def _format_value(val) -> str:
    if val is None:
        return "none"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def echo_config(path, rc: RunConfig):
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("# resolved configuration (re-run reproduces series.csv bitwise)\n")
        for f in fields(rc):
            fp.write(f"{f.name} = {_format_value(getattr(rc, f.name))}\n")


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def write_series(path, records: List[diagnostics.RunRecord]):
    with open(path, "w", newline="") as fp:
        fp.write(SERIES_HEADER + "\n")
        for r in records:
            fp.write(",".join(map(_fmt, astuple(r))) + "\n")


@dataclass
class RunResult:
    records: List[diagnostics.RunRecord]
    state: Optional[SchemeState]  # None if the set-up failed
    status: str  # ok | picard-failure | solver-failure | non-finite
    detail: str = ""
    # the last step that passed its checks, recorded or not; None if not
    # even step 0 did
    last_step: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _record(ops, state, prev=None, report=None):
    """The series row of ``state``; ``prev`` and ``report`` are None at step 0."""
    mesh, cfg = ops.mesh, ops.cfg
    re_val = None
    if prev is not None:
        re_val = diagnostics.residual_RE(mesh, cfg, (prev.u, prev.v), (state.u, state.v))
    rec = diagnostics.RunRecord(
        step=state.step,
        t=state.time,
        mass=diagnostics.mass(mesh, state.u),
        energy_modified=diagnostics.energy_modified(mesh, ops.pot, cfg, state),
        energy_exact=diagnostics.energy_exact(mesh, cfg, state.u, state.v),
        residual_RE=re_val,
        min_u=diagnostics.min_nodal(state.u),
        min_v=diagnostics.min_nodal(state.v),
        picard_iters=report.iterations if report else 0,
        solver_iters=report.solver_iters if report else 0,
    )
    if not np.isfinite([x for x in vars(rec).values() if x is not None]).all():
        raise NonFiniteError(f"non-finite diagnostic at step {state.step}: {rec}")
    return rec


def start(rc: RunConfig):
    """The workspace of a run and its projected initial state."""
    cfg = rc.scheme_config()
    mesh = build_rect_mesh(rc.nx, rc.ny, rc.lx, rc.ly)
    preset = get_preset(rc.ic)
    ops = Workspace(mesh, cfg)
    return ops, init_state(mesh, cfg, preset.u0, preset.v0, preset.grad_v0)


def execute_run(rc: RunConfig) -> RunResult:
    """Run the time loop and collect records; no filesystem side effects.
    Output steps are checked for non-finite diagnostics, others for fields."""
    records, state, last_step = [], None, None
    status, detail = "ok", ""
    try:
        ops, state = start(rc)
        records.append(_record(ops, state))
        last_step = 0
        for prev, state, report in ops.march(state, rc.steps):
            if state.step % rc.output_every == 0 or state.step == rc.steps:
                records.append(_record(ops, state, prev, report))
            elif not all(
                np.isfinite(f).all() for f in (state.u, state.v, state.sigma) if f is not None
            ):
                raise NonFiniteError(f"non-finite field at step {state.step}")
            last_step = state.step
    except PicardError as exc:
        status, detail = "picard-failure", str(exc)
    except SolverError as exc:
        status, detail = "solver-failure", str(exc)
    except NonFiniteError as exc:
        status, detail = "non-finite", str(exc)
    return RunResult(records, state, status, detail, last_step)


def _make_dir(path, *files):
    """Create an output directory; a path that cannot be one, or a name among
    ``files`` that a directory in it takes, is a bad config."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc.strerror}") from exc
    for taken in (os.path.join(path, name) for name in files):
        if os.path.isdir(taken):
            raise ConfigError(f"cannot write {taken!r}: it is a directory")


def run(rc: RunConfig) -> RunResult:
    """Execute and serialize one run into its output directory."""
    _make_dir(rc.out_dir, "series.csv", "config.echo", "FAILED")
    result = execute_run(rc)
    write_series(os.path.join(rc.out_dir, "series.csv"), result.records)
    echo_config(os.path.join(rc.out_dir, "config.echo"), rc)
    failed = os.path.join(rc.out_dir, "FAILED")
    if not result.ok:
        with open(failed, "w") as fp:
            fp.write(f"{result.status}: {result.detail}\n")
            fp.write(f"last completed step: {_format_value(result.last_step)}\n")
    elif os.path.lexists(failed):  # left by an earlier run
        os.remove(failed)
    return result


def _eps_tag(eps) -> str:
    return "none" if eps is None else f"{eps:g}"


def _sweep_worker(rc: RunConfig) -> tuple:
    try:
        result = run(rc)
        return (result.status, _format_value(result.last_step))
    except Exception as exc:  # a crashed run must not kill the sweep
        return (f"error: {type(exc).__name__}: {exc}", -1)


def sweep(
    base: RunConfig,
    schemes: List[str],
    ps: List[float],
    epss: List[Optional[float]],
    out_dir: str,
    jobs: int = 1,
) -> str:
    """Cartesian product of scheme/p/eps axes; one run directory each.

    Failing runs are recorded in ``manifest.csv`` and do not stop the rest.
    Returns the manifest path.
    """
    if not (schemes and ps and epss) or jobs < 1:
        raise ConfigError(f"a sweep needs a value on every axis and jobs >= 1, got jobs {jobs}")
    # schemes without eps drop it, so their eps-axis points share one name
    # and one run; distinct configs under one name would overwrite each other
    runs = {}
    for scheme, p, eps in product(schemes, ps, epss):
        rc = replace(base, scheme=scheme, p=p, eps=eps)
        name = f"{scheme}_p{p:g}_eps{_eps_tag(rc.eps)}"
        rc = replace(rc, out_dir=os.path.join(out_dir, name))
        if runs.setdefault(name, rc) != rc:
            raise ConfigError(
                f"sweep points p={runs[name].p!r}, eps={runs[name].eps!r} and p={p!r}, "
                f"eps={rc.eps!r} of scheme {scheme} share the run name {name!r}"
            )
    _make_dir(out_dir)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, runs.values()))
    else:
        outcomes = [_sweep_worker(rc) for rc in runs.values()]
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["run", "scheme", "p", "eps", "dir", "status", "last_step"])
        for (name, rc), (status, last) in zip(runs.items(), outcomes):
            writer.writerow([name, rc.scheme, repr(rc.p), _eps_tag(rc.eps), rc.out_dir, status, last])
    return manifest
