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
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import List, Optional

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

SERIES_HEADER = (
    "step,t,mass,energy_modified,energy_exact,residual_RE,min_u,min_v,"
    "picard_iters,solver_iters"
)


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


class NonFiniteError(RuntimeError):
    """A tracked quantity became NaN/Inf; the run is aborted."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one simulation run."""

    scheme: str = "uv"
    p: float = 1.5
    eps: Optional[float] = None
    dt: float = 1e-4
    steps: int = 500
    nx: int = 20
    ny: int = 20
    lx: float = 2.0
    ly: float = 2.0
    ic: str = "gauss"
    picard_tol: float = 1e-3
    picard_max: int = 200
    linear_tol: float = 1e-12
    output_every: int = 1
    out_dir: str = "runs/out"

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(
            scheme=self.scheme,
            p=self.p,
            dt=self.dt,
            eps=self.eps,
            picard_tol=self.picard_tol,
            picard_max=self.picard_max,
            linear_tol=self.linear_tol,
        )

    def validate(self) -> "RunConfig":
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.output_every < 1:
            raise ConfigError(f"output_every must be >= 1, got {self.output_every}")
        if self.nx < 1 or self.ny < 1 or self.lx <= 0 or self.ly <= 0:
            raise ConfigError("mesh parameters must be positive")
        try:
            self.scheme_config()
            get_preset(self.ic)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


_INT_KEYS = {"steps", "nx", "ny", "picard_max", "output_every"}
_FLOAT_KEYS = {"p", "eps", "dt", "lx", "ly", "picard_tol", "linear_tol"}
_STR_KEYS = {"scheme", "ic", "out_dir"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def parse_config_file(path) -> dict:
    """Flat 'key = value' format with '#' comments."""
    values = {}
    with open(path) as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _coerce(key: str, val):
    if key not in _ALL_KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    if isinstance(val, str):
        try:
            if key in _INT_KEYS:
                return int(val)
            if key in _FLOAT_KEYS:
                return None if val.lower() == "none" else float(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {val!r}") from exc
    return val


def resolve_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config-file keys, then explicit overrides."""
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, val in source.items():
            if val is not None:
                merged[key] = _coerce(key, val)
    return RunConfig(**merged).validate()


def _format_value(val) -> str:
    if val is None:
        return "none"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def echo_config(path, rc: RunConfig):
    with open(path, "w") as fp:
        fp.write("# resolved configuration (re-run reproduces series.csv bitwise)\n")
        for f in fields(rc):
            fp.write(f"{f.name} = {_format_value(getattr(rc, f.name))}\n")


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def write_series(path, records: List[diagnostics.RunRecord]):
    with open(path, "w", newline="") as fp:
        fp.write(SERIES_HEADER + "\n")
        for r in records:
            fp.write(
                ",".join(
                    [
                        str(r.step),
                        repr(r.time),
                        repr(r.mass),
                        repr(r.energy_modified),
                        repr(r.energy_exact),
                        _fmt(r.residual_RE),
                        repr(r.min_u),
                        repr(r.min_v),
                        str(r.picard_iters),
                        str(r.max_solver_iters),
                    ]
                )
                + "\n"
            )


@dataclass
class RunResult:
    records: List[diagnostics.RunRecord]
    state: SchemeState
    status: str  # ok | picard-failure | solver-failure | non-finite
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _record(mesh, ops, cfg, state, prev, picard_iters, solver_iters):
    re_val = None
    if state.step > 0 and prev is not None:
        re_val = diagnostics.residual_RE(mesh, cfg, (prev.u, prev.v), (state.u, state.v))
    rec = diagnostics.RunRecord(
        step=state.step,
        time=state.time,
        mass=diagnostics.mass(mesh, state.u),
        energy_modified=diagnostics.energy_modified(mesh, ops.pot, cfg, state),
        energy_exact=diagnostics.energy_exact(mesh, cfg, state.u, state.v),
        residual_RE=re_val,
        min_u=diagnostics.min_nodal(state.u),
        min_v=diagnostics.min_nodal(state.v),
        picard_iters=picard_iters,
        max_solver_iters=solver_iters,
    )
    values = [rec.mass, rec.energy_modified, rec.energy_exact, rec.min_u, rec.min_v]
    if re_val is not None:
        values.append(re_val)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"non-finite diagnostic at step {state.step}: {rec}")
    return rec


def execute_run(rc: RunConfig) -> RunResult:
    """Run the time loop and collect records; no filesystem side effects."""
    rc = rc.validate()
    cfg = rc.scheme_config()
    mesh = build_rect_mesh(rc.nx, rc.ny, rc.lx, rc.ly)
    preset = get_preset(rc.ic)
    ops = Workspace(mesh, cfg)
    state = init_state(mesh, cfg, preset.u0, preset.v0, preset.grad_v0)
    records = [_record(mesh, ops, cfg, state, None, 0, 0)]
    status, detail = "ok", ""
    try:
        for n in range(1, rc.steps + 1):
            prev = state
            state, report = ops.step(state)
            if n % rc.output_every == 0 or n == rc.steps:
                records.append(
                    _record(mesh, ops, cfg, state, prev, report.iterations, report.solver_iters)
                )
    except PicardError as exc:
        status, detail = "picard-failure", str(exc)
    except SolverError as exc:
        status, detail = "solver-failure", str(exc)
    except NonFiniteError as exc:
        status, detail = "non-finite", str(exc)
    return RunResult(records, state, status, detail)


def run(rc: RunConfig) -> RunResult:
    """Execute and serialize one run into its output directory."""
    rc = rc.validate()
    os.makedirs(rc.out_dir, exist_ok=True)
    result = execute_run(rc)
    write_series(os.path.join(rc.out_dir, "series.csv"), result.records)
    echo_config(os.path.join(rc.out_dir, "config.echo"), rc)
    if not result.ok:
        with open(os.path.join(rc.out_dir, "FAILED"), "w") as fp:
            fp.write(f"{result.status}: {result.detail}\n")
            fp.write(f"last completed step: {result.records[-1].step}\n")
    return result


def _eps_tag(eps) -> str:
    return "none" if eps is None else f"{eps:g}"


def _sweep_worker(rc: RunConfig) -> tuple:
    try:
        result = run(rc)
        return (result.status, result.records[-1].step)
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
    os.makedirs(out_dir, exist_ok=True)
    combos = []
    for scheme, p, eps in product(schemes, ps, epss):
        use_eps = eps if scheme in ("uveps", "useps") else None
        name = f"{scheme}_p{p:g}_eps{_eps_tag(use_eps)}"
        rc = replace(base, scheme=scheme, p=p, eps=use_eps, out_dir=os.path.join(out_dir, name))
        rc.validate()
        combos.append((name, rc))
    # schemes without eps collapse duplicate eps-axis points
    seen = set()
    unique = []
    for name, rc in combos:
        if name not in seen:
            seen.add(name)
            unique.append((name, rc))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, [rc for _, rc in unique]))
    else:
        outcomes = [_sweep_worker(rc) for _, rc in unique]
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["run", "scheme", "p", "eps", "dir", "status", "last_step"])
        for (name, rc), (status, last) in zip(unique, outcomes):
            writer.writerow([name, rc.scheme, repr(rc.p), _eps_tag(rc.eps), rc.out_dir, status, last])
    return manifest
