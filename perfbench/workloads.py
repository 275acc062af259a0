"""The benchmark's workloads, their seeded inputs, and one leg of each.

A *leg* is one scheme taken from set-up through a fixed number of time
steps: by calling ``Workspace.step`` directly (``step`` entry) or through
``runner.run`` (``runner`` entry).  Every leg of a workload starts from the
same seeded initial data, so its final state is fixed and can be checked
against a recorded reference.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from chemorepfem import diagnostics, mesh, runner, schemes
from chemorepfem.linsolve import SolverError
from chemorepfem.presets import ICPreset, get_preset
from chemorepfem.runner import NonFiniteError
from chemorepfem.schemes import PicardError

from .spans import SETUP_SPANS, Tracer, instrument, patched

# a step that raises one of these is a failed step; the leg stops there
FAILURES = (PicardError, SolverError, NonFiniteError)
_RUN_STATUS = {"picard-failure": "PicardError", "non-finite": "NonFiniteError"}

# acceptance bounds of the repository (criteria 4 and 5)
MASS_TOL = 1e-10
LAW_TOL = 1e-8

# seeds select one of N_VARIANTS inputs; variant 0 is the preset itself
N_VARIANTS = 32
_AMPLITUDE = 0.02
_MODES = 4

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# every workload: production exponent, and the presets' square [0, LENGTH]^2
P = 1.5
LENGTH = 2.0


@dataclass(frozen=True)
class Leg:
    scheme: str
    eps: Optional[float] = None
    dt: Optional[float] = None  # None: the workload's time step


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "step": Workspace.step; "runner": runner.run
    ic: str
    nx: int
    dt: float
    picard_tol: float
    picard_max: int
    steps: int  # per leg
    legs: tuple
    every_step_diagnostics: bool = False

    def config(self, leg: Leg) -> schemes.SchemeConfig:
        return schemes.SchemeConfig(
            scheme=leg.scheme,
            p=P,
            dt=leg.dt or self.dt,
            eps=leg.eps,
            picard_tol=self.picard_tol,
            picard_max=self.picard_max,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fine-gauss",
            "step",
            "gauss",
            nx=160,
            dt=1e-4,
            picard_tol=1e-3,
            picard_max=200,
            steps=3,
            legs=(Leg("uv"), Leg("uveps", 1e-3), Leg("useps", 1e-3), Leg("us0")),
        ),
        Workload(
            "coarse-tight",
            "step",
            "gauss",
            nx=20,
            dt=1e-2,
            picard_tol=1e-10,
            picard_max=500,
            steps=5,
            # us0 does not converge at dt = 1e-2 (see KNOWN_FAILURES); its
            # timed leg is the criterion-5 leg at dt = 1e-4, which passes
            legs=(Leg("uv"), Leg("uveps", 1e-3), Leg("useps", 1e-3), Leg("us0", dt=1e-4)),
            every_step_diagnostics=True,
        ),
        Workload(
            "run-cosine",
            "runner",
            "cosine",
            nx=40,
            dt=1e-4,
            picard_tol=1e-3,
            picard_max=200,
            steps=20,
            legs=(Leg("uv"), Leg("uveps", 1e-4), Leg("useps", 1e-4), Leg("us0")),
        ),
    )
}

# legs that fail today; run once per traced run and reported, never timed
KNOWN_FAILURES = {"coarse-tight": Leg("us0", dt=1e-2)}


def _modes(rng, amplitude):
    """sum c_kl cos(k pi x/2) cos(l pi y/2) over 0 <= k, l < _MODES, no
    constant term, with sum |c_kl| = amplitude; and its gradient.  Its
    normal derivative vanishes on the boundary of [0,2]^2."""
    c = rng.uniform(-1.0, 1.0, (_MODES, _MODES))
    c[0, 0] = 0.0
    c *= amplitude / np.abs(c).sum()
    w = 0.5 * np.pi * np.arange(_MODES)

    def basis(t):
        t = np.asarray(t, dtype=float)[..., None] * w
        return np.cos(t), -w * np.sin(t)

    def value(x, y):
        (cx, _), (cy, _) = basis(x), basis(y)
        return np.einsum("...k,kl,...l->...", cx, c, cy)

    def grad(x, y):
        (cx, dx), (cy, dy) = basis(x), basis(y)
        return np.einsum("...k,kl,...l->...", dx, c, cy), np.einsum("...k,kl,...l->...", cx, c, dy)

    return value, grad


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def seeded_preset(name: str, seed: int) -> ICPreset:
    """The named preset with seeded Neumann-compatible perturbations:

        u0 * (1 + m_u),   v0 + a * (1 + m_v),   grad_v0 + a * grad m_v,

    with m_u, m_v cosine-mode sums of amplitude _AMPLITUDE and 1/2 and
    a = _AMPLITUDE.  The factor keeps u0 > 0 and its near-zero minimum near
    zero, where the us0 iteration is most delicate; the added chemical is
    positive.  Variant 0 has all coefficients zero, which reproduces the
    preset values bit for bit at the same evaluation cost.
    """
    base = get_preset(name)
    rng = np.random.default_rng(variant(seed))
    scale = 1.0 if variant(seed) else 0.0
    mu, _ = _modes(rng, scale * _AMPLITUDE)
    mv, mv_grad = _modes(rng, scale * 0.5)
    a = scale * _AMPLITUDE

    def u0(x, y):
        return base.u0(x, y) * (1.0 + mu(x, y))

    def v0(x, y):
        return base.v0(x, y) + a * (1.0 + mv(x, y))

    def grad_v0(x, y):
        (gx, gy), (px, py) = base.grad_v0(x, y), mv_grad(x, y)
        return gx + a * px, gy + a * py

    return ICPreset(f"{name}+seed{seed}", u0, v0, grad_v0)


@dataclass
class LegResult:
    scheme: str
    attempted: int = 0
    completed: int = 0
    failure: Optional[str] = None  # exception class of the failed step
    setup_s: float = 0.0
    run_s: float = 0.0  # steps (step entry) or whole runner.run (runner entry)
    energy: float = float("nan")  # final energy_modified
    mass_drift: float = float("nan")  # worst relative drift
    law_rel: Optional[float] = None  # worst energy-law LHS / |E_prev|
    series_bytes: int = 0
    peak_rss_mb: float = 0.0  # of the process, when the leg ended
    problems: list = field(default_factory=list)


def _recording(tracer):
    return tracer.recording() if tracer is not None else nullcontext()


def _step_leg(wl: Workload, leg: Leg, ic: ICPreset, tracer) -> LegResult:
    cfg = wl.config(leg)
    res = LegResult(leg.scheme)
    with _recording(tracer):
        t0 = perf_counter()
        m = mesh.build_rect_mesh(wl.nx, wl.nx, LENGTH, LENGTH)
        ws = schemes.Workspace(m, cfg)
        state = schemes.init_state(m, cfg, ic.u0, ic.v0, ic.grad_v0)
        res.setup_s = perf_counter() - t0
    mass0 = diagnostics.mass(m, state.u)
    e_prev = diagnostics.energy_modified(m, ws.pot, cfg, state)
    has_law = cfg.scheme != "uv"
    masses, laws = [], []
    prev = state
    with _recording(tracer):
        t0 = perf_counter()
        for _ in range(wl.steps):
            res.attempted += 1
            try:
                new, _ = ws.step(state)
            except FAILURES as exc:
                res.failure = type(exc).__name__
                break
            prev, state = state, new
            res.completed += 1
            if wl.every_step_diagnostics:
                masses.append(diagnostics.mass(m, state.u))
                e = diagnostics.energy_modified(m, ws.pot, cfg, state)
                if has_law:
                    lhs = diagnostics.energy_law_lhs(m, ws.pot, cfg, prev, state)
                    laws.append(lhs / abs(e_prev))
                e_prev = e
        res.run_s = perf_counter() - t0
    if res.failure:
        return res
    # outside the timed region: the final step's figures
    if not wl.every_step_diagnostics:
        masses = [diagnostics.mass(m, state.u)]
        if has_law:
            lhs = diagnostics.energy_law_lhs(m, ws.pot, cfg, prev, state)
            laws = [lhs / abs(diagnostics.energy_modified(m, ws.pot, cfg, prev))]
    res.mass_drift = float(np.max(np.abs(np.array(masses) - mass0))) / abs(mass0)
    res.law_rel = float(np.max(laws)) if laws else None
    res.energy = diagnostics.energy_modified(m, ws.pot, cfg, state)
    return res


def _runner_leg(wl: Workload, leg: Leg, ic: ICPreset, tracer: Tracer, workdir) -> LegResult:
    res = LegResult(leg.scheme)
    rc = runner.RunConfig(
        scheme=leg.scheme,
        p=P,
        eps=leg.eps,
        dt=leg.dt or wl.dt,
        steps=wl.steps,
        nx=wl.nx,
        ny=wl.nx,
        lx=LENGTH,
        ly=LENGTH,
        ic=wl.ic,
        picard_tol=wl.picard_tol,
        picard_max=wl.picard_max,
        output_every=1,
        out_dir=os.path.join(workdir, leg.scheme),
    )
    first = len(tracer.spans)
    # the run receives the seeded initial data in place of the named preset
    with patched(runner, "get_preset", lambda _name: ic), tracer.recording():
        t0 = perf_counter()
        try:
            out = runner.run(rc)
        except SolverError as exc:  # escapes runner.run; steps done unknown
            out = exc
        res.run_s = perf_counter() - t0
    res.setup_s = sum(e - s for name, s, e, _ in tracer.spans[first:] if name in SETUP_SPANS)
    try:
        if isinstance(out, SolverError):
            res.attempted, res.failure = 1, "SolverError"
            return res
        res.completed = out.records[-1].step
        res.failure = _RUN_STATUS.get(out.status)
        res.attempted = res.completed + (res.failure is not None)
        if res.failure:
            return res
        _check_run_files(rc, res)
        masses = np.array([r.mass for r in out.records])
        res.mass_drift = float(np.max(np.abs(masses - masses[0]))) / abs(masses[0])
        res.energy = out.records[-1].energy_modified
    finally:
        shutil.rmtree(rc.out_dir, ignore_errors=True)
    return res


def _check_run_files(rc, res: LegResult):
    series = os.path.join(rc.out_dir, "series.csv")
    res.series_bytes = os.path.getsize(series)
    with open(series) as fp:
        header = fp.readline().strip().split(",")
    rows = np.atleast_2d(np.genfromtxt(series, delimiter=",", skip_header=1))
    if rows.shape != (rc.steps + 1, len(header)):
        want = (rc.steps + 1, len(header))
        res.problems.append(f"series.csv has shape {rows.shape}, want {want}")
        return
    # residual_RE is empty on the step-0 row by design
    rows[0, header.index("residual_RE")] = 0.0
    if not np.isfinite(rows).all():
        res.problems.append("series.csv has non-finite values")
    if not os.path.exists(os.path.join(rc.out_dir, "config.echo")):
        res.problems.append("config.echo is missing")


def run_leg(wl: Workload, leg: Leg, ic: ICPreset, tracer=None, workdir=None) -> LegResult:
    """One leg; ``tracer`` None measures untraced.  Untraced runner legs
    still wrap the three set-up calls to time set-up inside runner.run."""
    if wl.entry == "runner":
        own = tracer if tracer is not None else Tracer()
        with instrument(own, None if tracer is not None else SETUP_SPANS):
            res = _runner_leg(wl, leg, ic, own, workdir)
    elif tracer is None:
        res = _step_leg(wl, leg, ic, None)
    else:
        with instrument(tracer):
            res = _step_leg(wl, leg, ic, tracer)
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fp:
        return json.load(fp)


def check_leg(wl: Workload, res: LegResult, seed: int, reference: dict) -> list:
    """Acceptance bounds on one completed leg; returns the violations."""
    if res.failure:
        return []
    tag = f"{wl.name} {res.scheme}"
    out = [f"{tag}: {p}" for p in res.problems]
    if not res.mass_drift <= MASS_TOL:
        out.append(f"{tag}: relative mass drift {res.mass_drift:.3e} > {MASS_TOL:g}")
    if res.law_rel is not None and not res.law_rel <= LAW_TOL:
        out.append(f"{tag}: energy-law LHS {res.law_rel:+.3e} relative > {LAW_TOL:g}")
    try:
        ref = reference[wl.name][res.scheme][variant(seed)]
    except (KeyError, IndexError):
        return out + [f"{tag}: no reference energy for variant {variant(seed)}"]
    # Picard stops at a relative change of picard_tol; the energies differ
    # from the converged fixed point by far less (measured below 2e-4 of it)
    if not abs(res.energy - ref) <= wl.picard_tol * abs(ref):
        out.append(
            f"{tag}: energy {res.energy!r} differs from reference {ref!r} "
            f"by more than {wl.picard_tol:g} relative"
        )
    return out


def measure(wl: Workload, ic: ICPreset, seconds: float, tracers=None, workdir=None) -> list:
    """Rounds of one leg per scheme until ``seconds`` is (nearly) used up.

    Returns ``[untraced]``, or with ``tracers`` (scheme -> Tracer)
    ``[untraced, traced]``, each {scheme: [LegResult, ...]}.  Untraced and
    traced rounds alternate, so drift in machine speed, which lasts tens of
    seconds, affects both alike.
    """
    phases = [{leg.scheme: [] for leg in wl.legs} for _ in range(2 if tracers else 1)]
    start = perf_counter()
    rounds = 0
    while True:
        for traced, legs in enumerate(phases):
            for leg in wl.legs:
                tracer = tracers[leg.scheme] if traced else None
                legs[leg.scheme].append(run_leg(wl, leg, ic, tracer, workdir))
        rounds += 1
        elapsed = perf_counter() - start
        # stop where the run ends closest to the budget
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return phases
