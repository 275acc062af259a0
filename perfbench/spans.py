"""In-memory spans around the public chemorepfem functions.

The benchmark never edits the program's files: :func:`instrument` swaps the public
functions of ``mesh``, ``schemes``, ``fem``, ``lambda_ops``,
``regularization``, ``linsolve``, ``diagnostics`` and ``runner`` for
wrappers that record a span (name, start, end, parent) per call, plus
counts taken from the values the calls return, and puts the originals back
on exit.  :func:`layer_metrics` turns one scheme's spans into per-layer
self times and ratios.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter

from chemorepfem import (
    diagnostics,
    fem,
    lambda_ops,
    linsolve,
    mesh,
    regularization,
    runner,
    schemes,
)

SETUP_SPANS = ("mesh.build", "schemes.workspace", "schemes.init_state")

_MISSING = object()

_LOADS = (
    "grad_p1",
    "gradient_load",
    "weighted_gradient_load",
    "lumped_load",
    "mixed_vector_load",
)
_POTENTIAL = ("f_value", "f_prime", "f_second", "a_eps")
_DIAGNOSTICS = (
    "mass",
    "mean_v",
    "min_nodal",
    "neg_part_l2",
    "energy_modified",
    "energy_exact",
    "residual_RE",
    "energy_law_lhs",
    "mean_v_balance",
)


class Tracer:
    """Spans and counters of one traced phase, kept in memory.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of
    the enclosing span or None.  Only calls made inside :meth:`recording`
    are recorded.  Calls nested in an *opaque* span (set-up and
    diagnostics) are not recorded on their own, so their whole time stays
    with the opaque span: a CG solve inside ``energy_law_lhs`` counts as
    diagnostics, not as ``linsolve``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._on = False
        self._stack: list[int] = []
        self._opaque = 0

    @contextmanager
    def recording(self):
        self._on = True
        try:
            yield self
        finally:
            self._on = False

    def wrap(self, name, fn, opaque=False, on_result=None, on_error=None):
        """Return ``fn`` wrapped so that each recorded call leaves a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._on or self._opaque:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                span[2] = perf_counter()
                self._opaque -= opaque
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced


def total_times(spans) -> Counter:
    """Total span duration per span name."""
    out = Counter()
    for name, start, end, _ in spans:
        out[name] += end - start
    return out


def self_times(spans) -> Counter:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    out = total_times(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            out[spans[parent][0]] -= end - start
    return out


def _iterations(key):
    def hook(counts, result):
        counts[key] += result.iterations

    return hook


def _ilu_fill(counts, fac):
    counts["ilu_nnz"] += fac.nnz
    counts["ilu_rows"] += fac.shape[0]


def _ilu_fallback(counts, exc):
    # linsolve falls back to Jacobi when spilu raises RuntimeError
    if isinstance(exc, RuntimeError):
        counts["ilu_fallbacks"] += 1


def _solver_error(counts, exc):
    if isinstance(exc, linsolve.SolverError):
        counts["solver_errors"] += 1


def _picard(counts, result):
    counts["picard_iters"] += result[1].iterations


def _targets():
    """(owner, attribute, span name, opaque, result hook, error hook)."""
    pot = regularization.RegularizedPotential
    return [
        (mesh, "build_rect_mesh", "mesh.build", True, None, None),
        (schemes.Workspace, "__init__", "schemes.workspace", True, None, None),
        (schemes, "init_state", "schemes.init_state", True, None, None),
        (schemes.Workspace, "step", "schemes.step", False, _picard, None),
        (fem, "convection_u", "fem.convection_u", False, None, None),
        *[(fem, f, "fem.load", False, None, None) for f in _LOADS],
        (lambda_ops, "lambda2", "lambda_ops.lambda2", False, None, None),
        *[(pot, f, "regularization.eval", False, None, None) for f in _POTENTIAL],
        (linsolve.spla, "spilu", "linsolve.spilu", False, _ilu_fill, _ilu_fallback),
        (
            linsolve,
            "solve_general",
            "linsolve.bicgstab",
            False,
            _iterations("bicgstab_iters"),
            _solver_error,
        ),
        (linsolve, "solve_spd", "linsolve.cg", False, _iterations("cg_iters"), _solver_error),
        *[(diagnostics, f, "diagnostics", True, None, None) for f in _DIAGNOSTICS],
        (runner, "run", "runner.run", False, None, None),
    ]


def _holders(owner, attr):
    """Every place the program looks ``owner.attr`` up: a function imported
    by name into another chemorepfem module is patched there too."""
    original = getattr(owner, attr)
    found = [owner]
    if not isinstance(owner, type) and owner.__name__.startswith("chemorepfem"):
        for name, module in list(sys.modules.items()):
            if name.startswith("chemorepfem") and module is not owner:
                if getattr(module, attr, None) is original:
                    found.append(module)
    return found


@contextmanager
def patched(owner, attr, value):
    """Temporarily set ``owner.attr`` (and its by-name imports) to ``value``."""
    holders = _holders(owner, attr)
    # a lazily loaded module may serve the attribute from __getattr__
    originals = [h.__dict__.get(attr, _MISSING) for h in holders]
    try:
        for h in holders:
            setattr(h, attr, value)
        yield
    finally:
        for h, orig in zip(holders, originals):
            if orig is _MISSING:
                delattr(h, attr)
            else:
                setattr(h, attr, orig)


@contextmanager
def instrument(tracer: Tracer, only=None):
    """Wrap the public functions for ``tracer``; ``only`` limits the span
    names that get wrapped (``SETUP_SPANS`` times set-up inside
    ``runner.run`` at a cost of three wrapped calls per run)."""
    with ExitStack() as stack:
        for owner, attr, name, opaque, on_result, on_error in _targets():
            if only is None or name in only:
                wrapper = tracer.wrap(name, getattr(owner, attr), opaque, on_result, on_error)
                stack.enter_context(patched(owner, attr, wrapper))
        yield tracer


# per-layer metric (without the ".<scheme>" suffix) -> unit
LAYER_UNITS = {
    "mesh.build_s": "s",
    "schemes.workspace_s": "s",
    "schemes.init_state_s": "s",
    "schemes.step_s": "s/step",
    "schemes.step_self_s": "s/step",
    "schemes.picard_iters_per_step": "iter/step",
    "schemes.steps_failed": "count",
    "fem.convection_u_s": "s/step",
    "fem.convection_u_calls": "1/step",
    "fem.loads_s": "s/step",
    "lambda_ops.lambda2_s": "s/step",
    "lambda_ops.lambda2_calls": "1/step",
    "regularization.eval_s": "s/step",
    "linsolve.ilu_s": "s/step",
    "linsolve.ilu_calls": "1/step",
    "linsolve.ilu_nnz_per_row": "nnz/row",
    "linsolve.ilu_fallbacks": "count",
    "linsolve.bicgstab_s": "s/step",
    "linsolve.bicgstab_iters_per_solve": "iter/solve",
    "linsolve.cg_s": "s/step",
    "linsolve.cg_calls": "1/step",
    "linsolve.cg_iters_per_solve": "iter/solve",
    "linsolve.solver_errors": "count",
    "diagnostics.time_s": "s/step",
    "diagnostics.max_law_rel": "ratio",
    "diagnostics.max_mass_drift_rel": "ratio",
    "runner.self_s": "s/step",
    "runner.series_bytes": "B",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, steps: int, setups: int) -> dict:
    """Per-layer figures of one scheme's traced legs.

    Times on the step path are per completed step, set-up times per set-up,
    iteration counts per solve.  ``linsolve.bicgstab_s`` is the self time of
    ``solve_general``, i.e. without the ILU build it calls.
    """
    own = self_times(tracer.spans)
    total = total_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)
    c = tracer.counts
    return {
        "mesh.build_s": _ratio(total["mesh.build"], setups),
        "schemes.workspace_s": _ratio(total["schemes.workspace"], setups),
        "schemes.init_state_s": _ratio(total["schemes.init_state"], setups),
        "schemes.step_s": _ratio(total["schemes.step"], steps),
        "schemes.step_self_s": _ratio(own["schemes.step"], steps),
        "schemes.picard_iters_per_step": _ratio(c["picard_iters"], steps),
        "fem.convection_u_s": _ratio(own["fem.convection_u"], steps),
        "fem.convection_u_calls": _ratio(calls["fem.convection_u"], steps),
        "fem.loads_s": _ratio(own["fem.load"], steps),
        "lambda_ops.lambda2_s": _ratio(own["lambda_ops.lambda2"], steps),
        "lambda_ops.lambda2_calls": _ratio(calls["lambda_ops.lambda2"], steps),
        "regularization.eval_s": _ratio(own["regularization.eval"], steps),
        "linsolve.ilu_s": _ratio(own["linsolve.spilu"], steps),
        "linsolve.ilu_calls": _ratio(calls["linsolve.spilu"], steps),
        "linsolve.ilu_nnz_per_row": _ratio(c["ilu_nnz"], c["ilu_rows"]),
        "linsolve.ilu_fallbacks": c["ilu_fallbacks"],
        "linsolve.bicgstab_s": _ratio(own["linsolve.bicgstab"], steps),
        "linsolve.bicgstab_iters_per_solve": _ratio(
            c["bicgstab_iters"], calls["linsolve.bicgstab"]
        ),
        "linsolve.cg_s": _ratio(own["linsolve.cg"], steps),
        "linsolve.cg_calls": _ratio(calls["linsolve.cg"], steps),
        "linsolve.cg_iters_per_solve": _ratio(c["cg_iters"], calls["linsolve.cg"]),
        "linsolve.solver_errors": c["solver_errors"],
        "diagnostics.time_s": _ratio(total["diagnostics"], steps),
        "runner.self_s": _ratio(own["runner.run"], steps),
    }
