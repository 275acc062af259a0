"""Verification suite: module invariants and the acceptance criteria.

``run_verification("full")`` runs the complete acceptance list, and
``run_verification("fast")`` criteria 1-5, 9 and 10 with fewer random
fields and 8 x 8 legs.  Each distinct leg is stepped once: criteria 4
and 5 read one set of gauss traces, 6 and 7 one set of cosine traces.
Each criterion yields one CheckResult, which the CLI prints as a line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List

import numpy as np
from scipy.integrate import quad

from . import diagnostics, fem, lambda_ops
from ._oracle import DenseOracle
from .linsolve import SolverError
from .mesh import build_rect_mesh
from .regularization import RegularizedPotential
from .runner import RunConfig, start
from .schemes import SCHEMES, PicardError, SchemeConfig

__all__ = ["CheckResult", "run_verification"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure with the exception as detail
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# -- criteria 1 & 2: element identities and bounds ---------------------------


def _random_fields(mesh, pot, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0 * pot.eps, 2.0 / pot.eps, size=(count, mesh.n_nodes))


def _identity_worst(mesh, pot, fields):
    # fields: (F, n_nodes), processed in one batched sweep
    l1 = lambda_ops.lambda1(pot, mesh, fields)
    l2 = lambda_ops.lambda2(pot, mesh, fields)
    gu = fem.grad_p1(mesh, fields)
    gfp = fem.grad_p1(mesh, pot.f_prime(fields))
    rhs2 = (pot.p - 1.0) * fem.grad_p1(mesh, pot.f_value(fields))
    n = np.linalg.norm
    r1 = n(l1 * gfp - gu, axis=-1) / np.maximum(n(gu, axis=-1), 1e-300)
    r2 = n(l2 * gfp - rhs2, axis=-1) / np.maximum(n(rhs2, axis=-1), 1e-300)
    return float(r1.max()), float(r2.max())


def check_element_identities(n_fields=1000) -> CheckResult:
    def body():
        mesh = build_rect_mesh(8, 8, 2.0, 2.0)
        worst = 0.0
        for p in (1.1, 1.5, 1.9):
            for eps in (1e-1, 1e-3, 1e-5):
                pot = RegularizedPotential(p, eps)
                fields = _random_fields(mesh, pot, n_fields, seed=42)
                w1, w2 = _identity_worst(mesh, pot, fields)
                worst = max(worst, w1, w2)
        return worst <= 1e-12, f"worst relative residual {worst:.3e} (tol 1e-12)"

    return _result("1 element chain-rule identities", body)


def check_spectral_and_lipschitz_bounds(n_fields=1000) -> CheckResult:
    def body():
        mesh = build_rect_mesh(8, 8, 2.0, 2.0)
        el = mesh.elements
        slack = 1.0 + 1e-9  # the bounds are sharp; allow rounding only
        violations = 0
        for p in (1.1, 1.5, 1.9):
            for eps in (1e-1, 1e-3, 1e-5):
                pot = RegularizedPotential(p, eps)
                fields = _random_fields(mesh, pot, n_fields, seed=43)
                lo, hi = eps ** (2.0 - p), eps ** (p - 2.0)
                lip = 3.0 * eps ** (2 * (p - 2)) * max(1.0, (p - 1.0) * eps ** (2 * (p - 2)))
                inv = 1.0 / lambda_ops.lambda1(pot, mesh, fields)
                violations += int(np.sum(inv < lo / slack)) + int(np.sum(inv > hi * slack))
                # consecutive fields as the sample pairs for the Lipschitz bound
                l2 = lambda_ops.lambda2(pot, mesh, fields)
                diff = np.abs(l2[1:] - l2[:-1]).max(axis=-1)
                d0 = np.abs(fields[1:, el[:, 0]] - fields[:-1, el[:, 0]])
                dl = np.maximum(
                    np.abs(fields[1:, el[:, 1]] - fields[:-1, el[:, 1]]),
                    np.abs(fields[1:, el[:, 2]] - fields[:-1, el[:, 2]]),
                )
                violations += int(np.sum(diff > lip * (dl + d0) * slack))
        return violations == 0, f"{violations} bound violations"

    return _result("2 spectral and Lipschitz bounds", body)


# -- criterion 3: potential suite ---------------------------------------------


def check_potential_suite() -> CheckResult:
    def body():
        worst_jump = 0.0
        for p in (1.1, 1.4, 1.5, 1.9):
            for eps in (1e-1, 1e-3, 1e-5):
                pot = RegularizedPotential(p, eps)
                for s in (pot.s_lo, pot.s_hi):
                    for fn in (pot.f_value, pot.f_prime, pot.f_second):
                        at = fn(s)
                        for side in (np.nextafter(s, -np.inf), np.nextafter(s, np.inf)):
                            worst_jump = max(
                                worst_jump, abs(fn(side) - at) / max(abs(at), 1e-300)
                            )
                # lower bounds on a 1e4-point grid
                s_low = np.linspace(-3.0, eps, 10_000)
                if np.any(pot.f_value(s_low) < eps ** (p - 2.0) * s_low**2 / 4.0 - 1e-15):
                    return False, f"quadratic lower bound violated at p={p}, eps={eps}"
                s_up = np.geomspace(eps * (1 + 1e-12), 3.0 / eps, 10_000)
                if np.any(pot.f_value(s_up) < s_up**p / (p * (p - 1.0)) * (1 - 1e-14)):
                    return False, f"power lower bound violated at p={p}, eps={eps}"
                # integration oracle, locally anchored (see tests for the
                # literal fixed-step variant at eps = 1e-1)
                q = (2.0 - p) / (p - 1.0)
                anchors = {
                    0.0: (q * eps ** (p - 1.0), q * q * eps**p),
                    1.0: (pot.f_prime(1.0), pot.f_value(1.0)),
                }
                pts = sorted({pot.s_lo, min(pot.s_hi, 1e6)})
                targets = np.concatenate(
                    [np.linspace(-2.0, 2 * eps, 5), np.geomspace(eps, min(2.0 / eps, 1e6), 7)]
                )
                for s_t in targets:
                    a = 0.0 if abs(s_t) < np.sqrt(eps) else 1.0
                    fp_a, fv_a = anchors[a]
                    inner = [x for x in pts if min(a, s_t) < x < max(a, s_t)]
                    val, _ = quad(
                        pot.f_second, a, s_t, points=inner, limit=400, epsabs=1e-13, epsrel=1e-12
                    )
                    scale = max(abs(fp_a + val), pot.f_second(s_t) * (abs(s_t) + eps))
                    if abs(pot.f_prime(s_t) - (fp_a + val)) > 1e-7 * scale:
                        return False, f"f_prime oracle mismatch at p={p}, eps={eps}, s={s_t:g}"
                    val2, _ = quad(
                        pot.f_prime, a, s_t, points=inner, limit=400, epsabs=1e-13, epsrel=1e-12
                    )
                    if abs(pot.f_value(s_t) - (fv_a + val2)) > 1e-7 * max(abs(fv_a + val2), 1e-12):
                        return False, f"f_value oracle mismatch at p={p}, eps={eps}, s={s_t:g}"
        ok = worst_jump <= 1e-12
        return ok, f"worst breakpoint jump {worst_jump:.3e}; integration oracles agree at 1e-7"

    return _result("3 regularized potential suite", body)


# -- shared leg helper ----------------------------------------------------------

# the base leg of criteria 4 to 10: the run defaults (a 20 x 20 mesh of
# [0, 2]^2, linear_tol 1e-12) on the gauss data at dt = 1e-4
_BASE = RunConfig(p=1.5, dt=1e-4, steps=200, ic="gauss", picard_tol=1e-10, picard_max=500)


def _leg(rc, quantity):
    """Step the run ``rc`` as ``run`` does and evaluate ``quantity(ops, prev,
    state)`` after every step.  Returns the workspace, the initial state, the
    values of the completed steps and a Picard or solver failure's text ('' if none)."""
    ops, state0 = start(rc)
    values, failure = [], ""
    try:
        for prev, state, _ in ops.march(state0, rc.steps):
            values.append(quantity(ops, prev, state))
    except (PicardError, SolverError) as exc:
        failure = str(exc)
    return ops, state0, values, failure


def _mass_and_law(ops, prev, state):
    """Mass after a step and, but for uv, its energy-law LHS relative to |E_h(prev)|."""
    if ops.cfg.scheme == "uv":
        return diagnostics.mass(ops.mesh, state.u), None
    lhs = diagnostics.energy_law_lhs(ops.mesh, ops.pot, ops.cfg, prev, state)
    e_prev = abs(diagnostics.energy_modified(ops.mesh, ops.pot, ops.cfg, prev))
    return diagnostics.mass(ops.mesh, state.u), lhs / max(e_prev, 1e-300)


class _Unmade:
    """Traces whose making crashed: reading them raises the crash, which the
    reading check reports as its failure."""

    def __init__(self, exc):
        self.exc = exc

    def _raise(self, *key):
        raise self.exc

    __getitem__ = items = _raise


def _shared(make, *checks) -> List[CheckResult]:
    """Run checks that read one set of traces, each charged an equal share
    of the time to make them."""
    t0 = time.perf_counter()
    try:
        traces = make()
    except Exception as exc:  # each check then fails with the exception as detail
        traces = _Unmade(exc)
    share = (time.perf_counter() - t0) / len(checks)
    return [replace(r, seconds=r.seconds + share) for r in (check(traces) for check in checks)]


# -- criteria 4 & 5: conservation and energy laws ----------------------------

_GAUSS_RUNS = [("uv", None), ("uveps", 1e-3), ("useps", 1e-3), ("us0", None)]

# the fast level's legs: the same runs on an 8 x 8 mesh over 50 steps
_SMALL = replace(_BASE, steps=50, nx=8, ny=8)


def energy_law_legs():
    """All (scheme, eps, dt) legs of the energy-law criterion; plain
    backward Euler (uv) has no discrete energy law."""
    return [(s, eps, dt) for s, eps in _GAUSS_RUNS if s != "uv" for dt in (1e-4, 1e-2)]


def gauss_traces(base=_BASE):
    """Step each distinct (scheme, eps, dt) leg of criteria 4 and 5 once on the mesh
    and horizon of ``base``: its initial mass, (mass, law) per step and failure text."""
    legs = dict.fromkeys([(s, eps, _BASE.dt) for s, eps in _GAUSS_RUNS] + energy_law_legs())
    traces = {}
    for scheme, eps, dt in legs:
        rc = replace(base, scheme=scheme, eps=eps, dt=dt)
        ops, state0, values, failure = _leg(rc, _mass_and_law)
        traces[scheme, eps, dt] = diagnostics.mass(ops.mesh, state0.u), values, failure
    return traces


def check_mass_conservation(traces) -> CheckResult:
    def body():
        details = []
        ok = True
        for scheme, eps in _GAUSS_RUNS:
            mass0, values, failure = traces[scheme, eps, _BASE.dt]
            if failure:
                ok = False
                details.append(f"{scheme}: {failure}")
                continue
            rel = max(abs(m - mass0) for m, _ in values) / abs(mass0)
            ok = ok and rel <= 1e-10
            details.append(f"{scheme}: max rel drift {rel:.2e}")
        return ok, "; ".join(details) + " (tol 1e-10)"

    return _result("4 mass conservation", body)


def energy_law_leg_result(traces, scheme, eps, dt):
    """One leg read from traces: (passed, detail). Nonpositive LHS up to 1e-8 rel."""
    _, values, failure = traces[scheme, eps, dt]
    if failure:
        return False, f"{scheme} dt={dt:g}: {failure}"
    worst = max(law for _, law in values)
    return worst <= 1e-8, f"{scheme} dt={dt:g}: worst rel LHS {worst:+.2e} (tol 1e-8)"


def check_energy_laws(traces) -> CheckResult:
    def body():
        ok = True
        details = []
        for scheme, eps, dt in energy_law_legs():
            leg_ok, detail = energy_law_leg_result(traces, scheme, eps, dt)
            ok = ok and leg_ok
            details.append(("PASS " if leg_ok else "FAIL ") + detail)
        return ok, "; ".join(details)

    return _result("5 discrete energy laws", body)


# -- criteria 6 & 7: exact energy and residual signs --------------------------

_COSINE_RUNS = [
    ("uv", None),
    ("us0", None),
    ("uveps", 1e-4),
    ("uveps", 1e-7),
    ("useps", 1e-4),
    ("useps", 1e-7),
]

# picard_tol 1e-5: the published 1e-3 leaves iteration noise comparable to
# the monotonicity slack, and 1e-10 is unreachable for the near-kink
# eps=1e-7 map (stalls around 2e-6); 1e-5 converges on every leg
_COSINE = replace(_BASE, p=1.4, steps=300, ic="cosine", picard_tol=1e-5)


def _exact_and_re(ops, prev, state):
    """Exact energy after a step and the step's energy residual RE."""
    ee = diagnostics.energy_exact(ops.mesh, ops.cfg, state.u, state.v)
    return ee, diagnostics.residual_RE(ops.mesh, ops.cfg, (prev.u, prev.v), (state.u, state.v))


def _cosine_leg(rc):
    """Exact energies from step 0 on, RE of every step, and failure text."""
    ops, state0, values, failure = _leg(rc, _exact_and_re)
    ee0 = diagnostics.energy_exact(ops.mesh, ops.cfg, state0.u, state0.v)
    return [ee0] + [ee for ee, _ in values], [re for _, re in values], failure


def cosine_traces():
    return {
        (scheme, eps): _cosine_leg(replace(_COSINE, scheme=scheme, eps=eps))
        for scheme, eps in _COSINE_RUNS
    }


def check_exact_energy_monotone(traces) -> CheckResult:
    def body():
        ok = True
        details = []
        for (scheme, eps), (ee, _, failure) in traces.items():
            if failure:
                ok = False
                details.append(f"{scheme}/{eps}: {failure}")
                continue
            ee = np.asarray(ee)
            slack = 1e-8 * np.abs(ee[:-1])
            worst = float(np.max(np.diff(ee) - slack))
            ok = ok and worst <= 0.0
            details.append(f"{scheme}/eps={eps}: worst slacked increment {worst:+.2e}")
        return ok, "; ".join(details)

    return _result("6 exact-energy monotonicity", body)


def check_residual_signs(traces) -> CheckResult:
    def body():
        ok = True
        details = []
        us0_failed = False
        for (scheme, eps), (_, re, failure) in traces.items():
            if failure:
                ok = False
                details.append(f"{scheme}/{eps}: {failure}")
                continue
            re = np.asarray(re)
            if scheme in ("us0", "useps"):
                leg_ok = bool(np.all(re <= 0.0))
                ok = ok and leg_ok
                us0_failed = us0_failed or (scheme == "us0" and not leg_ok)
                details.append(f"{scheme}/eps={eps}: max RE {re.max():+.3e} (must be <= 0)")
            elif scheme == "uv":
                leg_ok = bool(np.any(re > 0.0))
                ok = ok and leg_ok
                details.append(
                    f"uv: {int(np.sum(re > 0))} steps with RE > 0 (needs >= 1; measured RE "
                    "stays negative over 3000 steps at nx=20, 300 at nx=50, and at "
                    "dt=1e-3 and 1e-5)"
                )
            else:  # uveps: positive RE may vanish at desk scale; record only
                details.append(
                    f"uveps/eps={eps}: {int(np.sum(re > 0))} steps with RE > 0 "
                    "(scale-dependent, not gated)"
                )
        if us0_failed:
            # RE is the continuous law evaluated on discrete fields, and no
            # discrete law fixes its sign: refining the mesh only delays its
            # positive phase (from step 211 at nx=20, 306 at nx=50, so this
            # 300-step rerun ends just before it)
            _, re50, _ = _cosine_leg(replace(_COSINE, scheme="us0", eps=None, nx=50, ny=50))
            re50 = np.asarray(re50)
            details.append(
                f"evidence: same us0 run at nx=50 over {len(re50)} steps gives max RE "
                f"{re50.max():+.3e} ({int(np.sum(re50 > 0))} positive steps)"
            )
        return ok, "; ".join(details)

    return _result("7 energy-residual signs", body)


# -- criterion 8: positivity trend -----------------------------------------------


def _min_and_neg_part(ops, prev, state):
    return float(state.u.min()), diagnostics.neg_part_l2(ops.mesh, state.u)


def check_positivity_trend() -> CheckResult:
    def body():
        ok = True
        details = []
        for p in (1.1, 1.5, 1.9):
            for scheme in filter(SchemeConfig.takes_eps, SCHEMES):
                vals = {}
                for eps in (1e-3, 1e-5):
                    rc = replace(_BASE, scheme=scheme, p=p, eps=eps, picard_tol=1e-3)
                    _, _, values, failure = _leg(rc, _min_and_neg_part)
                    if failure:
                        return False, f"{scheme} p={p} eps={eps}: {failure}"
                    vals[eps] = (min(min(m for m, _ in values), 0.0), max(n for _, n in values))
                m3, n3 = vals[1e-3]
                m5, n5 = vals[1e-5]
                ok = ok and abs(m5) <= abs(m3) + 1e-12 and n5 <= n3 + 1e-12
                details.append(
                    f"{scheme} p={p}: min {m3:+.2e}->{m5:+.2e}, negnorm {n3:.2e}->{n5:.2e}"
                )
        return ok, "; ".join(details)

    return _result("8 positivity trend in eps", body)


# -- criterion 9: constant-state exactness ------------------------------------


def check_constant_state() -> CheckResult:
    def body():
        base = replace(_BASE, dt=0.1, steps=20, nx=4, ny=4, ic="constant:2:1")
        base = replace(base, picard_tol=1e-13, picard_max=200, linear_tol=1e-14)
        worst = 0.0
        for scheme, eps in (("uv", None), ("uveps", 0.01)):
            ops, _, values, failure = _leg(
                replace(base, scheme=scheme, eps=eps),
                lambda _ops, _prev, state: (np.abs(state.u - 2.0).max(), state.v),
            )
            if failure:
                return False, failure
            if scheme == "uv":
                source = 2.0**1.5
            else:
                source = 1.5 * 0.5 * ops.pot.f_value(2.0)
            v_ref = 1.0
            for u_gap, v in values:
                v_ref = (v_ref + 0.1 * source) / 1.1
                worst = max(worst, u_gap, np.abs(v - v_ref).max() / max(1.0, abs(v_ref)))
        return worst <= 1e-12, f"worst deviation from scalar recurrence {worst:.2e} (tol 1e-12)"

    return _result("9 constant-state exactness", body)


# -- criterion 10: dense one-step oracle ----------------------------------------


def _oracle_gap(ops, prev, state):
    """Largest DOF gap between a step and the dense oracle's step."""
    u_o, v_o, s_o = DenseOracle(ops.mesh, ops.cfg).step(prev)
    gap = max(np.abs(state.u - u_o).max(), np.abs(state.v - v_o).max())
    if s_o is not None:
        gap = max(gap, np.abs(state.sigma - s_o).max())
    return gap


def check_dense_oracle() -> CheckResult:
    def body():
        base = replace(_BASE, steps=1, nx=2, ny=2, picard_tol=1e-13, linear_tol=1e-13)
        worst = 0.0
        details = []
        for scheme, eps in _GAUSS_RUNS:
            _, _, gaps, failure = _leg(replace(base, scheme=scheme, eps=eps), _oracle_gap)
            if failure:
                return False, failure
            (gap,) = gaps
            worst = max(worst, gap)
            details.append(f"{scheme}: {gap:.2e}")
        return worst <= 1e-9, "max DOF gap vs dense oracle: " + "; ".join(details) + " (tol 1e-9)"

    return _result("10 dense fixed-point oracle", body)


# -- driver -------------------------------------------------------------------------


def run_verification(level: str = "fast") -> List[CheckResult]:
    """Run the chosen verification level and return per-check results."""
    if level == "fast":
        return [
            check_element_identities(n_fields=60),
            check_spectral_and_lipschitz_bounds(n_fields=60),
            check_potential_suite(),
            *_shared(lambda: gauss_traces(_SMALL), check_mass_conservation, check_energy_laws),
            check_constant_state(),
            check_dense_oracle(),
        ]
    if level == "full":
        return [
            check_element_identities(),
            check_spectral_and_lipschitz_bounds(),
            check_potential_suite(),
            *_shared(gauss_traces, check_mass_conservation, check_energy_laws),
            *_shared(cosine_traces, check_exact_energy_monotone, check_residual_signs),
            check_positivity_trend(),
            check_constant_state(),
            check_dense_oracle(),
        ]
    raise ValueError(f"unknown verification level {level!r}; choose 'fast' or 'full'")
