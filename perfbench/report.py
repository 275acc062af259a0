"""Metric names, units and the result line the benchmark prints last."""

from __future__ import annotations

import json
import math
import re
from statistics import median

from chemorepfem.schemes import SCHEMES

from .spans import LAYER_UNITS, layer_metrics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

END_TO_END_UNITS = {
    **{f"steps_per_s.{s}": "1/s" for s in SCHEMES},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {f"{base}.{s}": unit for s in SCHEMES for base, unit in LAYER_UNITS.items()}


def rate(legs) -> float:
    """Completed steps per second of the legs' wall time, all legs pooled;
    the time of a failed step counts."""
    seconds = sum(r.run_s for r in legs)
    return sum(r.completed for r in legs) / seconds if seconds > 0 else 0.0


def end_to_end(legs: dict) -> dict:
    """Steps/s per scheme, summed median set-up time, and the peak RSS by
    the end of the first round.  Later rounds repeat the same work,
    but every mesh the program builds stays cached for the life of the
    process (fem.forms), so the peak after them grows with the round count."""
    out = {f"steps_per_s.{s}": rate(legs[s]) for s in SCHEMES}
    out["setup_s"] = sum(median(r.setup_s for r in rs) for rs in legs.values())
    out["peak_rss_mb"] = max(rs[0].peak_rss_mb for rs in legs.values())
    return out


def per_layer(untraced: dict, traced: dict, tracers: dict, probe_failed: dict) -> dict:
    """Per-layer figures of every scheme from its traced legs; the overhead
    compares steps/s with the untraced legs of the same run."""
    out = {}
    for s in SCHEMES:
        rs = traced[s]
        steps = sum(r.completed for r in rs)
        figures = layer_metrics(tracers[s], steps, len(rs))
        laws = [r.law_rel for r in rs if r.law_rel is not None]
        drifts = [r.mass_drift for r in rs if not r.failure]
        base_rate = rate(untraced[s])
        figures.update(
            {
                "schemes.steps_failed": sum(r.attempted - r.completed for r in rs)
                + probe_failed.get(s, 0),
                "diagnostics.max_law_rel": max(laws) if laws else 0.0,
                "diagnostics.max_mass_drift_rel": max(drifts) if drifts else 0.0,
                "runner.series_bytes": max(r.series_bytes for r in rs),
                "trace.overhead_frac": 1.0 - rate(rs) / base_rate
                if base_rate
                else 0.0,
            }
        )
        out.update({f"{name}.{s}": value for name, value in figures.items()})
    return out


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    """The JSON object printed as the last line: every metric with its unit."""
    metrics = {}
    for name, unit in units.items():
        if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit):
            raise ValueError(f"bad metric name or unit: {name!r} [{unit!r}]")
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    extra = set(values) - set(units)
    if extra:
        raise ValueError(f"metrics without a unit: {sorted(extra)}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )

