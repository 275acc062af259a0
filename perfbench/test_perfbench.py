"""Tests of the benchmark's own logic (run with the repository's suite)."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from chemorepfem import fem, linsolve, schemes
from chemorepfem.presets import get_preset

from perfbench import report, spans
from perfbench.workloads import Leg, Workload, _modes, check_leg, run_leg, seeded_preset

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_of_nested_spans():
    spans_ = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["b", 11.0, 12.0, None],
    ]
    own = spans.self_times(spans_)
    assert own == {"a": 3.0, "b": 3.0, "c": 1.0, "d": 4.0}
    assert spans.total_times(spans_)["b"] == 4.0


def test_tracer_parents_and_opaque_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + 1)
    hidden = tracer.wrap("hidden", lambda: inner(), opaque=True)
    assert outer() == 2  # not recording yet
    assert tracer.spans == []
    with tracer.recording():
        outer()
        hidden()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("hidden", None)]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_instrument_restores_the_program():
    originals = (fem.convection_u, schemes.lambda2, spla.spilu, linsolve.solve_spd)
    with spans.instrument(spans.Tracer()):
        assert schemes.lambda2 is not originals[1]
        assert spla.spilu is not originals[2]
    assert (fem.convection_u, schemes.lambda2, spla.spilu, linsolve.solve_spd) == originals


def test_metric_names_and_units():
    for units in (report.END_TO_END_UNITS, report.PER_LAYER_UNITS):
        for name, unit in units.items():
            assert report.NAME_RE.fullmatch(name), name
            assert report.UNIT_RE.fullmatch(unit), unit
    assert len(report.PER_LAYER_UNITS) <= 128
    if BENCHMARK_JSON.exists():
        bench = json.loads(BENCHMARK_JSON.read_text())
        assert [m["name"] for m in bench["end_to_end"]] == list(report.END_TO_END_UNITS)
        assert [m["name"] for m in bench["per_layer"]] == list(report.PER_LAYER_UNITS)
        for m in bench["end_to_end"] + bench["per_layer"]:
            units = {**report.END_TO_END_UNITS, **report.PER_LAYER_UNITS}
            assert m["unit"] == units[m["name"]]


def test_result_line_prints_the_unit_beside_every_metric():
    units = report.END_TO_END_UNITS
    values = {name: 1.5 for name in units}
    out = json.loads(report.result_line(True, 10, 1, values, units))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert (out["attempted"], out["failed"]) == (10, 1)
    assert out["metrics"] == {name: {"value": 1.5, "unit": unit} for name, unit in units.items()}
    with pytest.raises(ValueError):
        report.result_line(True, 1, 0, {**values, "extra": 1.0}, units)
    with pytest.raises(ValueError):
        report.result_line(True, 1, 0, {**values, "setup_s": float("nan")}, units)
    with pytest.raises(ValueError):
        report.result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})


def _tiny(entry, picard_max):
    return Workload(
        "tiny",
        entry,
        "gauss",
        nx=6,
        dt=1e-2,
        picard_tol=1e-12,
        picard_max=picard_max,
        steps=2,
        legs=(Leg("uv"),),
    )


@pytest.mark.parametrize("entry", ["step", "runner"])
def test_forced_picard_error_is_a_counted_failure(entry, tmp_path):
    wl = _tiny(entry, picard_max=1)
    res = run_leg(wl, wl.legs[0], seeded_preset("gauss", 0), workdir=str(tmp_path))
    assert (res.attempted, res.completed, res.failure) == (1, 0, "PicardError")
    assert report.rate([res]) == 0.0 and res.peak_rss_mb > 0
    assert check_leg(wl, res, 0, {}) == []


def test_traced_leg_splits_the_step():
    wl = _tiny("step", picard_max=50)
    tracer = spans.Tracer()
    res = run_leg(wl, wl.legs[0], seeded_preset("gauss", 3), tracer)
    assert res.completed == 2 and res.failure is None
    m = spans.layer_metrics(tracer, res.completed, 1)
    iters = m["schemes.picard_iters_per_step"]
    assert iters >= 1
    # one convection assembly and one ILU per u-solve, one CG per v-solve
    assert m["fem.convection_u_calls"] == m["linsolve.ilu_calls"] == iters
    assert m["linsolve.cg_calls"] == iters
    children = ("convection_u_s", "loads_s", "ilu_s", "bicgstab_s", "cg_s")
    parts = sum(v for k, v in m.items() if k.split(".")[1] in children)
    assert m["schemes.step_self_s"] >= 0
    assert m["schemes.step_s"] == pytest.approx(m["schemes.step_self_s"] + parts)
    assert m["mesh.build_s"] > 0 and m["schemes.init_state_s"] > 0


def test_seeded_inputs():
    x, y = np.meshgrid(np.linspace(0, 2, 41), np.linspace(0, 2, 41))
    for name in ("gauss", "cosine"):
        preset, zero = get_preset(name), seeded_preset(name, 0)
        # variant 0 is the preset bit for bit
        assert np.array_equal(zero.u0(x, y), preset.u0(x, y))
        assert np.array_equal(zero.v0(x, y), preset.v0(x, y))
        assert np.array_equal(np.array(zero.grad_v0(x, y)), np.array(preset.grad_v0(x, y)))
        assert np.array_equal(seeded_preset(name, 32).u0(x, y), preset.u0(x, y))
    base = get_preset("gauss")
    ic, again = seeded_preset("gauss", 7), seeded_preset("gauss", 7)
    assert np.array_equal(ic.u0(x, y), again.u0(x, y))
    assert not np.array_equal(ic.u0(x, y), base.u0(x, y))
    assert np.all(ic.u0(x, y) > 0)
    assert np.max(np.abs(ic.u0(x, y) / base.u0(x, y) - 1.0)) <= 0.02 + 1e-12
    assert np.all(ic.v0(x, y) > base.v0(x, y))
    h = 1e-6
    fd_x = (ic.v0(x + h, y) - ic.v0(x - h, y)) / (2 * h)
    fd_y = (ic.v0(x, y + h) - ic.v0(x, y - h)) / (2 * h)
    gx, gy = ic.grad_v0(x, y)
    assert np.allclose(gx, fd_x, rtol=1e-6, atol=1e-6)
    assert np.allclose(gy, fd_y, rtol=1e-6, atol=1e-6)
    # the modes have zero normal derivative on the boundary of [0,2]^2
    _, grad = _modes(np.random.default_rng(1), 0.5)
    edge = np.linspace(0, 2, 9)
    for fixed in (0.0, 2.0):
        assert np.allclose(grad(np.full_like(edge, fixed), edge)[0], 0.0, atol=1e-12)
        assert np.allclose(grad(edge, np.full_like(edge, fixed))[1], 0.0, atol=1e-12)
