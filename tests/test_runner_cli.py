"""Run/sweep serialization, determinism, CLI contract, VTK output."""

import csv
import math
import os

import numpy as np
import pytest

from chemorepfem import build_rect_mesh, runner
from chemorepfem.cli import main
from chemorepfem.runner import (
    ConfigError,
    NonFiniteError,
    RunConfig,
    execute_run,
    parse_config_file,
    resolve_config,
    run,
    sweep,
)
from chemorepfem.schemes import SchemeState
from chemorepfem.vtkio import dump_field

FAST = dict(dt=1e-3, steps=10, nx=4, ny=4, picard_tol=1e-8, linear_tol=1e-12)


def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(
        "# comment line\nscheme = useps\np = 1.4  # inline comment\neps = 1e-3\n\nsteps = 7\n"
    )
    values = parse_config_file(cfgfile)
    rc = resolve_config(values, {"nx": 5})
    assert rc.scheme == "useps" and rc.p == 1.4 and rc.eps == 1e-3
    assert rc.steps == 7 and rc.nx == 5 and rc.ny == 20  # default survives

    bad = tmp_path / "bad.cfg"
    bad.write_text("scheme useps\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        resolve_config({}, {"steps": 0})
    with pytest.raises(ConfigError):
        resolve_config({}, {"scheme": "bogus"})
    with pytest.raises(ConfigError):
        resolve_config({}, {"ic": "unknown-preset"})
    with pytest.raises(ConfigError):
        resolve_config({}, {"frobnicate": 1})
    with pytest.raises(ConfigError):
        resolve_config({"p": "not-a-number"}, {})


def test_constant_run_columns():
    rc = RunConfig(scheme="uv", ic="constant:2:1", **FAST)
    result = execute_run(rc)
    assert result.ok
    masses = {r.mass for r in result.records}
    assert max(masses) - min(masses) <= 1e-12
    assert all(r.min_u == pytest.approx(2.0, abs=1e-11) for r in result.records)
    assert result.records[0].residual_RE is None
    assert all(r.residual_RE is not None for r in result.records[1:])


def test_run_writes_and_reruns_bitwise(tmp_path):
    out1 = tmp_path / "a"
    rc = RunConfig(scheme="uveps", eps=1e-3, ic="gauss", out_dir=str(out1), **FAST)
    result = run(rc)
    assert result.ok
    series1 = (out1 / "series.csv").read_bytes()
    echoed = parse_config_file(out1 / "config.echo")
    out2 = tmp_path / "b"
    echoed["out_dir"] = str(out2)
    rc2 = resolve_config(echoed, {})
    run(rc2)
    series2 = (out2 / "series.csv").read_bytes()
    assert series1 == series2


def test_series_csv_schema_and_finiteness(tmp_path):
    out = tmp_path / "r"
    rc = RunConfig(scheme="us0", ic="cosine", output_every=2, out_dir=str(out), **FAST)
    run(rc)
    with open(out / "series.csv") as fp:
        rows = list(csv.DictReader(fp))
    assert list(rows[0].keys()) == runner.SERIES_HEADER.split(",")
    assert rows[0]["residual_RE"] == ""
    for row in rows:
        for key, val in row.items():
            if key == "residual_RE" and val == "":
                continue
            assert math.isfinite(float(val)), (key, val)
    # output_every=2 on 10 steps: step column is 0,2,4,6,8,10
    assert [int(r["step"]) for r in rows] == [0, 2, 4, 6, 8, 10]


def test_nonfinite_detection():
    rc = RunConfig(scheme="uv", ic="constant:2:1", **FAST)
    mesh = build_rect_mesh(rc.nx, rc.ny, rc.lx, rc.ly)
    from chemorepfem.runner import _record
    from chemorepfem.schemes import Workspace

    cfg = rc.scheme_config()
    ops = Workspace(mesh, cfg)
    bad = SchemeState(
        np.full(mesh.n_nodes, np.nan), np.ones(mesh.n_nodes), None, 1, rc.dt
    )
    with pytest.raises(NonFiniteError):
        _record(mesh, ops, cfg, bad, None, 1, 1)


def test_picard_failure_recorded(tmp_path):
    out = tmp_path / "fail"
    rc = RunConfig(
        scheme="uv", ic="gauss", out_dir=str(out), dt=1e-3, steps=5, nx=4, ny=4,
        picard_tol=1e-14, picard_max=1, linear_tol=1e-12,
    )
    result = run(rc)
    assert not result.ok and result.status == "picard-failure"
    assert (out / "FAILED").exists()
    assert (out / "series.csv").exists()  # completed steps still serialized


def test_solver_failure_is_a_recorded_run_failure(tmp_path, capsys):
    # a residual contract no Krylov solve can meet: CG fails in step 1
    out = tmp_path / "solver"
    code = main(
        [
            "run", "--scheme", "uveps", "--eps", "1e-3", "--linear-tol", "1e-30",
            "--steps", "2", "--nx", "10", "--ny", "10", "--out", str(out),
        ]
    )
    assert code == 2
    assert "solver-failure" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("solver-failure: CG did not converge")
    with open(out / "series.csv") as fp:
        rows = list(csv.DictReader(fp))
    assert [r["step"] for r in rows] == ["0"]  # the initial row is still written
    manifest = sweep(
        RunConfig(eps=1e-3, linear_tol=1e-30, steps=2, nx=10, ny=10),
        ["uveps"], [1.5], [1e-3], str(tmp_path / "sw"),
    )
    with open(manifest) as fp:
        assert [r["status"] for r in csv.DictReader(fp)] == ["solver-failure"]


def test_sweep_manifest(tmp_path):
    base = RunConfig(ic="constant:2:1", **FAST)
    manifest = sweep(
        base, ["uv", "uveps"], [1.5], [1e-3, 1e-5], str(tmp_path / "sw"), jobs=1
    )
    with open(manifest) as fp:
        rows = list(csv.DictReader(fp))
    # uv collapses the eps axis, uveps keeps both points
    names = sorted(r["run"] for r in rows)
    assert names == ["uv_p1.5_epsnone", "uveps_p1.5_eps0.001", "uveps_p1.5_eps1e-05"]
    for r in rows:
        assert r["status"] == "ok"
        assert os.path.exists(os.path.join(r["dir"], "series.csv"))


def test_single_point_sweep_equals_run(tmp_path):
    base = RunConfig(scheme="uv", ic="constant:2:1", **FAST)
    manifest = sweep(base, ["uv"], [1.5], [None], str(tmp_path / "sw1"), jobs=1)
    with open(manifest) as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 1
    swept = open(os.path.join(rows[0]["dir"], "series.csv"), "rb").read()
    rc = RunConfig(scheme="uv", ic="constant:2:1", out_dir=str(tmp_path / "solo"), **FAST)
    run(rc)
    solo = (tmp_path / "solo" / "series.csv").read_bytes()
    assert swept == solo


def test_vtk_dump_structure(tmp_path):
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    st = SchemeState(
        np.full(4, 2.0), np.arange(4.0), np.zeros((4, 2)), 0, 0.0
    )
    path = dump_field(mesh, st, tmp_path / "f.vtk")
    lines = open(path).read().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "POINTS 4 double" in lines
    assert "CELLS 2 8" in lines
    idx = lines.index("CELL_TYPES 2")
    assert lines[idx + 1] == "5" and lines[idx + 2] == "5"
    assert "POINT_DATA 4" in lines
    assert "SCALARS u double 1" in lines and "VECTORS sigma double" in lines
    # constant field round-trips as the constant
    uidx = lines.index("SCALARS u double 1") + 2
    assert [float(x) for x in lines[uidx : uidx + 4]] == [2.0] * 4
    # node count round-trip
    pt = lines.index("POINTS 4 double")
    assert len(lines[pt + 1].split()) == 3


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(
        [
            "run", "--scheme", "uv", "--ic", "constant:2:1", "--dt", "1e-3",
            "--steps", "5", "--nx", "4", "--ny", "4", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "series.csv").exists()
    assert main(["run", "--scheme", "uv", "--steps", "0"]) == 3
    assert main(["run", "--scheme", "uveps"]) == 3  # eps missing
    # Picard failure -> exit 2
    code = main(
        [
            "run", "--scheme", "uv", "--ic", "gauss", "--dt", "1e-3", "--steps", "3",
            "--nx", "4", "--ny", "4", "--picard-max", "1", "--picard-tol", "1e-14",
            "--out", str(tmp_path / "fail"),
        ]
    )
    assert code == 2


def test_cli_dump_and_sweep(tmp_path):
    vtk = tmp_path / "f.vtk"
    code = main(
        [
            "dump", "--scheme", "us0", "--ic", "cosine", "--dt", "1e-3", "--steps", "2",
            "--nx", "4", "--ny", "4", "--vtk-out", str(vtk), "--fields", "u,v",
        ]
    )
    assert code == 0 and vtk.exists()
    text = vtk.read_text()
    assert "SCALARS u double 1" in text and "VECTORS" not in text

    code = main(
        [
            "sweep", "--ic", "constant:2:1", "--dt", "1e-3", "--steps", "3", "--nx", "4",
            "--ny", "4", "--schemes", "uv,us0", "--sweep-out", str(tmp_path / "sw"),
        ]
    )
    assert code == 0
    assert (tmp_path / "sw" / "manifest.csv").exists()


def test_us0_cosine_residual_column_nonpositive(tmp_path):
    # before the late-time balance tightens, every recorded residual of the
    # sigma schemes is dissipative; the column parses straight off the CSV
    out = tmp_path / "us0cos"
    rc = RunConfig(
        scheme="us0", ic="cosine", p=1.4, dt=1e-4, steps=50, nx=8, ny=8,
        picard_tol=1e-8, linear_tol=1e-12, out_dir=str(out),
    )
    run(rc)
    with open(out / "series.csv") as fp:
        rows = list(csv.DictReader(fp))
    res = [float(r["residual_RE"]) for r in rows if r["residual_RE"] != ""]
    assert res and max(res) <= 0.0


def test_cli_verify_fast_passes():
    assert main(["verify", "--level", "fast"]) == 0


def test_cli_verify_fast_mutation_detection(monkeypatch):
    # a sign flip in the chain-rule operator must trip the identity check
    from chemorepfem import lambda_ops, verification

    orig = lambda_ops.lambda2

    def flipped(pot, mesh, u):
        return -orig(pot, mesh, u)

    monkeypatch.setattr(lambda_ops, "lambda2", flipped)
    res = verification.check_element_identities(n_fields=5)
    assert not res.passed
