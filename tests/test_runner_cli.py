"""Run/sweep serialization, determinism, CLI contract, VTK output."""

import csv
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemorepfem import build_rect_mesh, runner
from chemorepfem.cli import main
from chemorepfem.runner import (
    ConfigError,
    NonFiniteError,
    RunConfig,
    echo_config,
    execute_run,
    parse_config_file,
    resolve_config,
    run,
    sweep,
)
from chemorepfem.schemes import SCHEMES, SchemeConfig, SchemeState
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


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# sides whose cells, at up to 1e9 of them per side, have finite normal areas
_SIDE = st.floats(min_value=1e-100, max_value=1e100)
# time steps over which the masses of those cells, at most about 1e200, stay finite
_DT = st.floats(min_value=1e-100, allow_infinity=False)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_COUNT = st.integers(1, 10**9)
# a value survives 'key = value' parsing: no comment sign, no outer blanks
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#"))
_PATH = _TEXT.filter(lambda s: s == s.strip() != "" and s.lower() != "none")


@st.composite
def valid_configs(draw):
    scheme = draw(st.sampled_from(SCHEMES))
    eps = _UNIT if SchemeConfig.takes_eps(scheme) else st.none() | st.floats(allow_nan=False)
    nonneg = st.floats(min_value=0.0, allow_infinity=False)
    constant = st.builds("constant:{!r}:{!r}".format, nonneg, nonneg)
    return RunConfig(
        scheme=scheme,
        p=draw(st.floats(min_value=1.0, max_value=2.0, exclude_min=True, exclude_max=True)),
        eps=draw(eps),
        dt=draw(_DT),
        steps=draw(_COUNT),
        nx=draw(_COUNT),
        ny=draw(_COUNT),
        lx=draw(_SIDE),
        ly=draw(_SIDE),
        ic=draw(st.sampled_from(["gauss", "cosine"]) | constant),
        picard_tol=draw(_POSITIVE),
        picard_max=draw(_COUNT),
        linear_tol=draw(_POSITIVE),
        output_every=draw(_COUNT),
        out_dir=draw(_PATH),
    )


@settings(max_examples=200, deadline=None)
@given(rc=valid_configs())
def test_config_echo_round_trips(tmp_path_factory, rc):
    path = tmp_path_factory.mktemp("echo") / "config.echo"
    echo_config(path, rc)
    assert resolve_config(parse_config_file(path)) == rc


_NUMERIC_KEYS = [f.name for f in fields(RunConfig) if not isinstance(f.default, str)]


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return text.strip().lower() != "none"
    return False


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from([f.name for f in fields(RunConfig) if f.name != "eps"]),
    numeric_key=st.sampled_from(_NUMERIC_KEYS),
    bad_number=_TEXT.filter(_not_a_number),
    unknown_key=_TEXT.filter(lambda s: s not in {f.name for f in fields(RunConfig)}),
)
def test_bad_config_values_raise_config_error(key, numeric_key, bad_number, unknown_key):
    with pytest.raises(ConfigError):
        resolve_config({key: "none"})
    with pytest.raises(ConfigError):
        resolve_config({numeric_key: bad_number})
    with pytest.raises(ConfigError):
        resolve_config({unknown_key: "1"})


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
        _record(ops, bad)


def test_nonfinite_state_between_output_rows(monkeypatch):
    # a NaN on a step that writes no row still ends the run at that step
    from chemorepfem.schemes import Workspace

    step = Workspace.step

    def poisoned(self, state):
        new, report = step(self, state)
        if new.step == 2:
            new.u = np.full_like(new.u, np.nan)
        return new, report

    monkeypatch.setattr(Workspace, "step", poisoned)
    rc = RunConfig(scheme="uv", ic="gauss", output_every=5, **FAST)
    result = execute_run(rc)
    assert result.status == "non-finite"
    assert "at step 2" in result.detail
    assert [r.step for r in result.records] == [0]
    assert result.last_step == 1  # step 1 completed without writing a row


def test_failure_names_the_last_completed_step_between_rows(tmp_path, capsys, monkeypatch):
    # rows at steps 0 and 2 only: a Picard failure in step 4 follows three
    # completed steps, and FAILED, the run summary and the manifest say so
    from chemorepfem.schemes import PicardError, Workspace

    step = Workspace.step

    def failing(self, state):
        new, report = step(self, state)
        if new.step == 4:
            raise PicardError(self.cfg.scheme, new.step, report, new)
        return new, report

    monkeypatch.setattr(Workspace, "step", failing)
    out = tmp_path / "run"
    args = ["--scheme", "uv", "--nx", "4", "--ny", "4", "--dt", "1e-3", "--steps", "6"]
    assert main(["run", *args, "--output-every", "2", "--out", str(out)]) == 2
    summary = capsys.readouterr().out
    # the mass printed is the last row's, and the line names its step
    with open(out / "series.csv") as fp:
        rows = list(csv.DictReader(fp))
    assert rows[-1]["step"] == "2"
    assert f"steps completed: 3/6  mass at step 2: {float(rows[-1]['mass'])!r}" in summary
    assert (out / "FAILED").read_text().endswith("last completed step: 3\n")
    base = RunConfig(dt=1e-3, steps=6, nx=4, ny=4, output_every=2)
    manifest = sweep(base, ["uv"], [1.5], [None], str(tmp_path / "sw"))
    with open(manifest) as fp:
        assert [(r["status"], r["last_step"]) for r in csv.DictReader(fp)] == [
            ("picard-failure", "3")
        ]


@pytest.mark.parametrize(
    "keys,status",
    [
        # the step-0 energy overflows to inf
        (dict(ic="constant:1e250:1"), "non-finite"),
        # the H1 projection of the initial v fails its residual contract
        (dict(lx=1e-6, ly=1e-6), "solver-failure"),
    ],
    ids=["non-finite", "solver-failure"],
)
def test_step0_failure_leaves_header_only_series(tmp_path, capsys, keys, status):
    out = tmp_path / "failed"
    args = ["--steps", "2", "--nx", "3", "--ny", "3"]
    args += [a for key, val in keys.items() for a in (f"--{key}", str(val))]
    assert main(["run", *args, "--out", str(out)]) == 2
    assert status in capsys.readouterr().err
    assert (out / "config.echo").exists()
    assert (out / "series.csv").read_text() == runner.SERIES_HEADER + "\n"
    failed = (out / "FAILED").read_text()
    assert failed.startswith(status)
    assert failed.endswith("last completed step: none\n")
    manifest = sweep(
        RunConfig(steps=2, nx=3, ny=3, **keys), ["uv"], [1.5], [None], str(tmp_path / "sw")
    )
    with open(manifest) as fp:
        rows = list(csv.DictReader(fp))
    assert [(r["status"], r["last_step"]) for r in rows] == [(status, "none")]


@pytest.mark.parametrize(
    "command,flag,target,message",
    [
        ("run", "--out", "taken", "cannot create output directory"),
        ("sweep", "--sweep-out", "taken", "cannot create output directory"),
        ("dump", "--vtk-out", "taken/f.vtk", "cannot create output directory"),
        ("dump", "--vtk-out", "adir", "cannot write"),
    ],
    ids=["run---out", "sweep---sweep-out", "dump-under-a-file", "dump-a-directory"],
)
def test_output_path_that_is_a_file_is_a_bad_config(
    tmp_path, capsys, monkeypatch, command, flag, target, message
):
    # an output path that is, or lies under, a regular file, or a VTK file
    # path that is a directory, exits 3 before any step
    def no_work(rc):
        raise AssertionError(f"{command} started a run before checking its output path")

    monkeypatch.setattr(runner, "start", no_work)
    path = tmp_path / "taken"
    path.write_text("kept\n")
    (tmp_path / "adir").mkdir()
    args = [command, "--steps", "1", "--nx", "3", "--ny", "3", flag, str(tmp_path / target)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert err.count("\n") == 1
    assert path.read_text() == "kept\n"
    assert not any((tmp_path / "adir").iterdir())


def _no_step(rc):
    raise AssertionError("a run started before its inputs and outputs were checked")


@pytest.mark.parametrize("command", ["run", "sweep", "dump"])
@pytest.mark.parametrize("config", ["missing.cfg", "adir", "latin1.cfg"])
def test_unreadable_config_file_is_a_bad_config(tmp_path, capsys, monkeypatch, command, config):
    # a missing file, a directory or bytes that are not UTF-8 exit 3, not 1
    monkeypatch.setattr(runner, "start", _no_step)
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes("ic = gauss  # caf\xe9\n".encode("latin-1"))
    path = tmp_path / config
    out = tmp_path / "out"
    target = {"run": "--out", "sweep": "--sweep-out", "dump": "--vtk-out"}[command]
    assert main([command, "--config", str(path), target, str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read {str(path)!r}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_config_files_are_utf8_under_any_locale(tmp_path):
    # under an ASCII locale, a UTF-8 config with a non-ASCII comment and the
    # echo of a non-ASCII out_dir read and write as under a UTF-8 one
    cfg, echo = tmp_path / "case.cfg", tmp_path / "config.echo"
    cfg.write_text("ic = cosine  # caf\xe9\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from chemorepfem.runner import echo_config, parse_config_file, resolve_config\n"
        "rc = resolve_config(parse_config_file(sys.argv[1]), {'out_dir': 'caf\\xe9'})\n"
        "echo_config(sys.argv[2], rc)\n"
        "assert resolve_config(parse_config_file(sys.argv[2]), {}) == rc\n"
    )
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        "PYTHONPATH": os.path.dirname(os.path.dirname(runner.__file__)),
    }
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg), str(echo)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "out_dir = caf\xe9\n" in echo.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["series.csv", "config.echo", "FAILED"])
def test_output_name_taken_by_a_directory_is_a_bad_config(tmp_path, capsys, monkeypatch, name):
    # the run wrote series.csv, or ran every step, before it found out (exit 1)
    monkeypatch.setattr(runner, "start", _no_step)
    out = tmp_path / "D"
    (out / name).mkdir(parents=True)
    assert main(["run", "--steps", "2", "--nx", "4", "--ny", "4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write ") and name in err
    assert [p.name for p in out.iterdir()] == [name]


def test_eps_dropped_for_schemes_without_eps(tmp_path):
    assert RunConfig(scheme="us0", eps=0.5).eps is None
    assert RunConfig(scheme="useps", eps=0.5).eps == 0.5
    out = tmp_path / "uv"
    code = main(
        [
            "run", "--scheme", "uv", "--eps", "nan", "--steps", "1", "--nx", "3", "--ny", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "eps = none\n" in (out / "config.echo").read_text()


@pytest.mark.parametrize("scheme,eps", [("uv", None), ("uveps", 1e-3), ("useps", 1e-3), ("us0", None)])
def test_run_records_match_verification_legs(scheme, eps):
    # verification steps its legs through the run path: same numbers, bit for bit
    from chemorepfem import verification

    rc = RunConfig(
        scheme=scheme, eps=eps, p=1.4, dt=1e-4, steps=6, nx=6, ny=6, ic="cosine",
        picard_tol=1e-5,
    )
    records = execute_run(rc).records
    _, _, values, failure = verification._leg(rc, verification._mass_and_law)
    ee, re, failure_c = verification._cosine_leg(rc)
    assert failure == failure_c == ""
    assert [r.mass for r in records[1:]] == [mass for mass, _ in values]
    assert [r.energy_exact for r in records] == ee
    assert [r.residual_RE for r in records[1:]] == re


def test_leg_keeps_the_values_of_steps_before_a_picard_failure(monkeypatch):
    # a linear-solver failure ends a leg the same way
    from chemorepfem import verification
    from chemorepfem.linsolve import SolverError
    from chemorepfem.schemes import PicardError, Workspace

    step = Workspace.step
    errors = [
        (lambda self, new, report: PicardError(self.cfg.scheme, new.step, report, new),
         "did not converge at step 3"),
        (lambda *_: SolverError("CG did not converge", 1.0, 5), "after 5 iterations"),
    ]
    for error, text in errors:

        def failing(self, state):
            new, report = step(self, state)
            if new.step == 3:
                raise error(self, new, report)
            return new, report

        monkeypatch.setattr(Workspace, "step", failing)
        rc = RunConfig(scheme="uv", ic="gauss", **{**FAST, "steps": 5})
        _, _, values, failure = verification._leg(rc, verification._mass_and_law)
        assert len(values) == 2 and text in failure


def test_dense_oracle_reports_a_picard_failure(monkeypatch):
    # a leg that fails at its only step is a failed check with the error text
    from dataclasses import replace

    from chemorepfem import verification

    monkeypatch.setattr(verification, "_BASE", replace(verification._BASE, picard_max=1))
    result = verification.check_dense_oracle()
    assert not result.passed and result.detail.startswith("Picard iteration")


def test_gauss_traces_step_each_leg_once(monkeypatch):
    # criteria 4 and 5 read 7 legs stepped once each, and read from them
    # what separate mass and energy-law legs give
    from dataclasses import replace

    from chemorepfem import diagnostics, verification

    stepped = []
    leg = verification._leg

    def spy(rc, quantity):
        stepped.append(rc)
        return leg(rc, quantity)

    monkeypatch.setattr(verification, "_leg", spy)
    base = replace(verification._SMALL, steps=5)
    traces = verification.gauss_traces(base)
    assert len(stepped) == len(set(stepped)) == len(traces) == 7
    assert {rc.nx for rc in stepped} == {8}

    def mass(ops, prev, state):
        return diagnostics.mass(ops.mesh, state.u)

    def law(ops, prev, state):
        lhs = diagnostics.energy_law_lhs(ops.mesh, ops.pot, ops.cfg, prev, state)
        return lhs / abs(diagnostics.energy_modified(ops.mesh, ops.pot, ops.cfg, prev))

    details = []
    for scheme, eps in verification._GAUSS_RUNS:
        ops, state0, masses, _ = leg(replace(base, scheme=scheme, eps=eps), mass)
        mass0 = diagnostics.mass(ops.mesh, state0.u)
        rel = max(abs(m - mass0) for m in masses) / abs(mass0)
        assert rel <= 1e-10
        details.append(f"{scheme}: max rel drift {rel:.2e}")
    res = verification.check_mass_conservation(traces)
    assert (res.passed, res.detail) == (True, "; ".join(details) + " (tol 1e-10)")
    for scheme, eps, dt in verification.energy_law_legs():
        _, _, laws, _ = leg(replace(base, scheme=scheme, eps=eps, dt=dt), law)
        worst = max(laws)
        detail = f"{scheme} dt={dt:g}: worst rel LHS {worst:+.2e} (tol 1e-8)"
        assert verification.energy_law_leg_result(traces, scheme, eps, dt) == (True, detail)


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


def test_a_run_that_crashes_leaves_the_earlier_outputs_with_their_failed(tmp_path, monkeypatch):
    # FAILED changes with series.csv and config.echo, so a crash mid-run
    # (which run does not catch) cannot leave a failed run's series unmarked
    out = tmp_path / "D"
    failing = RunConfig(
        out_dir=str(out), steps=2, nx=4, ny=4, dt=1e-2, picard_tol=1e-12, picard_max=1
    )
    assert run(failing).status == "picard-failure"
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def crash(rc):
        raise RuntimeError("crash")

    monkeypatch.setattr(runner, "execute_run", crash)
    with pytest.raises(RuntimeError, match="crash"):
        run(replace(failing, picard_max=50))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_rerun_removes_a_stale_failed(tmp_path, capsys):
    # FAILED marks the last run into a directory, not some earlier one
    out = tmp_path / "D"
    args = ["run", "--steps", "2", "--nx", "4", "--ny", "4", "--out", str(out)]
    assert main([*args, "--dt", "1e-2", "--picard-tol", "1e-12", "--picard-max", "1"]) == 2
    assert (out / "FAILED").read_text().startswith("picard-failure")
    assert main(args) == 0
    assert not (out / "FAILED").exists()
    assert len((out / "series.csv").read_text().splitlines()) == 1 + 3
    base = RunConfig(steps=2, nx=4, ny=4)
    failing = replace(base, dt=1e-2, picard_tol=1e-12, picard_max=1)
    for rc, status in ((failing, "picard-failure"), (base, "ok")):
        manifest = sweep(rc, ["uv"], [1.5], [None], str(tmp_path / "sw"))
        with open(manifest) as fp:
            assert [r["status"] for r in csv.DictReader(fp)] == [status]
    assert not (tmp_path / "sw" / "uv_p1.5_epsnone" / "FAILED").exists()


def test_a_factor_superlu_finds_singular_is_a_solver_failure(tmp_path, capsys):
    # on cells of 0.25 x 2.5e-13 the u-matrix D/k + S of uveps rounds to a
    # singular one; SuperLU's RuntimeError escaped as a traceback (exit 1)
    out = tmp_path / "thin"
    argv = ["run", "--scheme", "uveps", "--eps", "1e-3", "--lx", "1", "--ly", "1e-12"]
    argv += ["--nx", "4", "--ny", "4", "--dt", "1", "--ic", "constant:1e3:0", "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "solver-failure" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("solver-failure: SuperLU failed")
    assert len((out / "series.csv").read_text().splitlines()) == 1 + 1


def test_solver_failure_is_a_recorded_run_failure(tmp_path, capsys):
    # a residual contract no Krylov solve can meet: CG fails in step 1; the
    # set-up solves to it too, but v0 = 0 gives its H1 projection a zero load
    out = tmp_path / "solver"
    code = main(
        [
            "run", "--scheme", "uveps", "--eps", "1e-3", "--linear-tol", "1e-30",
            "--ic", "constant:2:0", "--steps", "2", "--nx", "10", "--ny", "10",
            "--out", str(out),
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


def test_sweep_refuses_distinct_runs_under_one_name(tmp_path, monkeypatch):
    # run names keep 6 significant digits of p and eps: two configs that
    # differ beyond them would share a directory, so the sweep is refused
    # before anything runs or is written; identical configs still merge
    def no_work(rc):
        raise AssertionError("the sweep started a run before checking its names")

    monkeypatch.setattr(runner, "start", no_work)
    out = tmp_path / "sw"
    base = RunConfig(ic="constant:2:1", **FAST)
    for ps, epss in (([1.1, 1.1000001], [1e-3]), ([1.5], [1e-3, 1.0000001e-3])):
        with pytest.raises(ConfigError, match="share the run name"):
            sweep(base, ["uveps"], ps, epss, str(out))
        assert not out.exists()
    monkeypatch.undo()
    manifest = sweep(base, ["uv"], [1.5, 1.5], [1e-3, 1.0000001e-3], str(out))
    with open(manifest) as fp:
        assert [r["run"] for r in csv.DictReader(fp)] == ["uv_p1.5_epsnone"]


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


@pytest.mark.parametrize(
    "arg",
    [
        "--linear-tol=0",
        "--linear-tol=inf",
        "--picard-tol=inf",
        "--dt=inf",
        "--lx=inf",
        "--ly=inf",
        "--ic=constant:inf:1",
        "--config=dt-none.cfg",
    ],
)
def test_cli_rejects_bad_settings(tmp_path, capsys, monkeypatch, arg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dt-none.cfg").write_text("dt = none\n")
    out = tmp_path / "out"
    code = main(["run", "--steps", "2", "--nx", "4", "--ny", "4", arg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("side,n", [("1e-170", "2"), ("1e200", "20")])
def test_cli_rejects_sides_whose_cells_under_or_overflow(tmp_path, side, n):
    # areas that underflow to 0 made SuperLU raise, and infinite ones hung it;
    # a hang in C code cannot be interrupted here, so the run gets a process
    out = tmp_path / "out"
    argv = ["run", "--lx", side, "--ly", side, "--nx", n, "--ny", n, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(runner.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "chemorepfem.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("configuration error: ") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--dt", "1e-320"],
        ["--lx", "1e150", "--ly", "1e150", "--nx", "2", "--ny", "2", "--dt", "1e-300"],
        # M / dt is finite here, but 1 / dt, by which scipy scales M, is not
        ["--dt", "1e-309"],
        # finite over one cell; a node in six elements has thrice its mass
        ["--scheme", "useps", "--eps", "1e-3", "--lx", "4e150", "--ly", "4e150"]
        + ["--nx", "4", "--ny", "4", "--dt", "3e-9"],
    ],
)
def test_cli_rejects_time_steps_whose_mass_over_dt_overflows(tmp_path, capsys, args):
    # each ran into a solver-failure with a NaN residual (exit 2)
    out = tmp_path / "out"
    code = main(["run", "--steps", "2", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: ") and "overflows" in err
    assert not out.exists()


def test_set_up_solves_to_the_run_linear_tol(tmp_path, capsys):
    # on [0,2] x [0,0.2] the gauss bump lies mostly outside the strip, and its
    # H1 projection cannot meet a 1e-12 contract; at the run's own 1e-3 it can
    for scheme in ("uv", "useps"):
        out = tmp_path / scheme
        argv = ["run", "--scheme", scheme, "--eps", "1e-3", "--ly", "0.2"]
        argv += ["--linear-tol", "1e-3", "--steps", "3", "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        assert not (out / "FAILED").exists()


@pytest.mark.parametrize("command", ["run", "dump"])
@pytest.mark.parametrize("arg", ["--nx=abc", "--scheme=bogus", "--steps=abc", "--p=one"])
def test_cli_flags_are_typed_by_run_config(tmp_path, capsys, command, arg):
    # a flag's value is converted and checked as a config file's is: exit 3
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "run" else ["--vtk-out", str(out / "f.vtk")]
    code = main([command, "--nx", "4", "--ny", "4", arg, *target])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "arg",
    ["--ps=abc", "--ps=none", "--epss=abc", "--schemes=bogus", "--ps=3", "--epss=2"]
    + ["--ps=,", "--schemes=,", "--jobs=0", "--jobs=-2", "--ps=1.1,1.1000001"],
)
def test_cli_sweep_axes_are_typed_by_run_config(tmp_path, capsys, arg):
    # an axis value is converted and checked as its config key's is, and an
    # empty axis, a job count below 1 or two axis values that name one run
    # with different configs are refused the same way: exit 3
    out = tmp_path / "sw"
    args = ["--nx", "4", "--ny", "4", "--schemes", "uveps", "--eps", "1e-3", arg]
    code = main(["sweep", *args, "--sweep-out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["run", "--bogus", "1"],
        ["run", "--nx"],
        ["verify", "--level", "bogus"],
        ["sweep", "--jobs", "abc"],
    ],
)
def test_cli_usage_errors_exit_3(capsys, argv):
    # argparse's own exit code, 2, is the non-convergence code
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: chemorepfem") and "error: " in err


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: chemorepfem")


def test_cli_dump_rejects_unknown_field_before_stepping(tmp_path, capsys, monkeypatch):
    def no_work(rc):
        raise AssertionError("dump started a run before checking its fields")

    monkeypatch.setattr(runner, "start", no_work)
    vtk = tmp_path / "f.vtk"
    args = ["--steps", "2", "--nx", "4", "--ny", "4", "--fields", "u,bogus"]
    code = main(["dump", *args, "--vtk-out", str(vtk)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: ") and "bogus" in err
    assert not vtk.exists()


def test_run_config_shares_scheme_config_defaults():
    scheme_defaults = {f.name: f.default for f in fields(SchemeConfig)}
    for key in ("eps", "picard_tol", "picard_max", "linear_tol"):
        assert getattr(RunConfig(), key) == scheme_defaults[key], key


def test_cli_dump_and_sweep(tmp_path, capsys):
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

    # steps = 0 writes the initial state, from a flag or from a config file,
    # and a flag overrides the file
    zero = tmp_path / "zero.cfg"
    zero.write_text("steps = 0\n")
    given = (["--steps", "0"], ["--config", str(zero)], ["--config", str(zero), "--steps", "1"])
    for i, (args, step) in enumerate(zip(given, (0, 0, 1))):
        vtk0 = tmp_path / f"f0_{i}.vtk"
        capsys.readouterr()
        code = main(["dump", *args, "--nx", "4", "--ny", "4", "--vtk-out", str(vtk0)])
        assert code == 0 and vtk0.exists()
        assert capsys.readouterr().out.strip().endswith(f"at step {step}")

    # a Picard failure in dump exits 2 and writes no file
    vtk_fail = tmp_path / "fail.vtk"
    code = main(
        [
            "dump", "--scheme", "uv", "--ic", "gauss", "--dt", "1e-3", "--steps", "2",
            "--nx", "4", "--ny", "4", "--picard-max", "1", "--picard-tol", "1e-14",
            "--vtk-out", str(vtk_fail),
        ]
    )
    assert code == 2 and not vtk_fail.exists()

    code = main(
        [
            "sweep", "--ic", "constant:2:1", "--dt", "1e-3", "--steps", "3", "--nx", "4",
            "--ny", "4", "--schemes", "uv,us0", "--sweep-out", str(tmp_path / "sw"),
        ]
    )
    assert code == 0
    assert (tmp_path / "sw" / "manifest.csv").exists()

    # one --eps value (or a config file's eps) is the eps axis, also when the
    # base scheme takes no eps
    cfgfile = tmp_path / "eps.cfg"
    cfgfile.write_text("eps = 1e-3\n")
    small = ["--ic", "constant:2:1", "--dt", "1e-3", "--steps", "2", "--nx", "3", "--ny", "3"]
    for i, given in enumerate((["--eps", "1e-3"], ["--config", str(cfgfile)])):
        out = tmp_path / f"sw_eps{i}"
        code = main(["sweep", *small, *given, "--schemes", "uv,uveps", "--sweep-out", str(out)])
        assert code == 0
        with open(out / "manifest.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert [(r["run"], r["status"]) for r in rows] == [
            ("uv_p1.5_epsnone", "ok"),
            ("uveps_p1.5_eps0.001", "ok"),
        ]

    # the eps axis takes none, as a config file's eps does
    out = tmp_path / "sw_none"
    axes = ["--schemes", "uv", "--epss", "none,1e-3"]
    code = main(["sweep", *small, *axes, "--sweep-out", str(out)])
    assert code == 0
    with open(out / "manifest.csv") as fp:
        assert [r["run"] for r in csv.DictReader(fp)] == ["uv_p1.5_epsnone"]


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


def test_cli_verify_reports_a_crash_in_shared_traces(monkeypatch, capsys):
    # a crash while making the gauss traces fails criteria 4 and 5 with the
    # exception as their detail; the other criteria still run
    from chemorepfem import diagnostics

    def crash(*args):
        raise ValueError("law crashed")

    monkeypatch.setattr(diagnostics, "energy_law_lhs", crash)
    assert main(["verify", "--level", "fast"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 2
    for line, name in zip(failed, ("4 mass conservation", "5 discrete energy laws")):
        assert name in line and line.endswith("ValueError: law crashed")
    assert sum(line.startswith("[PASS]") for line in lines) == 5


def test_cli_verify_fast_mutation_detection(monkeypatch):
    # a sign flip in the chain-rule operator must trip the identity check
    from chemorepfem import lambda_ops, verification

    orig = lambda_ops.lambda2

    def flipped(pot, mesh, u):
        return -orig(pot, mesh, u)

    monkeypatch.setattr(lambda_ops, "lambda2", flipped)
    res = verification.check_element_identities(n_fields=5)
    assert not res.passed
