"""The run contract as a property: a configuration is refused before any
output, or its run ends in one of the four statuses with ``config.echo`` and
``series.csv`` written and ``FAILED`` written exactly when it did not end
``ok``, also in a directory that holds an earlier run's outputs."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemorepfem.runner import (
    SERIES_HEADER,
    ConfigError,
    RunConfig,
    parse_config_file,
    resolve_config,
    run,
)
from chemorepfem.schemes import SCHEMES, SchemeConfig

STATUSES = ("ok", "picard-failure", "solver-failure", "non-finite")


def _decades(lo, hi):
    """Values spread evenly over the decades 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def run_settings(draw):
    scheme = draw(st.sampled_from(SCHEMES))
    gap = _decades(-9, -0.01)  # distance of p from 1 or from 2
    return dict(
        scheme=scheme,
        p=draw(gap.map(lambda d: 1.0 + d) | gap.map(lambda d: 2.0 - d)),
        eps=draw(_decades(-12, -0.01)) if SchemeConfig.takes_eps(scheme) else None,
        dt=draw(_decades(-325, 8)),
        steps=draw(st.integers(1, 3)),
        nx=draw(st.integers(1, 6)),
        ny=draw(st.integers(1, 6)),
        lx=draw(_decades(-200, 200)),
        ly=draw(_decades(-200, 200)),
        ic=draw(st.sampled_from(["gauss", "cosine", "constant:1:1", "constant:1e3:0"])),
        picard_tol=draw(_decades(-17, 0)),
        picard_max=draw(st.integers(1, 20)),
        linear_tol=draw(_decades(-17, -1)),
        output_every=draw(st.integers(1, 3)),
    )


def _snapshot(path):
    return {p.name: p.read_bytes() for p in path.iterdir()} if path.exists() else None


# sides and time steps of the command-line cases that escaped the exit codes:
# areas that underflow to 0 or overflow, and masses over dt that overflow
EXTREMES = [
    dict(lx=1e-170, ly=1e-170, nx=2, ny=2),
    dict(lx=1e-155, ly=1e-155, nx=1, ny=1),
    dict(lx=1e200, ly=1e200, nx=20, ny=20),
    dict(dt=1e-320),
    dict(dt=1e-309),
    dict(lx=1e150, ly=1e150, nx=2, ny=2, dt=1e-300),
    dict(scheme="useps", eps=1e-3, lx=4e150, ly=4e150, nx=4, ny=4, dt=3e-9),
]


def _pinned(test):
    for keys in EXTREMES:
        test = example(keys={"steps": 2, **keys}, fresh=True)(test)
    return test


# overflow on the extreme draws is expected; the statuses report it
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@_pinned
@given(keys=run_settings(), fresh=st.booleans())
def test_run_contract(tmp_path_factory, keys, fresh):
    # one shared directory collects every earlier draw's outputs
    shared = tmp_path_factory.getbasetemp() / "run-contract-shared"
    out = tmp_path_factory.mktemp("run") / "out" if fresh else shared
    before = _snapshot(out)
    try:
        rc = RunConfig(**keys, out_dir=str(out))
    except ConfigError:
        assert _snapshot(out) == before
        return
    result = run(rc)
    assert result.status in STATUSES
    names = {p.name for p in out.iterdir()}
    assert {"config.echo", "series.csv"} <= names
    assert ("FAILED" in names) == (result.status != "ok")
    if "FAILED" in names:
        assert (out / "FAILED").read_text().startswith(f"{result.status}: ")
    # this run's files, not an earlier draw's
    assert resolve_config(parse_config_file(out / "config.echo")) == rc
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == SERIES_HEADER and len(rows) == 1 + len(result.records)
