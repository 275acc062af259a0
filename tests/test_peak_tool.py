"""Smoke test of tools/peak.py on one tiny leg."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("peak", ROOT / "tools" / "peak.py")
peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak)


def test_a_tiny_leg_reports_the_high_water_mark_of_every_phase(capsys):
    tiny = replace(WORKLOADS["fine-gauss"], nx=6, steps=2)
    mb = peak.leg_phases(ROOT, "useps", tiny)
    assert tuple(mb) == peak.PHASES
    # ru_maxrss only grows
    assert 0 < mb["imports"] and list(mb.values()) == sorted(mb.values())
    assert peak.main([]) == 2
    assert capsys.readouterr().err.strip().startswith("python tools/peak.py TREE [TREE]")
