"""Smoke test of tools/rates.py on one tiny leg."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("rates", ROOT / "tools" / "rates.py")
rates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rates)


def test_a_tiny_leg_reports_its_rate_and_picard_iterates(capsys):
    start = time.perf_counter()
    rate, iters = rates.leg_rate(ROOT, "useps", 6, steps=2)
    assert time.perf_counter() - start < 1.0
    assert rate > 0 and iters >= 1
    assert rates.main([]) == 2
    assert capsys.readouterr().err.strip().startswith("python tools/rates.py TREE [TREE]")
