"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Criterion 5 runs as six legs
(scheme x time step) and criterion 7 as per-scheme clauses.  Criteria 4
and 5 read one set of gauss traces, 6 and 7 one set of cosine traces.
Criterion 7 fails at its stated mesh and horizon, because its us0 and uv
sign clauses are not properties of the discrete schemes (the README gives
the measured onsets); every other test must pass.
"""

import time

import pytest

from chemorepfem import verification


def _report(res, budget=None):
    line = f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.name} ({res.seconds:.2f}s): {res.detail}"
    print(line)
    if budget is not None:
        assert res.seconds < budget, f"runtime {res.seconds:.2f}s exceeds budget {budget}s"
    assert res.passed, res.detail


def test_criterion_1_element_identities():
    _report(verification.check_element_identities(), budget=5.0)


def test_criterion_2_spectral_and_lipschitz_bounds():
    _report(verification.check_spectral_and_lipschitz_bounds(), budget=5.0)


def test_criterion_3_potential_suite():
    _report(verification.check_potential_suite(), budget=5.0)


@pytest.fixture(scope="module")
def gauss_traces():
    """The legs of criteria 4 and 5, each stepped once, and their time."""
    t0 = time.perf_counter()
    traces = verification.gauss_traces()
    return traces, time.perf_counter() - t0


def test_criterion_4_mass_conservation(gauss_traces):
    traces, seconds = gauss_traces
    res = verification.check_mass_conservation(traces)
    res.seconds += seconds  # the budget covers stepping all the shared legs
    _report(res, budget=60.0)


@pytest.mark.parametrize("scheme,eps,dt", verification.energy_law_legs())
def test_criterion_5_energy_laws(gauss_traces, scheme, eps, dt):
    passed, detail = verification.energy_law_leg_result(gauss_traces[0], scheme, eps, dt)
    print(f"[{'PASS' if passed else 'FAIL'}] criterion 5 leg: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def cosine_traces():
    return verification.cosine_traces()


def test_criterion_6_exact_energy_monotone(cosine_traces):
    _report(verification.check_exact_energy_monotone(cosine_traces))


def test_criterion_7_residual_signs(cosine_traces):
    _report(verification.check_residual_signs(cosine_traces))


def test_criterion_8_positivity_trend():
    _report(verification.check_positivity_trend())


def test_criterion_9_constant_state():
    _report(verification.check_constant_state())


def test_criterion_10_dense_oracle():
    _report(verification.check_dense_oracle())
