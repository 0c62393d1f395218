"""The engine's hooks compose with outside profilers and tracers.

The coverage recorder and the sandbox's ``settrace`` fallback both install
interpreter hooks.  Under ``cProfile`` (a C-level profile hook that is not
callable from Python) and under a Python-level trace or profile hook, they
must leave the outer tool working and restore it afterwards, and the
analysis must reach the same results as a plain run.
"""

from __future__ import annotations

import cProfile
import sys
from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.core.errors import SandboxTimeout
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.coverage import record_coverage
from repro.mutation.generate import generate_mutants
from repro.mutation.sandbox import StepBudgetGuard

SEED = 20010701


def small_suite():
    suite = DriverGenerator(CSortableObList.__tspec__, seed=SEED).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "Sort1") for step in case.steps)
    )[:20]
    return replace(suite, cases=relevant)


@pytest.fixture(scope="module")
def mutants():
    pool, _ = generate_mutants(
        CSortableObList, ["FindMax", "Sort1"], type_model=OBLIST_TYPE_MODEL
    )
    return pool[::12]


def analyze(mutants):
    return MutationAnalysis(
        CSortableObList, small_suite(),
        oracle=experiment_oracle(CSortableObList.__tspec__),
    ).analyze(mutants)


def finite_work(rounds):
    total = 0
    for _ in range(rounds):
        total += 1
    return total


def test_analysis_under_cprofile_matches_a_plain_run(mutants):
    plain = analyze(mutants)
    profiler = cProfile.Profile()
    profiled = profiler.runcall(analyze, mutants)
    assert profiled.same_results(plain)
    assert any(outcome.killed for outcome in plain.outcomes)
    assert sys.getprofile() is None
    profiled_functions = {getattr(entry.code, "co_name", entry.code)
                          for entry in profiler.getstats()}
    # The profiler kept seeing the run after the coverage pass.
    assert "_analyze_one" in profiled_functions


def test_python_profile_hook_is_chained_and_restored():
    seen = []

    def outer(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)

    plain_reference, plain_matrix = record_coverage(
        CSortableObList, small_suite()
    )
    sys.setprofile(outer)
    try:
        reference, matrix = record_coverage(CSortableObList, small_suite())
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(None)
    assert matrix == plain_matrix
    assert reference == plain_reference
    assert "FindMax" in seen


def test_fallback_guard_chains_an_outer_trace_hook():
    seen = []

    def outer(frame, event, arg):
        if frame.f_code is finite_work.__code__:
            seen.append(event)
        return outer

    guard = StepBudgetGuard(budget=10_000)
    assert not guard.compiled
    sys.settrace(outer)
    try:
        assert guard(finite_work, 3) == 3
        assert sys.gettrace() is outer
    finally:
        sys.settrace(None)
    assert seen[0] == "call"
    assert seen.count("line") > 3
    assert seen[-1] == "return"


def test_fallback_guard_still_cuts_under_an_outer_trace_hook():
    def spin():
        while True:
            pass

    def outer(frame, event, arg):
        return outer

    guard = StepBudgetGuard(budget=1_000)
    sys.settrace(outer)
    try:
        with pytest.raises(SandboxTimeout):
            guard(spin)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(None)
    assert guard.timeouts == 1
