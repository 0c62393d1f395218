"""Compiled loop budgets vs the ``settrace`` line budget, mutant by mutant.

The sandbox bounds each guarded call with a countdown compiled into the
code's loops; the ``sys.settrace`` line counter it replaced survives as
the fallback for code compiled without the countdown.  Both must reach
the same verdict on every mutant of the paper's batteries: identical
(``killed``, ``reason``, ``killing_case``), and every step-timeout kill a
timeout on the same case under both.  Because the inserted countdown
fires no line events of its own, the fallback guard on the instrumented
code counts exactly the line events the pre-budget sandbox counted, so
this comparison is also the old-vs-new sandbox diff.

Under pytest the suites are truncated (Table 2: the first 90 cases, which
hold the killing case of every step-timeout kill of the full run;
Table 3: the first 30).  Run the module directly for the full batteries::

    PYTHONPATH=src python tests/mutation/test_budget_differential.py
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

import repro.mutation.analysis as analysis_module
from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.experiments.config import (
    TABLE2_METHODS,
    TABLE3_METHODS,
    incremental_plan,
    sortable_oracle,
    sortable_suite,
    subclass_over_mutant_base,
)
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.generate import generate_mutants
from repro.mutation.sandbox import DEFAULT_STEP_BUDGET, StepBudgetGuard

SEED = 20010701
TABLE2_CASES = 90
TABLE3_CASES = 30

#: (killed, reason, killing_case, cut by the step budget)
Verdict = Tuple[bool, str, str, bool]


class TracedGuard(StepBudgetGuard):
    """The ``settrace`` fallback, forced: the guard is never told the class."""

    def __init__(self, budget: int = DEFAULT_STEP_BUDGET,
                 component_class: Optional[type] = None):
        super().__init__(budget)


@contextlib.contextmanager
def traced_sandbox() -> Iterator[None]:
    original = analysis_module.StepBudgetGuard
    analysis_module.StepBudgetGuard = TracedGuard
    try:
        yield
    finally:
        analysis_module.StepBudgetGuard = original


def battery(table: str, max_cases: Optional[int]):
    """(original class, suite, oracle, builder, mutants) of one battery."""
    if table == "table2":
        suite = sortable_suite(SEED)
        mutants, _ = generate_mutants(
            CSortableObList, TABLE2_METHODS, type_model=OBLIST_TYPE_MODEL
        )
        builder = None
    else:
        suite = incremental_plan(SEED).executed_suite
        mutants, _ = generate_mutants(
            CObList, TABLE3_METHODS, ident_prefix="B",
            type_model=OBLIST_TYPE_MODEL,
        )
        builder = subclass_over_mutant_base()
    if max_cases is not None:
        suite = replace(suite, cases=suite.cases[:max_cases])
    return CSortableObList, suite, sortable_oracle(), builder, mutants


def verdicts(table: str, max_cases: Optional[int],
             traced: bool) -> Dict[str, Verdict]:
    original, suite, oracle, builder, mutants = battery(table, max_cases)
    analysis = MutationAnalysis(original, suite, oracle=oracle,
                                class_builder=builder, static_triage=False)
    with traced_sandbox() if traced else contextlib.nullcontext():
        run = analysis.analyze(mutants)
    return {
        outcome.mutant.ident: (outcome.killed, outcome.reason.value,
                               outcome.killing_case,
                               outcome.detail.startswith("step budget of"))
        for outcome in run.outcomes
    }


Difference = Tuple[str, Verdict, Verdict]  # (ident, settrace, compiled)


def differences(table: str, max_cases: Optional[int]
                ) -> Tuple[Dict[str, Verdict], List[Difference]]:
    compiled = verdicts(table, max_cases, traced=False)
    traced = verdicts(table, max_cases, traced=True)
    assert compiled.keys() == traced.keys()
    return compiled, [(ident, traced[ident], compiled[ident])
                      for ident in compiled
                      if compiled[ident] != traced[ident]]


@pytest.mark.parametrize("table,max_cases,timeouts", [
    ("table2", TABLE2_CASES, 39),
    ("table3", TABLE3_CASES, 1),
])
def test_compiled_budget_matches_the_line_budget(table, max_cases, timeouts):
    compiled, diff = differences(table, max_cases)
    assert diff == []
    # The runaway mutants the full run cuts are all inside the truncation.
    assert sum(verdict[3] for verdict in compiled.values()) == timeouts


def test_traced_guard_really_traces():
    guard = TracedGuard(1_000, CSortableObList)
    assert not guard.compiled


@pytest.mark.parametrize("table", ["table2", "table3"])
def test_every_mutant_takes_the_compiled_path(table):
    # Otherwise the comparison above would pit the fallback against itself.
    _, _, _, builder, mutants = battery(table, 1)
    fallback = [
        mutant.ident for mutant in mutants
        if not StepBudgetGuard(
            1_000, builder(mutant) if builder else mutant.build_class()
        ).compiled
    ]
    assert fallback == []


def main() -> int:
    status = 0
    for table in ("table2", "table3"):
        compiled, diff = differences(table, None)
        cut = sum(verdict[3] for verdict in compiled.values())
        print(f"{table}: {len(compiled)} mutants, {cut} step-timeout kills, "
              f"{len(diff)} differ")
        for ident, old, new in diff:
            print(f"  {ident}: settrace {old} -> compiled {new}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
