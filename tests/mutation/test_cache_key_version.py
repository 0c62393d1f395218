"""Entries keyed under an older fingerprint recipe are never replayed.

The sandbox budget changed unit (traced line events → loop iterations), so
a verdict stored before that change may not match what the current engine
decides.  ``CACHE_KEY_VERSION`` is hashed into every outcome and scenario
address; an entry written under the previous version must miss.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.mutation.cache as cache_module
import repro.scenarios.sweep as sweep_module
from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import CACHE_KEY_VERSION, MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.scenarios import SweepRunner, registry_from_mappings

SEED = 20010701


def small_suite():
    suite = DriverGenerator(CSortableObList.__tspec__, seed=SEED).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name == "FindMax" for step in case.steps)
    )[:12]
    return replace(suite, cases=relevant)


@pytest.fixture(scope="module")
def mutants():
    pool, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return pool[:4]


def run(mutants, cache):
    return MutationAnalysis(
        CSortableObList, small_suite(),
        oracle=experiment_oracle(CSortableObList.__tspec__), cache=cache,
    ).analyze(mutants)


def test_key_version_counts_loop_iterations():
    # 4 is the first recipe whose verdicts use the loop-iteration budget.
    assert CACHE_KEY_VERSION >= 4


def test_outcome_entries_of_the_old_version_miss(mutants, tmp_path,
                                                 monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CACHE_KEY_VERSION", CACHE_KEY_VERSION - 1)
        old = run(mutants, MutationOutcomeCache(tmp_path))
    assert old.cache_stats.misses == len(mutants)

    current = run(mutants, MutationOutcomeCache(tmp_path))
    assert current.cache_stats.hits == 0
    assert current.cache_stats.misses == len(mutants)
    assert current.same_results(old)

    warm = run(mutants, MutationOutcomeCache(tmp_path))
    assert warm.cache_stats.hits == len(mutants)


def test_scenario_records_of_the_old_version_miss(tmp_path, monkeypatch):
    registry = registry_from_mappings([{
        "ident": "key-version-stack",
        "component": {"family": "stack", "seed": 5},
        "operators": ["IndVarRepGlob"],
        "suite": {"max_cases": 4},
        "budgets": {"max_mutants": 3},
    }])
    cache_dir = tmp_path / "cache"

    def sweep():
        cache = MutationOutcomeCache(cache_dir)
        report = SweepRunner(registry, workspace=tmp_path / "ws",
                             cache=cache).run()
        return report, cache.scenario_stats()

    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CACHE_KEY_VERSION", CACHE_KEY_VERSION - 1)
        patch.setattr(sweep_module, "CACHE_KEY_VERSION", CACHE_KEY_VERSION - 1)
        old, old_stats = sweep()
    assert old_stats["stores"] == 1

    current, stats = sweep()
    assert stats["hits"] == 0
    assert stats["stores"] == 1
    assert current.to_json(timings=False) == old.to_json(timings=False)
