"""Outside-in tracing: timed wrappers around the public callables of each layer.

The benchmark never edits ``src/``.  A traced iteration calls
:func:`install`, which replaces each callable in :data:`TARGETS` with a
wrapper that records one span per call: inclusive time, self time (the
span minus the spans nested inside it on the same thread) and the call
count.  A target that no longer exists is skipped, so its metrics read 0.
An untraced iteration installs nothing.

:func:`layer_metrics` turns the raw record into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: (span name, module, attribute path) of every wrapped callable.  Several
#: callables may share one span name; they then form one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.table1", "repro.experiments.table1", "run_table1"),
    ("experiments.table2", "repro.experiments.table2", "run_table2"),
    ("experiments.table3", "repro.experiments.table3", "run_table3"),
    ("generator.generate", "repro.generator.driver", "DriverGenerator.generate"),
    ("mutation.generate", "repro.mutation.generate", "generate_mutants"),
    ("mutation.generate", "repro.mutation.generate", "build_battery"),
    ("mutation.coverage", "repro.mutation.coverage", "record_coverage"),
    ("mutation.triage", "repro.mutation.triage", "triage_mutants"),
    ("mutation.mutant.build", "repro.mutation.mutant", "CompiledMutant.build_class"),
    ("harness.executor.case", "repro.harness.executor", "TestExecutor.run_case"),
    ("harness.oracles.judge", "repro.harness.oracles", "CompositeOracle.judge"),
    ("mutation.analysis", "repro.mutation.analysis", "MutationAnalysis.analyze"),
    ("mutation.parallel.analyze", "repro.mutation.parallel",
     "ParallelMutationAnalysis.analyze"),
    ("mutation.cache.lookup", "repro.mutation.cache", "MutationOutcomeCache.lookup"),
    ("mutation.cache.lookup", "repro.mutation.cache",
     "MutationOutcomeCache.lookup_scenario"),
    ("mutation.cache.store", "repro.mutation.cache", "MutationOutcomeCache.store"),
    ("mutation.cache.store", "repro.mutation.cache",
     "MutationOutcomeCache.store_scenario"),
    ("mutation.equivalence.probe", "repro.mutation.equivalence", "probe_equivalence"),
    ("history.incremental.plan", "repro.history.incremental", "plan_subclass_testing"),
    ("scenarios.sweep.prep", "repro.scenarios.sweep", "SweepRunner.run_scenario"),
    ("scenarios.genspec.synthesize", "repro.scenarios.genspec", "synthesize"),
    ("scenarios.materialize", "repro.scenarios.materialize", "materialize"),
)


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _count_run(counts: Dict[str, float], run: Any) -> None:
    counts["analysis.step_timeouts"] += run.step_timeouts
    counts["analysis.mutants_executed"] += run.dispatched_count
    counts["analysis.cases_executed"] += run.cases_executed
    counts["analysis.cases_skipped"] += run.cases_skipped


def _after_generate(counts, result, args, kwargs):
    counts["generator.cases"] += len(result.cases)


def _after_mutants(counts, result, args, kwargs):
    counts["generate.mutants"] += len(result[0])


def _after_triage(counts, result, args, kwargs):
    counts["triage.mutants"] += len(_argument(args, kwargs, 1, "mutants") or ())
    counts["triage.skipped"] += result.skipped


def _after_analyze(counts, result, args, kwargs):
    _count_run(counts, result)


def _after_lookup(counts, result, args, kwargs):
    counts["cache.lookups"] += 1
    counts["cache.hits"] += result is not None


def _after_probe(counts, result, args, kwargs):
    counts["equivalence.probed"] += len(_argument(args, kwargs, 2, "survivors") or ())
    counts["equivalence.likely_equivalent"] += len(result.likely_equivalent)


#: Counters read from each wrapped call's arguments and result.  A hook is
#: keyed by (module, attribute path), not by span name.
HOOKS: Dict[Tuple[str, str], Callable] = {
    ("repro.generator.driver", "DriverGenerator.generate"): _after_generate,
    ("repro.mutation.generate", "generate_mutants"): _after_mutants,
    ("repro.mutation.triage", "triage_mutants"): _after_triage,
    ("repro.mutation.analysis", "MutationAnalysis.analyze"): _after_analyze,
    ("repro.mutation.parallel", "ParallelMutationAnalysis.analyze"): _after_analyze,
    ("repro.mutation.cache", "MutationOutcomeCache.lookup"): _after_lookup,
    ("repro.mutation.cache", "MutationOutcomeCache.lookup_scenario"): _after_lookup,
    ("repro.mutation.equivalence", "probe_equivalence"): _after_probe,
}


class Tracer:
    """Per-span-name totals plus the intervals of every outermost span."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        #: (start, end) of every span with no enclosing span on its thread
        self.outermost: List[Tuple[float, float]] = []
        self.installed: List[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable,
             hook: Optional[Callable] = None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            nested = [0.0]
            stack.append(nested)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                elapsed = ended - started
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    totals = self.spans[name]
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - nested[0]
                    if not stack:
                        self.outermost.append((started, ended))
            if hook is not None:
                with self._lock:
                    hook(self.counts, result, args, kwargs)
            return result

        return traced

    def raw(self) -> Dict[str, Any]:
        """JSON-ready record (crosses the process boundary)."""
        with self._lock:
            return {
                "spans": {name: list(totals) for name, totals in self.spans.items()},
                "counts": dict(self.counts),
                "outermost": list(self.outermost),
                "installed": list(self.installed),
            }


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) or raises LookupError."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(str(error))
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            raise LookupError(f"{module_name}.{path}")
    if attribute not in vars(owner):
        raise LookupError(f"{module_name}.{path}")
    return owner, attribute, vars(owner)[attribute]


def install(tracer: Tracer) -> Tracer:
    """Wrap every resolvable target.  Module-level functions are replaced
    in every loaded ``repro`` module that imported them by name, so
    ``from x import f`` call sites see the wrapper too."""
    for name, module_name, path in TARGETS:
        try:
            owner, attribute, original = _resolve(module_name, path)
        except LookupError:
            continue
        traced = tracer.wrap(name, original, HOOKS.get((module_name, path)))
        if isinstance(owner, type):
            setattr(owner, attribute, traced)
        else:
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and vars(module).get(attribute) is original):
                    setattr(module, attribute, traced)
        tracer.installed.append(f"{module_name}.{path}")
    return tracer


def covered_seconds(intervals: List[Tuple[float, float]],
                    window: Tuple[float, float]) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    low, high = window
    covered = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Per-layer metric -> unit.  The order is the order they are printed in.
LAYER_UNITS: Dict[str, str] = {
    "experiments.table1_s": "s",
    "experiments.table2_s": "s",
    "experiments.table3_s": "s",
    "generator.generate_s": "s",
    "generator.cases": "count",
    "mutation.generate_s": "s",
    "mutation.generate.mutants": "count",
    "mutation.coverage_s": "s",
    "mutation.coverage.passes": "count",
    "mutation.triage_s": "s",
    "mutation.triage.skipped_ratio": "ratio",
    "mutation.mutant.build_s": "s",
    "mutation.mutant.builds": "count",
    "harness.executor.case_s": "s",
    "harness.executor.cases": "count",
    "harness.executor.case_us": "us",
    "mutation.sandbox.step_timeouts": "count",
    "harness.oracles.judge_s": "s",
    "harness.oracles.judgements": "count",
    "mutation.analysis.self_s": "s",
    "mutation.analysis.mutants_executed": "count",
    "mutation.analysis.prune_ratio": "ratio",
    "mutation.cache.lookup_s": "s",
    "mutation.cache.store_s": "s",
    "mutation.cache.hit_ratio": "ratio",
    "mutation.parallel.analyze_s": "s",
    "mutation.parallel.queue_wait_s": "s",
    "mutation.parallel.batches": "count",
    "mutation.parallel.battery_shipped": "count",
    "mutation.parallel.redispatches": "count",
    "mutation.equivalence.probe_s": "s",
    "mutation.equivalence.probed": "count",
    "mutation.equivalence.likely_equivalent": "count",
    "history.incremental.plan_s": "s",
    "scenarios.sweep.prep_s": "s",
    "scenarios.genspec.synthesize_s": "s",
    "scenarios.materialize_s": "s",
    "service.request_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.result_lag_s": "s",
    "service.job_p50_s": "s",
    "service.job_p90_s": "s",
    "failed_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(raw: Dict[str, Any], window: Tuple[float, float],
                  telemetry_counters: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced iteration.

    ``*_s`` metrics are self time summed over all threads, except the two
    container layers ``experiments.table*_s`` and
    ``mutation.equivalence.probe_s``, which are inclusive.  ``window`` is
    the traced wall-clock; ``trace.unattributed_s`` is the part of it no
    outermost span covers.  Metrics the workload never touches read 0.
    """
    spans = raw["spans"]
    counts = defaultdict(float, raw["counts"])
    telemetry = defaultdict(float, telemetry_counters or {})

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    case_s = own("harness.executor.case")
    cases = calls("harness.executor.case")
    considered = counts["analysis.cases_executed"] + counts["analysis.cases_skipped"]
    outermost = [tuple(interval) for interval in raw["outermost"]]
    return {
        "experiments.table1_s": inclusive("experiments.table1"),
        "experiments.table2_s": inclusive("experiments.table2"),
        "experiments.table3_s": inclusive("experiments.table3"),
        "generator.generate_s": own("generator.generate"),
        "generator.cases": counts["generator.cases"],
        "mutation.generate_s": own("mutation.generate"),
        "mutation.generate.mutants": counts["generate.mutants"],
        "mutation.coverage_s": own("mutation.coverage"),
        "mutation.coverage.passes": calls("mutation.coverage"),
        "mutation.triage_s": own("mutation.triage"),
        "mutation.triage.skipped_ratio": _ratio(counts["triage.skipped"],
                                                counts["triage.mutants"]),
        "mutation.mutant.build_s": own("mutation.mutant.build"),
        "mutation.mutant.builds": calls("mutation.mutant.build"),
        "harness.executor.case_s": case_s,
        "harness.executor.cases": cases,
        "harness.executor.case_us": _ratio(case_s, cases) * 1e6,
        "mutation.sandbox.step_timeouts": counts["analysis.step_timeouts"],
        "harness.oracles.judge_s": own("harness.oracles.judge"),
        "harness.oracles.judgements": calls("harness.oracles.judge"),
        "mutation.analysis.self_s": own("mutation.analysis"),
        "mutation.analysis.mutants_executed": counts["analysis.mutants_executed"],
        "mutation.analysis.prune_ratio": _ratio(counts["analysis.cases_skipped"],
                                                considered),
        "mutation.cache.lookup_s": own("mutation.cache.lookup"),
        "mutation.cache.store_s": own("mutation.cache.store"),
        "mutation.cache.hit_ratio": _ratio(counts["cache.hits"],
                                           counts["cache.lookups"]),
        "mutation.parallel.analyze_s": own("mutation.parallel.analyze"),
        "mutation.parallel.queue_wait_s": telemetry["pool.queue_wait_ms"] / 1000.0,
        "mutation.parallel.batches": telemetry["parallel.batches"],
        "mutation.parallel.battery_shipped": telemetry["parallel.battery_shipped"],
        "mutation.parallel.redispatches": telemetry["parallel.batch_redispatches"],
        "mutation.equivalence.probe_s": inclusive("mutation.equivalence.probe"),
        "mutation.equivalence.probed": counts["equivalence.probed"],
        "mutation.equivalence.likely_equivalent":
            counts["equivalence.likely_equivalent"],
        "history.incremental.plan_s": own("history.incremental.plan"),
        "scenarios.sweep.prep_s": own("scenarios.sweep.prep"),
        "scenarios.genspec.synthesize_s": own("scenarios.genspec.synthesize"),
        "scenarios.materialize_s": own("scenarios.materialize"),
        "trace.unattributed_s": (window[1] - window[0])
                                - covered_seconds(outermost, window),
    }
