"""Self-test of the benchmark harness, on a tiny scenario registry.

Run from the repository root: ``python3 perfbench/selftest.py``.  It takes
a few seconds and exits 0 when every check holds.  It checks that:

* the metrics the harness computes are exactly the metrics that
  ``BENCHMARK.json`` names, with the same units;
* in a single-threaded traced run, the self times of all spans plus
  ``trace.unattributed_s`` add up to the traced wall-clock;
* the default seed gives the builtin registry unchanged, and another seed
  gives a registry of the same shape;
* a deliberately corrupted verdict or row is counted as failed and makes
  the run incorrect, while the pinned records themselves pass.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_UNITS, Tracer, install, layer_metrics  # noqa: E402

#: Scenarios in the tiny registry (the first entries of the builtin one).
TINY = 3

failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def tiny_registry(seed: int):
    from repro.scenarios import ScenarioRegistry

    return ScenarioRegistry(tuple(list(full_registry(seed))[:TINY]))


full_registry = child.registry_for


def check_registries() -> None:
    from repro.scenarios import builtin_registry

    builtin = builtin_registry()
    default = full_registry(checks.DEFAULT_SEED)
    other = full_registry(7)
    expect(default.fingerprint() == builtin.fingerprint(),
           "the default seed gives the builtin registry")
    expect(len(other) == len(builtin)
           and len({scenario.ident for scenario in other}) == len(builtin),
           f"seed 7 gives {len(other)} distinct scenarios like the builtin "
           f"registry's {len(builtin)}")


def check_self_times() -> None:
    """Single-threaded: sum of self times + unattributed == wall-clock."""
    from repro.scenarios import SweepRunner

    tracer = install(Tracer())
    started = child.clock()
    SweepRunner(tiny_registry(checks.DEFAULT_SEED)).run()
    ended = child.clock()
    raw = tracer.raw()
    layers = layer_metrics(raw, (started, ended))
    self_total = sum(totals[2] for totals in raw["spans"].values())
    wall = ended - started
    expect(abs(self_total + layers["trace.unattributed_s"] - wall) < 1e-6,
           f"self times {self_total:.6f} s + unattributed "
           f"{layers['trace.unattributed_s']:.6f} s = traced wall {wall:.6f} s")
    expect(layers["harness.executor.cases"] > 0 and layers["mutation.generate_s"] > 0,
           "the traced sweep recorded case executions and mutant generation")


def check_metric_names(work: Path) -> None:
    """One traced tiny sweep iteration through the real aggregation code."""
    child.registry_for = tiny_registry
    for name in ("plain", "traced"):
        (work / name).mkdir()
    plain = child.run_sweep({"seed": 7, "dir": str(work / "plain")}, None)
    traced = child.run_sweep({"seed": 7, "dir": str(work / "traced")},
                             install(Tracer()))
    for result in (plain, traced):
        result.update(setup_s=0.1, peak_rss_mb=1.0)
    measurement = run.Measurement("sweep", 7, trace=True)
    measurement.setups = [0.1]
    measurement.plain, measurement.traced = [plain], [traced]
    outcome = measurement.check({})
    specs = run.metric_specs()
    end_to_end = run.end_to_end(measurement)
    per_layer = run.per_layer(measurement, outcome)
    expect(sorted(end_to_end) == sorted(m["name"] for m in specs["end_to_end"]),
           "end-to-end metric names match BENCHMARK.json")
    expect(sorted(per_layer) == sorted(m["name"] for m in specs["per_layer"]),
           "per-layer metric names match BENCHMARK.json")
    expect(all(LAYER_UNITS[m["name"]] == m["unit"] for m in specs["per_layer"]),
           "per-layer units match BENCHMARK.json")
    expect(outcome.correct and outcome.attempted == 2 * TINY,
           f"the tiny sweep passes its checks ({outcome.attempted} attempted, "
           f"{outcome.failed} failed)")

    rows = copy.deepcopy(plain["record"]["rows"])
    victim = next(row for row in rows if row["killed"])
    victim["killed"] -= 1
    corrupted = checks.check_sweep([{"rows": rows}], 7, {})
    expect(corrupted.failed == 1 and not corrupted.correct,
           f"a corrupted sweep row counts as failed ({corrupted.failed})")


def check_paper_verdicts() -> None:
    pins = checks.load_pins()
    record = pins["paper"]
    clean = checks.check_paper([record], checks.DEFAULT_SEED, pins)
    expect(clean.correct and clean.failed == 0 and clean.attempted == 709 + 176,
           f"the pinned paper verdicts pass ({clean.attempted} mutants)")
    corrupted = copy.deepcopy(record)
    row = next(row for row in corrupted["table2"] if row[1])
    row[3] = "another-case"
    outcome = checks.check_paper([corrupted], checks.DEFAULT_SEED, pins)
    expect(outcome.failed == 1 and not outcome.correct,
           f"a corrupted Table 2 verdict counts as failed ({outcome.failed})")
    expect(any(row[0] == checks.KNOWN_DEFECT for row in pins["sweep"]),
           "the known component-product defect stays in the pinned sweep")


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        check_registries()
        check_paper_verdicts()
        check_self_times()
        check_metric_names(work)
    finally:
        child.shutdown_worker_pool()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"selftest": "failed" if failures else "passed",
                      "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
