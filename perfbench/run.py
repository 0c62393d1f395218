"""The repository's benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, plain and traced
    python3 perfbench/run.py --write-pins          # re-pin the default seed's verdicts
    python3 perfbench/selftest.py                  # the harness's own checks

Workloads (their rationale is in ``BENCHMARK.json``):

* ``paper``: ``run_table1()``, ``run_table2(seed)`` and ``run_table3(seed)``
  at default flags, serial, with no cache and the equivalence probe on.
* ``sweep``: one ``SweepRunner(registry, workers=2)`` over the seed's
  registry, with a fresh, empty outcome cache.
* ``service``: a daemon (``--workers 2 --concurrency 2``, no cache) and two
  closed-loop client threads.  Each thread submits the registry's
  scenarios one job at a time and polls ``result`` every 10 ms.

Every iteration runs in a fresh process (``child.py``).  The benchmark
keeps running iterations while one more fits in ``--seconds`` and reports
medians.  It always runs at least one.  ``setup_s`` is the median of
several set-up-only processes plus every iteration's own set-up.  With
``--trace 1`` the first iteration runs untraced.  The iterations after it
run with the wrappers of ``tracer.py``, and the per-layer metrics are their
medians.  Every iteration's verdicts are checked by ``checks.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the outputs are correct, 1 on a correctness mismatch, and 2 when the
benchmark cannot run at all (e.g. no ``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import checks
from tracer import LAYER_UNITS

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper", "sweep", "service")
#: Set-up-only processes per run (a daemon start costs more than an import).
SETUP_PROBES = {"paper": 9, "sweep": 9, "service": 5}
#: A child process that runs longer than this is killed with its group.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(role: str, workload: str, seed: int, directory: Path,
          trace: bool = False) -> Dict[str, Any]:
    """Run one ``child.py`` process to completion and return its result."""
    directory.mkdir(parents=True)
    (directory / "tmp").mkdir()
    out = directory / "result.json"
    source = str(ROOT / "src")
    env = dict(os.environ, TMPDIR=str(directory / "tmp"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [source, os.environ.get("PYTHONPATH")])))
    spec = {"role": role, "workload": workload, "seed": seed, "trace": trace,
            "dir": str(directory), "out": str(out),
            "socket": os.path.relpath(directory / "d.sock", ROOT)}
    with open(directory / "child.log", "wb") as log:
        spec["spawned"] = clock()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The group holds the child's workers and daemon too.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    if code != 0:
        tail = (directory / "child.log").read_text(errors="replace")[-2000:]
        reason = "timed out" if code is None else f"exited {code}"
        raise ChildFailed(f"{role} process for {workload} {reason}:\n{tail}")
    result = json.loads(out.read_text())
    result["elapsed_s"] = clock() - spec["spawned"]
    return result


class Measurement:
    """Every process result of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.setups: List[float] = []
        self.plain: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.reference: Optional[List[Dict[str, Any]]] = None

    @property
    def iterations(self) -> List[Dict[str, Any]]:
        return self.plain + self.traced

    def check(self, pins: Dict[str, Any]) -> checks.Outcome:
        records = [iteration["record"] for iteration in self.iterations]
        if self.workload == "paper":
            return checks.check_paper(records, self.seed, pins)
        if self.workload == "sweep":
            return checks.check_sweep(records, self.seed, pins)
        return checks.check_service(records, self.seed, pins, self.reference)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    measurement = Measurement(workload, seed, trace)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    count = itertools.count()

    def child(role: str, traced: bool = False) -> Dict[str, Any]:
        return spawn(role, workload, seed, run_dir / f"p{next(count)}", traced)

    try:
        if workload == "service":
            measurement.reference = child("reference")["rows"]
        child("setup")  # warms bytecode and page caches; not a sample
        measurement.setups = [child("setup")["setup_s"]
                              for _ in range(SETUP_PROBES[workload])]
        started = clock()
        durations: List[float] = []
        while True:
            traced = trace and bool(measurement.plain)
            result = child(workload, traced)
            (measurement.traced if traced else measurement.plain).append(result)
            durations.append(result["elapsed_s"])
            done = bool(measurement.traced) or not trace
            if done and clock() - started + statistics.median(durations) > seconds:
                return measurement
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def metric_specs() -> Dict[str, List[Dict[str, Any]]]:
    return json.loads(BENCHMARK.read_text())


def end_to_end(measurement: Measurement) -> Dict[str, float]:
    plain = measurement.plain
    setups = measurement.setups + [item["setup_s"] for item in measurement.iterations]
    return {
        "wall_s": statistics.median(item["wall_s"] for item in plain),
        "mutants_per_s": statistics.median(item["mutants"] / item["wall_s"]
                                           for item in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(item["peak_rss_mb"] for item in plain),
    }


def per_layer(measurement: Measurement, outcome: checks.Outcome) -> Dict[str, float]:
    traced = measurement.traced
    metrics = {name: statistics.median(item["layers"].get(name, 0.0)
                                       for item in traced)
               for name in LAYER_UNITS}
    plain_wall = statistics.median(item["wall_s"] for item in measurement.plain)
    traced_wall = statistics.median(item["wall_s"] for item in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    metrics["failed_ratio"] = outcome.failed / outcome.attempted
    if measurement.workload == "service":
        for name in ("job_p50_s", "job_p90_s"):
            metrics[f"service.{name}"] = statistics.median(
                item[name] for item in measurement.plain)
    return metrics


def source_provenance() -> Dict[str, str]:
    """The commit when run in a git checkout, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def report(measurement: Measurement, pins: Dict[str, Any]) -> Dict[str, Any]:
    """Print the run's metrics by name and unit; return the result object."""
    outcome = measurement.check(pins)
    specs = metric_specs()
    listed = specs["per_layer"] if measurement.trace else specs["end_to_end"]
    values = (per_layer(measurement, outcome) if measurement.trace
              else end_to_end(measurement))
    setup_samples = len(measurement.setups) + len(measurement.iterations)
    host = {
        "workload": measurement.workload,
        "trace": int(measurement.trace),
        "seed": measurement.seed,
        "iterations": len(measurement.plain),
        "traced_iterations": len(measurement.traced),
        "setup_samples": setup_samples,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        **source_provenance(),
    }
    print(f"perfbench {measurement.workload} seed={measurement.seed} "
          f"trace={int(measurement.trace)}")
    print("host " + json.dumps(host, sort_keys=True))
    metrics = {}
    for entry in listed:
        name = entry["name"]
        value = float(values[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        samples = setup_samples if name == "setup_s" else len(measurement.plain)
        print(f"  {name:<40} {value:>16.6f} {entry['unit']:<6}"
              + ("" if measurement.trace else f" (median of {samples})"))
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={str(outcome.correct).lower()}")
    for text in outcome.mismatches[:20]:
        print(f"  MISMATCH {text}")
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def write_pins() -> int:
    run_dir = WORK / f"pins-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        paper = spawn("paper", "paper", checks.DEFAULT_SEED, run_dir / "paper")
        sweep = spawn("sweep", "sweep", checks.DEFAULT_SEED, run_dir / "sweep")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    pins = checks.pins_from(paper["record"], sweep["record"])
    checks.PINS.write_text(checks.dumps_pins(pins))
    killed = sum(1 for row in pins["paper"]["table2"] if row[1])
    print(f"pinned Table 2: {len(pins['paper']['table2'])} mutants, {killed} "
          f"killed, {len(pins['paper']['likely_equivalent'])} likely "
          f"equivalent; Table 3: {len(pins['paper']['table3'])} mutants; "
          f"sweep: {len(pins['sweep'])} scenarios -> {checks.PINS}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the default seed's verdicts and rows")
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    if arguments.write_pins:
        return write_pins()
    if not BENCHMARK.is_file() or not checks.PINS.is_file():
        print("perfbench: BENCHMARK.json or pins.json is missing",
              file=sys.stderr)
        return 2
    seconds = (arguments.seconds if arguments.seconds is not None
               else metric_specs()["run_seconds"])
    pins = checks.load_pins()
    if arguments.workload == "all":
        runs = [(workload, trace) for workload in WORKLOADS for trace in (False, True)]
    else:
        runs = [(arguments.workload, bool(arguments.trace))]
    results = []
    try:
        for workload, trace in runs:
            measurement = measure(workload, arguments.seed, seconds, trace)
            results.append((workload, trace, report(measurement, pins)))
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][2]
    else:
        final = {
            "correct": all(result["correct"] for _, _, result in results),
            "attempted": sum(result["attempted"] for _, _, result in results),
            "failed": sum(result["failed"] for _, _, result in results),
            "metrics": {f"{workload}.{name}": value
                        for workload, _, result in results
                        for name, value in result["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
