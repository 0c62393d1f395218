"""One fresh process of the benchmark: ``python3 perfbench/child.py SPEC``.

``SPEC`` is a JSON object.  Its ``role`` selects what the process does:

* ``setup``: import the workload's modules and, for ``service``, start a
  daemon and wait until it answers ``ping``.  This gives one set-up sample.
* ``paper``, ``sweep`` or ``service``: one iteration of that workload.
* ``reference``: the in-process sweep that the service rows are checked
  against.
* ``daemon``: the service daemon.  It is traced when ``trace`` is set.

The process writes its result as JSON to ``SPEC["out"]``.  Times are
``time.perf_counter`` readings.  On Linux that is ``CLOCK_MONOTONIC``, so
readings from the parent and from the daemon can be compared.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import DEFAULT_SEED
from tracer import Tracer, install, layer_metrics

clock = time.perf_counter

#: Worker processes of the sweep engine and of the daemon (``nproc`` here).
WORKERS = 2
#: Closed-loop client threads of the ``service`` workload, one job each
#: in flight; the daemon runs as many jobs at once.
CLIENTS = 2
#: How often a client polls ``result`` for its job.  ``ServiceClient.wait``
#: polls every 50 ms, about a third of a typical job; this resolves the
#: job latency to 10 ms instead.
POLL_S = 0.01
#: How long to wait for a starting daemon to answer ``ping``.
DAEMON_START_S = 60.0


def registry_for(seed: int):
    """The scenario registry of a seed.

    It has the builtin corpus's shape: every generated family at four
    generator seeds times five operators, the two paper subjects and one
    entry per catalog component.  The default seed gives the builtin
    registry itself.  Any other seed draws the four family seeds from the
    seed and uses the seed as every scenario's suite seed.
    """
    from repro.scenarios import (
        builtin_registry,
        registry_from_mappings,
        scenario_to_mapping,
    )

    builtin = builtin_registry()
    if seed == DEFAULT_SEED:
        return builtin
    family_seeds = sorted({scenario.component.seed for scenario in builtin
                           if scenario.component.is_generated})
    drawn = random.Random(seed).sample(range(1, 100), len(family_seeds))
    renamed = dict(zip(family_seeds, drawn))
    mappings = []
    for scenario in builtin:
        mapping = scenario_to_mapping(scenario)
        if scenario.component.is_generated:
            old = scenario.component.seed
            mapping["component"]["seed"] = renamed[old]
            mapping["ident"] = mapping["ident"].replace(
                f"-s{old}-", f"-s{renamed[old]}-")
        mapping["suite"]["seed"] = seed
        mappings.append(mapping)
    return registry_from_mappings(mappings, origin=f"perfbench seed {seed}")


def import_workload(workload: str) -> None:
    """The imports whose cost is part of a workload's set-up time."""
    if workload == "paper":
        import repro.experiments  # noqa: F401
    else:
        import repro.mutation.cache  # noqa: F401
        import repro.scenarios  # noqa: F401
        import repro.service.client  # noqa: F401


def telemetry_arguments(tracer: Optional[Tracer]) -> Dict[str, Any]:
    """A telemetry session for the traced run only (its counters are read
    back); the untraced run passes nothing."""
    if tracer is None:
        return {}
    from repro.obs import Telemetry

    return {"telemetry": Telemetry()}


def shutdown_worker_pool() -> None:
    """Stop the process-wide worker pool now, so its workers are reaped
    (and counted in peak memory) before the iteration reports."""
    from repro.mutation import parallel

    getattr(parallel, "shutdown_shared_pool", lambda: None)()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _verdicts(run) -> List[list]:
    return [[outcome.mutant.ident, outcome.killed,
             outcome.reason.value,
             outcome.killing_case]
            for outcome in run.outcomes]


def run_paper(spec: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro import experiments

    seed = spec["seed"]
    options = telemetry_arguments(tracer)
    started = clock()
    table1 = experiments.run_table1(**options)
    table2 = experiments.run_table2(seed, **options)
    table3 = experiments.run_table3(seed, **options)
    ended = clock()
    equivalence = table2.equivalence
    record = {
        "table1": [[demo.operator, demo.untyped_mutants, demo.typed_mutants,
                    demo.example] for demo in table1.demos],
        "table2": _verdicts(table2.run),
        "table3": _verdicts(table3.incremental_run),
        "likely_equivalent": sorted(equivalence.likely_equivalent
                                    if equivalence is not None else ()),
    }
    mutants = len(record["table2"]) + len(record["table3"])
    return finish(started, ended, mutants, record, tracer, options)


def run_sweep(spec: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.mutation.cache import MutationOutcomeCache
    from repro.scenarios import SweepRunner

    registry = registry_for(spec["seed"])
    options = telemetry_arguments(tracer)
    started = clock()
    cache = MutationOutcomeCache(Path(spec["dir"]) / "cache")
    report = SweepRunner(registry, workers=WORKERS, cache=cache,
                         **options).run()
    ended = clock()
    cache.close()
    shutdown_worker_pool()
    record = {"rows": report.to_dict(timings=False)["results"]}
    return finish(started, ended, report.mutants_total, record, tracer, options)


def run_reference(spec: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.scenarios import SweepRunner

    report = SweepRunner(registry_for(spec["seed"])).run()
    return {"rows": report.to_dict(timings=False)["results"]}


def finish(started: float, ended: float, mutants: int, record: Dict[str, Any],
           tracer: Optional[Tracer], options: Dict[str, Any]) -> Dict[str, Any]:
    result = {"wall_s": ended - started, "mutants": mutants, "record": record}
    if tracer is not None:
        counters = options["telemetry"].counters()
        result["layers"] = layer_metrics(tracer.raw(), (started, ended), counters)
    return result


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

def start_daemon(spec: Dict[str, Any]) -> Tuple[subprocess.Popen, float]:
    """Spawn a daemon and wait for ``ping``; returns it and the ready time."""
    from repro.core.errors import ServiceError
    from repro.service.client import ServiceClient

    directory = Path(spec["dir"])
    daemon_spec = {"role": "daemon", "socket": spec["socket"],
                   "trace": bool(spec.get("trace")),
                   "out": str(directory / "daemon-trace.json")}
    log = open(directory / "daemon.log", "ab")
    try:
        daemon = subprocess.Popen(
            [sys.executable, __file__, json.dumps(daemon_spec)],
            stdout=log, stderr=subprocess.STDOUT,
        )
    finally:
        log.close()
    deadline = clock() + DAEMON_START_S
    while True:
        try:
            with ServiceClient(spec["socket"], timeout=5.0) as client:
                client.ping()
            return daemon, clock()
        except ServiceError:
            if daemon.poll() is not None or clock() > deadline:
                stop_daemon(daemon, spec["socket"])
                raise RuntimeError("the service daemon did not start; see "
                                   f"{directory / 'daemon.log'}")
            time.sleep(0.005)


def stop_daemon(daemon: subprocess.Popen, socket_path: str) -> None:
    """Ask the daemon to shut down and wait for it; kill it if it won't."""
    from repro.core.errors import ServiceError
    from repro.service.client import ServiceClient

    if daemon.poll() is None:
        try:
            with ServiceClient(socket_path, timeout=5.0) as client:
                client.shutdown()
            daemon.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            daemon.kill()
    daemon.wait()


def run_daemon(spec: Dict[str, Any]) -> int:
    tracer = install(Tracer()) if spec["trace"] else None
    from repro.service.cli import main as service_main

    code = service_main(["serve", "--socket", spec["socket"],
                         "--workers", str(WORKERS),
                         "--concurrency", str(CLIENTS)])
    if tracer is not None:
        Path(spec["out"]).write_text(json.dumps(tracer.raw()))
    return code


def _run_job(client, mapping: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """Submit one scenario, poll until it is terminal, read its timestamps."""
    submitted = clock()
    job_id = client.submit_scenario(mapping)
    request_s = clock() - submitted
    while True:
        asked = clock()
        reply = client.result(job_id)
        request_s += clock() - asked
        if reply.get("ready"):
            break
        time.sleep(POLL_S)
    seen, seen_wall = clock(), time.time()
    status = client.status(job_id)
    counters: Dict[str, float] = {}
    if traced:
        events = client.events(job_id, start=max(status["events"] - 1, 0))
        for event in events["events"]:
            if event.get("kind") == "counters":
                counters = event["counters"]
    started_at = status["started_at"] or status["submitted_at"]
    finished_at = status["finished_at"] or started_at
    return {
        "state": reply.get("state"),
        "row": (reply.get("result") or {}).get("scenario"),
        "submitted": submitted,
        "seen": seen,
        "request_s": request_s,
        "queue_wait_s": started_at - status["submitted_at"],
        "run_s": finished_at - started_at,
        "result_lag_s": seen_wall - finished_at,
        "counters": counters,
    }


def _serve_jobs(socket_path: str, mappings: List[Dict[str, Any]],
                traced: bool) -> List[Dict[str, Any]]:
    """Closed loop: each client thread keeps one job in flight."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    pending = iter(mappings)
    jobs: List[Dict[str, Any]] = []
    errors: List[BaseException] = []

    def client_loop() -> None:
        try:
            with ServiceClient(socket_path) as client:
                while True:
                    with lock:
                        mapping = next(pending, None)
                    if mapping is None:
                        return
                    job = _run_job(client, mapping, traced)
                    with lock:
                        jobs.append(job)
        except Exception as error:  # re-raised in the main thread
            errors.append(error)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return jobs


def run_service(spec: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.scenarios import report_from_mapping, scenario_to_mapping
    from repro.scenarios.sweep import REPORT_SCHEMA

    mappings = [scenario_to_mapping(scenario)
                for scenario in registry_for(spec["seed"])]
    traced = bool(spec.get("trace"))
    daemon, ready = start_daemon(spec)
    try:
        jobs = _serve_jobs(spec["socket"], mappings, traced)
    finally:
        stop_daemon(daemon, spec["socket"])
    started = min(job["submitted"] for job in jobs)
    ended = max(job["seen"] for job in jobs)
    rows = [job["row"] for job in jobs if isinstance(job["row"], dict)]
    report = report_from_mapping({"schema": REPORT_SCHEMA, "results": rows})
    latencies = [job["seen"] - job["submitted"] for job in jobs]
    record = {"rows": report.to_dict(timings=False)["results"],
              "states": sorted(str(job["state"]) for job in jobs)}
    result = {
        "wall_s": ended - started,
        "setup_s": ready - spec["spawned"],
        "mutants": sum(row["mutants_total"] for row in rows),
        "record": record,
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[-1],
    }
    if traced:
        counters: Dict[str, float] = {}
        for job in jobs:
            for name, value in job["counters"].items():
                counters[name] = counters.get(name, 0) + value
        raw = json.loads((Path(spec["dir"]) / "daemon-trace.json").read_text())
        layers = layer_metrics(raw, (started, ended), counters)
        for name in ("request_s", "queue_wait_s", "run_s", "result_lag_s"):
            layers[f"service.{name}"] = sum(job[name] for job in jobs)
        result["layers"] = layers
    return result


def run_setup(spec: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    if spec["workload"] != "service":
        return {}
    daemon, ready = start_daemon(spec)
    stop_daemon(daemon, spec["socket"])
    return {"setup_s": ready - spec["spawned"]}


ROLES: Dict[str, Callable[[Dict[str, Any], Optional[Tracer]], Dict[str, Any]]] = {
    "setup": run_setup,
    "paper": run_paper,
    "sweep": run_sweep,
    "service": run_service,
    "reference": run_reference,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["role"] == "daemon":
        return run_daemon(spec)
    import_workload(spec["workload"])
    ready = clock()
    tracer = install(Tracer()) if spec.get("trace") else None
    result = ROLES[spec["role"]](spec, tracer)
    result.setdefault("setup_s", ready - spec["spawned"])
    result["peak_rss_mb"] = peak_rss_mb()
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
