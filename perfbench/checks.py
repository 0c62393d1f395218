"""Correctness checks on the records the benchmark's iterations return.

Every check is independent of report formatting: it compares the
verdict-bearing fields each workload produces.  For the default seed
they are compared with ``pins.json`` (written from the seed commit by
``python3 perfbench/run.py --write-pins``); on every seed the records
must satisfy the invariants below and repeat exactly across iterations.

An operation is a mutant for ``paper``, a scenario for ``sweep`` and a
job for ``service``.  It fails when its verdict or row disagrees with the
check, or when the program itself reports it failed.  The one known
program defect, :data:`KNOWN_DEFECT`, is counted as failed but does not
make the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

PINS = Path(__file__).resolve().parent / "pins.json"

#: The default seed: the experiments' ``EXPERIMENT_SEED``, which also
#: selects the builtin scenario registry unchanged.
DEFAULT_SEED = 20010701

#: ``component-product`` runs 72 of its 150 reference cases as INCOMPLETE
#: ("structured parameters not completed"), so its scenario reports
#: oracle failures on every seed.  It stays in the workloads and is
#: counted in ``failed``; only a different failure is a mismatch.
KNOWN_DEFECT = "component-product"


class Outcome:
    """attempted / failed operations plus the mismatches behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def mismatch(self, text: str) -> None:
        self.mismatches.append(text)


def load_pins() -> Dict[str, Any]:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text())


# ---------------------------------------------------------------------------
# paper: Tables 1-3
# ---------------------------------------------------------------------------

def _verdict_problems(verdicts: List[list]) -> List[str]:
    """Idents whose (ident, killed, reason, killing_case) is inconsistent."""
    bad = []
    for ident, killed, reason, killing_case in verdicts:
        if killed != bool(killing_case) or killed != (reason != "none"):
            bad.append(ident)
    return bad


def check_paper(records: List[Dict[str, Any]], seed: int,
                pins: Dict[str, Any]) -> Outcome:
    """``records``: one per iteration, each with ``table1`` (operator rows),
    ``table2``/``table3`` (verdict rows) and ``likely_equivalent``."""
    outcome = Outcome()
    pinned = pins.get("paper")
    for index, record in enumerate(records):
        failed = set()
        for table in ("table2", "table3"):
            verdicts = record[table]
            outcome.attempted += len(verdicts)
            failed.update(_verdict_problems(verdicts))
            if pinned is None:
                continue
            expected_idents = [row[0] for row in pinned[table]]
            if [row[0] for row in verdicts] != expected_idents:
                outcome.mismatch(f"iteration {index}: {table} mutant idents "
                                 f"differ from the pinned battery")
            if seed == DEFAULT_SEED:
                expected = {row[0]: row for row in pinned[table]}
                failed.update(row[0] for row in verdicts
                              if expected.get(row[0]) != row)
        survivors = {row[0] for row in record["table2"] if not row[1]}
        equivalent = set(record["likely_equivalent"])
        failed.update(equivalent - survivors)
        if pinned is not None:
            if record["table1"] != pinned["table1"]:
                outcome.mismatch(f"iteration {index}: Table 1 operator rows "
                                 f"differ from the pins")
            if seed == DEFAULT_SEED:
                failed.update(equivalent ^ set(pinned["likely_equivalent"]))
        if failed:
            outcome.mismatch(f"iteration {index}: {len(failed)} mutant "
                             f"verdict(s) wrong, e.g. {sorted(failed)[:3]}")
        outcome.failed += len(failed)
    _check_repeats(outcome, records)
    return outcome


# ---------------------------------------------------------------------------
# sweep and service: scenario rows
# ---------------------------------------------------------------------------

def pin_row(row: Dict[str, Any]) -> list:
    """The pinned fields of a scenario row."""
    return [row["ident"], row["mutants_total"], row["killed"],
            dict(sorted(row["kill_reasons"].items()))]


def _row_problem(row: Dict[str, Any]) -> Optional[str]:
    """Why a row is failed (the program's own verdict or an invariant)."""
    if row["error"]:
        return f"error {row['error']!r}"
    if row["oracle_failures"]:
        return f"{row['oracle_failures']} oracle failures"
    if sum(row["kill_reasons"].values()) != row["killed"]:
        return "kill reasons do not add up to killed"
    if row["killed"] + row["survived"] != row["mutants_total"]:
        return "killed + survived != mutants_total"
    return None


def _count_rows(outcome: Outcome, index: int, rows: List[Dict[str, Any]],
                expected: Optional[Dict[str, list]],
                reference: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
    outcome.attempted += len(rows)
    for row in rows:
        problem = _row_problem(row)
        pinned = expected is None or expected.get(row["ident"]) == pin_row(row)
        if not pinned:
            problem = "row differs from the pins"
        expected_row = reference.get(row["ident"], {}) if reference else row
        if expected_row != row:
            fields = sorted(name for name in row
                            if expected_row.get(name) != row[name])
            problem = f"row differs from the in-process sweep in {fields}"
        if problem is None:
            continue
        outcome.failed += 1
        known = (row["ident"] == KNOWN_DEFECT and not row["error"]
                 and row["oracle_failures"] and pinned and expected_row == row)
        if not known:
            outcome.mismatch(f"iteration {index}: scenario {row['ident']}: "
                             f"{problem}")


def _expected_rows(seed: int,
                   pins: Dict[str, Any]) -> Optional[Dict[str, list]]:
    pinned = pins.get("sweep")
    if seed != DEFAULT_SEED or pinned is None:
        return None
    return {row[0]: row for row in pinned}


def check_sweep(records: List[Dict[str, Any]], seed: int,
                pins: Dict[str, Any]) -> Outcome:
    """``records``: one per iteration, each with the deterministic
    projection of every scenario row under ``rows``."""
    outcome = Outcome()
    for index, record in enumerate(records):
        rows = record["rows"]
        expected = _expected_rows(seed, pins)
        _count_rows(outcome, index, rows, expected)
        if expected is not None and sorted(expected) != sorted(
                row["ident"] for row in rows):
            outcome.mismatch(f"iteration {index}: scenario set differs "
                             f"from the pins")
    _check_repeats(outcome, records)
    return outcome


def check_service(records: List[Dict[str, Any]], seed: int,
                  pins: Dict[str, Any],
                  reference: List[Dict[str, Any]]) -> Outcome:
    """``records``: one per iteration, with the projection of each job's
    row under ``rows`` and each job's final state under ``states``.  Every
    job must end ``done`` with a row equal to the in-process sweep's row
    (``reference``) and, on the default seed, to the pins."""
    outcome = Outcome()
    by_ident = {row["ident"]: row for row in reference}
    for index, record in enumerate(records):
        rows = record["rows"]
        expected = _expected_rows(seed, pins)
        _count_rows(outcome, index, rows, expected, by_ident)
        unfinished = len(record["states"]) - len(rows)
        outcome.attempted += unfinished
        outcome.failed += unfinished
        missing = set(by_ident) - {row["ident"] for row in rows}
        if unfinished or missing or len(record["states"]) != len(by_ident):
            outcome.mismatch(f"iteration {index}: {len(missing)} scenario(s) "
                             f"without a finished job, e.g. "
                             f"{sorted(missing)[:3]}")
        bad_states = [state for state in record["states"] if state != "done"]
        if bad_states:
            outcome.mismatch(f"iteration {index}: job(s) ended "
                             f"{sorted(set(bad_states))}")
    _check_repeats(outcome, records)
    return outcome


def _check_repeats(outcome: Outcome, records: List[Dict[str, Any]]) -> None:
    """A seed's records must repeat exactly in every iteration."""
    first = json.dumps(records[0], sort_keys=True) if records else ""
    for index, record in enumerate(records[1:], start=1):
        if json.dumps(record, sort_keys=True) != first:
            outcome.mismatch(f"iteration {index} differs from iteration 0 "
                             f"on the same seed")


def pins_from(paper: Dict[str, Any], sweep: Dict[str, Any]) -> Dict[str, Any]:
    """The ``pins.json`` content for one default-seed paper and sweep record."""
    return {
        "seed": DEFAULT_SEED,
        "paper": paper,
        "sweep": [pin_row(row) for row in sweep["rows"]],
    }


def dumps_pins(pins: Dict[str, Any]) -> str:
    """``pins.json`` text with one line per pinned row, so that a re-pin
    diffs row by row."""
    def render(value: Any, depth: int) -> str:
        pad = " " * depth
        if isinstance(value, dict):
            items = [f"{pad} {json.dumps(key)}: {render(item, depth + 1)}"
                     for key, item in sorted(value.items())]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(value, list) and value and isinstance(value[0], list):
            rows = [f"{pad} {json.dumps(row, sort_keys=True)}" for row in value]
            return "[\n" + ",\n".join(rows) + f"\n{pad}]"
        return json.dumps(value, sort_keys=True)

    return render(pins, 0) + "\n"
