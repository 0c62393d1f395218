"""Bounded execution of mutants.

An injected fault can turn a terminating loop into an infinite one (replace
the loop cursor with an attribute that never advances).  The paper ran
mutants as separate programs, where a hang is observed externally;
in-process we bound each guarded call with a **loop-iteration budget**.

The budget is counted by the code itself (:mod:`repro.core.budget`): the
component modules, generated family sources and every mutant built to run
are compiled with a countdown at each loop back-edge and comprehension
iteration.  A guarded call loads its thread's budget cell, runs with no
tracer installed, and raises :class:`SandboxTimeout` once the call has
spent its iterations.  The budget is deterministic (same run → same
count), unlike wall-clock timeouts, so mutation scores are exactly
reproducible.

Code we did not compile has loops without a countdown: test-local
classes and user components.  For a class with such code in its methods
(its bytecode has more loops than countdowns) the guard falls back to
a ``sys.settrace`` hook that counts line events against the same budget,
chaining any outer trace hook.  The choice is made once per class
(:func:`~repro.core.budget.class_is_budgeted`); a guard built without a
class always takes the fallback.

Either way, a call that exhausts its budget ends as :class:`SandboxTimeout`
even if the code under test catches the timeout with ``except Exception``.

The guard plugs into :class:`~repro.harness.executor.TestExecutor` via its
``step_guard`` parameter: each constructor call, method call, invariant
check and teardown runs under its own fresh budget.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional

from ..core.budget import LOOP_BUDGET, LoopBudget, class_is_budgeted
from ..core.errors import SandboxTimeout

#: Default per-call budget, in loop iterations (line events on the
#: fallback path).  On the paper suites an unmutated subject call runs at
#: most 11 iterations; the longest *finite* call of any Table 2/3 mutant is
#: the final-state capture of a cyclic list, which stops at the reporter's
#: 10 000-node traversal cap (``CObList._TRAVERSAL_CAP``).  50k is 5× that,
#: cuts a runaway loop within milliseconds, and cuts every runaway mutant
#: of Tables 2 and 3 on the same case as the 50k line-event budget it
#: replaces (``tests/mutation/test_budget_differential.py``).
DEFAULT_STEP_BUDGET = 50_000

_TICK_CODE = LoopBudget.tick.__code__


class StepBudgetGuard:
    """A step guard enforcing a per-call loop budget.

    ``component_class`` is the class every guarded call runs on; when all
    of its loops are compiled with a countdown the guard needs no tracer.
    """

    def __init__(self, budget: int = DEFAULT_STEP_BUDGET,
                 component_class: Optional[type] = None):
        if budget < 1:
            raise ValueError("step budget must be positive")
        self.budget = budget
        self.timeouts = 0  # how many guarded calls were cut (observability)
        self.compiled = (component_class is not None
                         and class_is_budgeted(component_class))

    def __call__(self, function: Callable, *args: Any, **kwargs: Any) -> Any:
        if self.compiled:
            return self._compiled_call(function, args, kwargs)
        return self._traced_call(function, args, kwargs)

    def _timeout(self, function: Callable, unit: str) -> SandboxTimeout:
        self.timeouts += 1
        return SandboxTimeout(
            f"step budget of {self.budget} {unit} exhausted "
            f"in {getattr(function, '__name__', function)!r}"
        )

    def _compiled_call(self, function: Callable, args: tuple,
                       kwargs: dict) -> Any:
        cell = LOOP_BUDGET.cell
        saved = cell[0]
        cell[0] = self.budget
        try:
            result = function(*args, **kwargs)
        except Exception:
            if cell[0] >= 0:
                raise
        finally:
            exhausted = cell[0] < 0
            cell[0] = saved
        if exhausted:
            raise self._timeout(function, "loop iterations")
        return result

    def _traced_call(self, function: Callable, args: tuple,
                     kwargs: dict) -> Any:
        # The tracer runs once per traced event, so it is the hottest code
        # on this path.  Non-"line" events (call/return/exception) bail out
        # first, and the countdown lives in a closure cell so the common
        # path is one compare + one subtract.
        remaining = self.budget

        def count(frame, event, arg):  # noqa: ARG001 — sys.settrace API
            nonlocal remaining
            if event != "line":
                # Comprehension ticks are not lines of the code under test.
                return None if frame.f_code is _TICK_CODE else count
            remaining -= 1
            if remaining <= 0:
                # Raising unsets the hook; the guard reports the timeout
                # even if the code under test swallows this exception.
                raise SandboxTimeout("line budget exhausted")
            return count

        previous = sys.gettrace()
        sys.settrace(count if previous is None else _chain(previous, count))
        try:
            result = function(*args, **kwargs)
        except Exception:
            if remaining > 0:
                raise
        finally:
            sys.settrace(previous)
        if remaining <= 0:
            raise self._timeout(function, "line events")
        return result


def _chain(outer: Callable, inner: Callable) -> Callable:
    """A global trace hook feeding every event to ``outer`` then ``inner``.

    Each frame keeps the local hook each side returned for it, so an outer
    tool (a debugger, a coverage recorder) sees the events it asked for.
    """

    def local(outer_local: Optional[Callable],
              inner_local: Optional[Callable]) -> Callable:
        def hook(frame, event, arg):
            nonlocal outer_local, inner_local
            if outer_local is not None:
                outer_local = outer_local(frame, event, arg)
            if inner_local is not None:
                inner_local = inner_local(frame, event, arg)
            return hook
        return hook

    def hook(frame, event, arg):
        return local(outer(frame, event, arg), inner(frame, event, arg))

    return hook


class CallCountGuard:
    """A guard that only counts calls (used to measure suite cost in tests)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, function: Callable, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        return function(*args, **kwargs)
