"""Coverage-guided mutant×case pruning: who can possibly kill whom.

A mutant injected into method ``m`` differs from the original class in
``m``'s body and nowhere else.  A test case whose execution never enters
``m`` therefore runs **byte-identical code** on the mutant and on the
original — it deterministically replays the reference outcome and cannot
kill.  The paper's evaluation (sec. 4) runs every suite case over every
mutant anyway; this module records which CUT methods each case *actually*
executes — once, during the reference run — so the analysis engines can
skip the provably irrelevant (mutant, case) pairs while producing verdicts
bit-identical to the exhaustive run.

Coverage is **dynamic**, not static: the recorder is a ``sys.setprofile``
hook installed around each case by :class:`~repro.harness.executor.\
TestExecutor`'s ``case_tracer`` seam, mapping every entered frame back to a
CUT method by code object.  That makes indirect intra-class calls visible —
``Sort1`` calling ``IsSorted`` through a postcondition check marks
``IsSorted`` covered even though no test step names it — which is exactly
what the soundness argument needs (a case is skipped only when the mutated
method's code never ran, directly *or* transitively).  Static step
inspection would miss those edges and prune unsoundly.

The recorded :class:`CoverageMatrix` is pure data (case ident → frozen set
of method names): it pickles to parallel workers, and its content
fingerprint feeds the outcome-cache experiment key so pruned and unpruned
entries can never cross-contaminate.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..core.fingerprint import canonical, sha256_hex

if TYPE_CHECKING:  # imported lazily to keep coverage <- harness acyclic
    from ..generator.suite import TestSuite
    from ..generator.testcase import TestCase
    from ..harness.outcomes import SuiteResult


def _method_code_map(cut_class: type) -> Dict[object, str]:
    """Code object → method name, over the whole MRO of the class.

    Walking the MRO matters for experiment 2: the reference run executes
    ``CSortableObList``, but the mutants live in inherited ``CObList``
    methods, whose frames carry the base class's code objects.  Properties
    and static/class methods are unwrapped so their bodies map too.  When
    several classes define the same method name the *name* is what
    coverage records — pruning keys on the mutant's ``method_name``, so a
    subclass override executing still (conservatively) marks the name
    covered.
    """
    mapping: Dict[object, str] = {}
    for klass in cut_class.__mro__:
        if klass is object:
            continue
        for name, attribute in vars(klass).items():
            if isinstance(attribute, property):
                functions = (attribute.fget, attribute.fset, attribute.fdel)
            elif isinstance(attribute, (staticmethod, classmethod)):
                functions = (attribute.__func__,)
            else:
                functions = (attribute,)
            for function in functions:
                code = getattr(function, "__code__", None)
                if code is not None:
                    mapping.setdefault(code, name)
    return mapping


@dataclass(frozen=True)
class CoverageMatrix:
    """Per test case, the CUT methods its reference run dynamically executed.

    Pure value object: picklable to workers, canonicalisable for the
    outcome-cache fingerprint.  ``covers`` errs on the safe side — a case
    the matrix has never seen is reported as covering everything, so it is
    executed rather than skipped.
    """

    class_name: str
    methods_by_case: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    def covers(self, case_ident: str, method_name: str) -> bool:
        """May this case's execution reach ``method_name``?

        ``True`` for unknown cases (never recorded → never prune them);
        ``False`` only when the case was recorded and the method's code
        provably did not run.
        """
        covered = self.methods_by_case.get(case_ident)
        if covered is None:
            return True
        return method_name in covered

    def cases_covering(self, method_name: str) -> Tuple[str, ...]:
        return tuple(
            ident for ident, covered in self.methods_by_case.items()
            if method_name in covered
        )

    def methods_of(self, case_ident: str) -> FrozenSet[str]:
        return self.methods_by_case.get(case_ident, frozenset())

    def fingerprint(self) -> str:
        """Content hash — part of the outcome-cache experiment key, so a
        pruned entry can only ever be replayed under the exact matrix that
        justified its skips."""
        return sha256_hex("coverage-matrix", canonical(self))

    def density(self, method_name: str) -> float:
        """Fraction of recorded cases covering the method (observability)."""
        if not self.methods_by_case:
            return 1.0
        return len(self.cases_covering(method_name)) / len(self.methods_by_case)

    def __len__(self) -> int:
        return len(self.methods_by_case)


class MethodCoverageTracer:
    """Records a :class:`CoverageMatrix` through the executor's case seam.

    Pass :meth:`tracing` as ``TestExecutor(case_tracer=…)``: around each
    complete case the tracer installs a ``sys.setprofile`` hook that maps
    every Python ``call`` event back to a CUT method via the code-object
    table.  The profile hook only *observes* — the reference results are
    bit-identical to an untraced run — and it sees every activation in the
    case's dynamic extent: direct test steps, intra-class sibling calls,
    invariant checks, teardown, and final-state capture.

    Outer tools keep working: a Python-level profile hook is chained, not
    replaced, and under a C-level profiler such as ``cProfile`` (whose hook
    cannot be reinstalled from Python) the calls are recorded through
    ``sys.settrace`` instead, chaining any outer trace hook.
    """

    def __init__(self, cut_class: type):
        self._class_name = cut_class.__name__
        self._method_by_code = _method_code_map(cut_class)
        self._covered: Dict[str, Set[str]] = {}

    @contextmanager
    def tracing(self, case: "TestCase") -> Iterator[None]:
        hit = self._covered.setdefault(case.ident, set())
        method_by_code = self._method_by_code
        previous = sys.getprofile()
        if previous is not None and not callable(previous):
            # A C-level profiler (cProfile) holds the profile hook; it cannot
            # be called or reinstalled from Python, so leave it alone and
            # observe calls through the trace hook instead.
            with _tracing_calls(method_by_code, hit):
                yield
            return

        def profiler(frame, event, arg):
            if previous is not None:
                previous(frame, event, arg)
            if event == "call":
                name = method_by_code.get(frame.f_code)
                if name is not None:
                    hit.add(name)

        sys.setprofile(profiler)
        try:
            yield
        finally:
            sys.setprofile(previous)

    def matrix(self) -> CoverageMatrix:
        return CoverageMatrix(
            class_name=self._class_name,
            methods_by_case={
                ident: frozenset(methods)
                for ident, methods in self._covered.items()
            },
        )


@contextmanager
def _tracing_calls(method_by_code: Mapping, hit: Set[str]) -> Iterator[None]:
    """Record entered CUT methods through ``sys.settrace`` ``call`` events,
    chaining any outer trace hook (whose per-frame hooks are kept)."""
    outer = sys.gettrace()

    def tracer(frame, event, arg):
        name = method_by_code.get(frame.f_code)
        if name is not None:
            hit.add(name)
        return outer(frame, event, arg) if outer is not None else None

    sys.settrace(tracer)
    try:
        yield
    finally:
        sys.settrace(outer)


def record_coverage(cut_class: type, suite: "TestSuite",
                    check_invariants: bool = True,
                    setup: Optional[Callable[[], None]] = None,
                    telemetry=None,
                    ) -> Tuple["SuiteResult", CoverageMatrix]:
    """One instrumented pass: the reference results *and* their coverage.

    This is the single extra-cost operation of pruning — the suite runs
    once on the original class under the profile hook, yielding both the
    golden :class:`~repro.harness.outcomes.SuiteResult` the oracles judge
    against and the matrix that licenses every later skip.  ``telemetry``
    (a :class:`repro.obs.Telemetry`) gives the pass per-case timing spans;
    observation only.
    """
    from ..harness.executor import TestExecutor

    if setup is not None:
        setup()
    tracer = MethodCoverageTracer(cut_class)
    executor = TestExecutor(
        cut_class,
        check_invariants=check_invariants,
        case_tracer=tracer.tracing,
        telemetry=telemetry,
    )
    reference = executor.run_suite(suite)
    return reference, tracer.matrix()
