"""Compiled loop budgets: the transform, the loader and the tracer-free guard.

Subjects live in a module written to ``tmp_path`` and imported with
:func:`repro.core.budget.load_budgeted_module`, exactly as generated family
sources are, so their loops carry the countdown.
"""

from __future__ import annotations

import ast
import gc
import importlib.util
import os
import py_compile
import sys
import textwrap
import threading

import pytest

from repro.components import (
    COMPONENTS,
    CObList,
    CSortableObList,
    OBLIST_TYPE_MODEL,
)
from repro.core import budget
from repro.core.budget import (
    BudgetedLoader,
    class_is_budgeted,
    compile_budgeted,
    load_budgeted_module,
)
from repro.core.errors import SandboxTimeout
from repro.generator.testcase import TestCase, TestStep
from repro.harness.executor import TestExecutor
from repro.harness.outcomes import Verdict
from repro.mutation.generate import generate_mutants
from repro.mutation.sandbox import StepBudgetGuard
from repro.tfm.transactions import Transaction

SUBJECT_SOURCE = textwrap.dedent('''
    """A loop-heavy subject for the guard tests."""

    import sys


    class Subject:
        """Every method either loops forever or reports on the guard."""

        def __init__(self):
            self.seen = []

        def spin(self):
            while True:
                self.seen.append(len(self.seen))

        def grow(self):
            items = [0]
            for item in items:
                items.append(item + 1)

        def grow_comprehension(self):
            items = [0]
            return [items.append(item + 1) for item in items]

        def swallow(self):
            try:
                while True:
                    pass
            except Exception:
                return "swallowed"

        def finite(self, rounds):
            total = 0
            for _ in range(rounds):
                total += 1
            return total

        def active_trace(self):
            return sys.gettrace()
''')


@pytest.fixture(scope="module")
def subject(tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "loop_budget_subject.py"
    path.write_text(SUBJECT_SOURCE, encoding="utf-8")
    module = load_budgeted_module("loop_budget_subject", path)
    yield module.Subject
    sys.modules.pop("loop_budget_subject", None)


def case(class_name: str, method: str) -> TestCase:
    return TestCase(
        ident="TC0",
        transaction=Transaction(("n1", "n2")),
        steps=(
            TestStep("m1", class_name, (), is_construction=True),
            TestStep("m2", method, ()),
        ),
        class_name=class_name,
    )


class TestGuardSelection:
    def test_compiled_subject_takes_the_compiled_path(self, subject):
        assert class_is_budgeted(subject)
        assert StepBudgetGuard(1_000, subject).compiled

    def test_shipped_components_are_compiled(self):
        for cls in COMPONENTS.values():
            assert class_is_budgeted(cls), cls
        assert isinstance(sys.modules[CObList.__module__].__loader__,
                          BudgetedLoader)

    def test_mutant_classes_are_compiled(self):
        mutants, _ = generate_mutants(
            CSortableObList, ["Sort1"], type_model=OBLIST_TYPE_MODEL
        )
        assert mutants
        for mutant in mutants[:10]:
            assert StepBudgetGuard(1_000, mutant.build_class()).compiled

    def test_test_local_loop_takes_the_fallback(self, subject):
        class Local(subject):
            def spin(self):
                while True:
                    pass

        assert not class_is_budgeted(Local)
        assert not StepBudgetGuard(1_000, Local).compiled

    def test_loop_free_test_local_class_needs_no_tracer(self, subject):
        class Plain(subject):
            def finite(self, rounds):
                return rounds

        assert StepBudgetGuard(1_000, Plain).compiled

    def test_guard_without_a_class_takes_the_fallback(self):
        assert not StepBudgetGuard(1_000).compiled


class TestCompiledGuard:
    def test_no_tracer_inside_a_guarded_call(self, subject):
        outside = sys.gettrace()
        guard = StepBudgetGuard(1_000, subject)
        assert guard(subject().active_trace) is outside is None

    def test_finite_work_passes_and_budget_is_per_call(self, subject):
        guard = StepBudgetGuard(200, subject)
        target = subject()
        for _ in range(5):
            assert guard(target.finite, 150) == 150
        assert guard.timeouts == 0

    def test_exact_deterministic_cut(self, subject):
        guard = StepBudgetGuard(500, subject)
        target = subject()
        with pytest.raises(SandboxTimeout, match="500 loop iterations"):
            guard(target.spin)
        assert len(target.seen) == 500
        assert guard.timeouts == 1

    def test_budget_restored_after_the_call(self, subject):
        cell = budget.LOOP_BUDGET.cell
        before = cell[0]
        guard = StepBudgetGuard(100, subject)
        with pytest.raises(SandboxTimeout):
            guard(subject().spin)
        assert cell[0] == before
        assert subject().finite(1_000) == 1_000  # unguarded: unlimited

    def test_for_loop_over_a_growing_list_is_cut(self, subject):
        with pytest.raises(SandboxTimeout):
            StepBudgetGuard(1_000, subject)(subject().grow)

    def test_comprehension_over_a_growing_list_is_cut(self, subject):
        with pytest.raises(SandboxTimeout):
            StepBudgetGuard(1_000, subject)(subject().grow_comprehension)

    def test_swallowed_timeout_still_ends_as_timeout(self, subject):
        guard = StepBudgetGuard(1_000, subject)
        with pytest.raises(SandboxTimeout):
            guard(subject().swallow)
        assert guard.timeouts == 1
        result = TestExecutor(
            subject, check_invariants=False,
            step_guard=StepBudgetGuard(1_000, subject),
        ).run_case(case("Subject", "swallow"))
        assert result.verdict is Verdict.TIMEOUT

    def test_concurrent_threads_cut_at_the_same_point(self, subject):
        # More threads than cores, switching often: a budget cell shared
        # between threads would cut some of them early.
        budget_size = 20_000
        names = ("a", "b", "c", "d")
        start = threading.Barrier(len(names))
        seen = {}

        def worker(name):
            target = subject()
            guard = StepBudgetGuard(budget_size, subject)
            start.wait()
            try:
                guard(target.spin)
            except SandboxTimeout:
                seen[name] = len(target.seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(name,))
                       for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {name: budget_size for name in names}


class TestTransform:
    def test_line_events_match_the_plain_compile(self):
        source = textwrap.dedent('''
            def work(n):
                """doc"""
                total = 0
                while total < n:
                    total += 1
                for item in range(n):
                    if item % 2:
                        continue
                    total += item
                return total
        ''')

        def line_events(code):
            namespace = {budget.BUDGET_NAME: budget.LOOP_BUDGET}
            exec(code, namespace)  # noqa: S102 — test fixture
            events = []

            def tracer(frame, event, arg):
                if frame.f_code.co_name == "work" and event == "line":
                    events.append(frame.f_lineno)
                return tracer

            sys.settrace(tracer)
            try:
                result = namespace["work"](6)
            finally:
                sys.settrace(None)
            return result, events

        plain = line_events(compile(source, "<plain>", "exec"))
        budgeted = line_events(compile_budgeted(source, "<budgeted>"))
        assert budgeted == plain

    def test_fallback_counts_the_lines_of_the_plain_compile(self):
        # The settrace fallback must cut instrumented code exactly where it
        # cuts the plain code, comprehension ticks included.
        source = textwrap.dedent('''
            def work(n):
                total = sum([item for item in range(n) if item % 3])
                while n:
                    n -= 1
                return total
        ''')

        def cut_points(code):
            namespace = {budget.BUDGET_NAME: budget.LOOP_BUDGET}
            exec(code, namespace)  # noqa: S102 — test fixture
            points = []
            # Python code run by the garbage collector (weakref callbacks)
            # inside a traced call would count as lines too.
            collecting = gc.isenabled()
            gc.disable()
            try:
                for size in range(1, 80):
                    try:
                        StepBudgetGuard(size)(namespace["work"], 12)
                    except SandboxTimeout:
                        points.append(size)
            finally:
                if collecting:
                    gc.enable()
            return points

        plain = cut_points(compile(source, "<plain>", "exec"))
        assert plain and plain != list(range(1, 80))
        assert cut_points(compile_budgeted(source, "<budgeted>")) == plain

    def test_docstrings_survive(self, subject):
        assert subject.__doc__.startswith("Every method")
        assert sys.modules[subject.__module__].__doc__.startswith("A loop")


class TestBytecodeCache:
    def module_file(self, tmp_path, body="def f():\n    return 1\n"):
        path = tmp_path / "cached_subject.py"
        path.write_text(body, encoding="utf-8")
        return path

    def load(self, path):
        try:
            return load_budgeted_module("cached_subject", path)
        finally:
            sys.modules.pop("cached_subject", None)

    def cache_of(self, path):
        return importlib.util.cache_from_source(str(path),
                                                optimization="loopbudget")

    def test_instrumented_bytecode_is_cached_and_reused(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = self.module_file(tmp_path, "def f(n):\n    while n:\n"
                                          "        n -= 1\n    return n\n")
        assert self.load(path).f(3) == 0
        with open(self.cache_of(path), "rb") as stream:
            assert stream.read(4) == importlib.util.MAGIC_NUMBER

        def no_compile(*args, **kwargs):
            raise AssertionError("the cached bytecode should be used")

        with monkeypatch.context() as patch:
            patch.setattr(budget, "compile_budgeted", no_compile)
            module = self.load(path)
        assert module.f(3) == 0
        assert budget.code_is_budgeted(module.f.__code__)

    def test_standard_slot_is_never_read_or_written(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = self.module_file(tmp_path, "def f(n):\n    while n:\n"
                                          "        n -= 1\n    return n\n")
        standard = importlib.util.cache_from_source(str(path))
        py_compile.compile(str(path), cfile=standard, doraise=True)
        with open(standard, "rb") as stream:
            plain = stream.read()
        module = self.load(path)
        assert budget.code_is_budgeted(module.f.__code__)
        with open(standard, "rb") as stream:
            assert stream.read() == plain

    def test_edited_source_recompiles(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = self.module_file(tmp_path)
        assert self.load(path).f() == 1
        path.write_text("def f():\n    return 2\n", encoding="utf-8")
        assert self.load(path).f() == 2

    def test_damaged_cache_recompiles(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = self.module_file(tmp_path)
        self.load(path)
        with open(self.cache_of(path), "r+b") as stream:
            stream.seek(-4, 2)
            stream.write(b"\xff\xff\xff\xff")
        assert self.load(path).f() == 1

    def test_nothing_written_when_bytecode_writing_is_off(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = self.module_file(tmp_path)
        assert self.load(path).f() == 1
        assert not os.path.exists(os.path.dirname(self.cache_of(path)))


def budgeted_function(source: str, name: str = "work",
                      strip=lambda tree: None):
    """Compile ``source`` with the pass, let ``strip`` edit the tree, and
    return the code of function ``name``."""
    tree = budget.budget_tree(ast.parse(textwrap.dedent(source)))
    strip(tree)
    code = compile(tree, "<budgeted>", "exec")
    return next(const for const in code.co_consts
                if getattr(const, "co_name", "") == name)


def drop_countdown(loop_type):
    """A ``strip`` that removes the countdown of the first ``loop_type``."""
    def strip(tree):
        loop = next(node for node in ast.walk(tree)
                    if isinstance(node, loop_type))
        del loop.body[:2]
    return strip


class TestCountdownCheck:
    def test_loops_with_continue_are_counted(self):
        code = budgeted_function('''
            def work(n, items):
                while n:
                    n -= 1
                    if n % 2:
                        continue
                    try:
                        if n == 3:
                            continue
                    except ValueError:
                        continue
                for item in items:
                    if item:
                        continue
                    while item < 3:
                        item += 1
                        if item == 2:
                            continue
                return n
        ''')
        assert budget.code_is_budgeted(code)

    def test_one_uncounted_loop_beside_a_counted_one_is_caught(self):
        source = '''
            def work(n, items):
                while n:
                    n -= 1
                for item in items:
                    pass
                return n
        '''
        assert budget.code_is_budgeted(budgeted_function(source))
        assert not budget.code_is_budgeted(
            budgeted_function(source, strip=drop_countdown(ast.For))
        )

    def test_uncounted_loop_around_a_counted_one_is_caught(self):
        source = '''
            def work(n, items):
                while n:
                    for item in items:
                        pass
                return n
        '''
        assert budget.code_is_budgeted(budgeted_function(source))
        assert not budget.code_is_budgeted(
            budgeted_function(source, strip=drop_countdown(ast.While))
        )

    def test_loop_in_a_class_body_inside_a_function_is_caught(self):
        assert not budget.code_is_budgeted(budgeted_function('''
            def work():
                class Local:
                    for item in range(3):
                        pass
                return Local
        '''))

    def test_form_feed_before_a_loop(self):
        # str.splitlines() would see one line more than the tokenizer.
        source = "def work(n):\n\f\n    x = 0\n    while n: n -= 1\n" \
                 "    return [n for n in range(x)]\n"
        code = budgeted_function(source)
        assert budget.code_is_budgeted(code)
        namespace = {budget.BUDGET_NAME: budget.LOOP_BUDGET}
        exec(compile_budgeted(source, "<ff>"), namespace)  # noqa: S102
        cell = budget.LOOP_BUDGET.cell
        saved, cell[0] = cell[0], 10
        try:
            with pytest.raises(SandboxTimeout):
                namespace["work"](20)
        finally:
            cell[0] = saved


def test_comprehension_in_a_decorator_is_counted():
    source = textwrap.dedent('''
        def tag(values):
            def wrap(function):
                function.values = values
                return function
            return wrap


        @tag([item for item in range(3)])
        def plain():
            return 1
    ''')
    code = compile_budgeted(source, "<decorated>")
    comprehension = next(
        const for const in code.co_consts
        if getattr(const, "co_name", "") == "<listcomp>"
    )
    assert budget.BUDGET_NAME in comprehension.co_names
