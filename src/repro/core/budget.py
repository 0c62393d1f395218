"""Compiled loop budgets: a deterministic bound on Python loops, no tracer.

A fault injected into a loop can make it spin forever.  The paper ran each
mutant as a separate program and watched for hangs from outside; in-process
we bound every guarded call instead.  A Python call can only run unbounded
through a loop (recursion ends in ``RecursionError``), so an AST pass over
the code we compile inserts a countdown at every loop back-edge:

* a function containing a ``while``/``for`` fetches this thread's budget
  cell once on entry (``__loop_budget_cell__ = __loop_budget__.cell``);
* the first statement of every loop body decrements it and calls
  :meth:`LoopBudget.exhausted` once it goes negative;
* every comprehension clause gets a leading ``if __loop_budget__.tick()``
  (comprehensions have no statements to host the countdown).

Outside a guarded call the cell holds :data:`UNLIMITED`, so instrumented
code behaves exactly like the original.
:class:`~repro.mutation.sandbox.StepBudgetGuard` loads the cell with its
budget for the length of one call and restores it afterwards.  The cell is
per thread, because service jobs and ``--inflight`` sweeps run serial
engines in threads.

The inserted statements carry the line number of the statement they
precede, so line-event tracers (the sandbox's ``settrace`` fallback,
coverage tools, debuggers) see the same line events as in the original
source.

:func:`compile_budgeted` compiles source with the pass.
:func:`install_budgeted_package` makes a package's submodules import
through :class:`BudgetedLoader`, which caches the instrumented bytecode
next to the standard ``.pyc`` under its own tag, so instrumentation costs
nothing after the first import.  :func:`code_is_budgeted` tells whether
all of a code object's loops are counted, by comparing its loops with its
countdowns in the bytecode.
"""

from __future__ import annotations

import ast
import dis
import importlib.machinery
import importlib.util
import marshal
import os
import sys
import threading
import types
import weakref
from typing import Any, Iterable, List, Optional, Union

from .errors import SandboxTimeout

#: The global every instrumented module and mutant namespace binds to
#: :data:`LOOP_BUDGET`; each countdown loads it.
BUDGET_NAME = "__loop_budget__"

#: The local an instrumented function keeps its thread's cell in.
CELL_NAME = "__loop_budget_cell__"

#: The countdown outside any guarded call: never reached in practice.
UNLIMITED = sys.maxsize

#: Bumped whenever the inserted code changes; part of the bytecode cache key.
TRANSFORM_VERSION = 1


class LoopBudget(threading.local):
    """Per-thread budget cell: ``cell[0]`` is the iterations left."""

    def __init__(self) -> None:
        self.cell = [UNLIMITED]

    def tick(self) -> bool:
        """Count one comprehension iteration (always true when it returns)."""
        cell = self.cell
        cell[0] -= 1
        if cell[0] < 0:
            self.exhausted()
        return True

    @staticmethod
    def exhausted() -> None:
        raise SandboxTimeout("loop budget exhausted")


#: The process-wide budget; each thread sees its own cell.
LOOP_BUDGET = LoopBudget()


# ---------------------------------------------------------------------------
# The AST pass
# ---------------------------------------------------------------------------


def _location(anchor: ast.AST) -> dict:
    """The anchor's line for inserted nodes: placed on the line of the
    statement they precede, they fire no line events of their own."""
    return {"lineno": anchor.lineno, "col_offset": anchor.col_offset,
            "end_lineno": anchor.lineno, "end_col_offset": anchor.col_offset}


def _load(name: str, at: dict) -> ast.expr:
    return ast.Name(id=name, ctx=ast.Load(), **at)


def _call(method: str, at: dict) -> ast.expr:
    """``__loop_budget__.<method>()``"""
    function = ast.Attribute(value=_load(BUDGET_NAME, at), attr=method,
                             ctx=ast.Load(), **at)
    return ast.Call(func=function, args=[], keywords=[], **at)


def _cell_slot(ctx: ast.expr_context, at: dict) -> ast.Subscript:
    return ast.Subscript(value=_load(CELL_NAME, at),
                         slice=ast.Constant(0, **at), ctx=ctx, **at)


def _prologue(at: dict) -> ast.stmt:
    """``__loop_budget_cell__ = __loop_budget__.cell``"""
    cell = ast.Attribute(value=_load(BUDGET_NAME, at), attr="cell",
                         ctx=ast.Load(), **at)
    return ast.Assign(targets=[ast.Name(id=CELL_NAME, ctx=ast.Store(), **at)],
                      value=cell, **at)


def _countdown(at: dict) -> list:
    """``cell[0] -= 1`` and ``if cell[0] < 0: __loop_budget__.exhausted()``."""
    return [
        ast.AugAssign(target=_cell_slot(ast.Store(), at), op=ast.Sub(),
                      value=ast.Constant(1, **at), **at),
        ast.If(
            test=ast.Compare(left=_cell_slot(ast.Load(), at), ops=[ast.Lt()],
                             comparators=[ast.Constant(0, **at)], **at),
            body=[ast.Expr(_call("exhausted", at), **at)],
            orelse=[], **at,
        ),
    ]


class _BudgetTransformer(ast.NodeVisitor):
    """Inserts the countdown into loops of functions and comprehensions,
    editing the tree in place."""

    def __init__(self) -> None:
        #: Per enclosing scope: None outside functions, else whether the
        #: function has a loop of its own so far.
        self._scopes: List[Optional[bool]] = [None]

    def _scope(self, node, scope: Optional[bool]) -> Optional[bool]:
        """Visit ``node``'s children in a new scope; return its final state."""
        self._scopes.append(scope)
        try:
            self.generic_visit(node)
        finally:
            scope = self._scopes.pop()
        return scope

    def _function(self, node):
        if self._scope(node, False):
            body = node.body
            start = 1 if (body and isinstance(body[0], ast.Expr)
                          and isinstance(body[0].value, ast.Constant)
                          and isinstance(body[0].value.value, str)) else 0
            body.insert(start, _prologue(_location(body[start])))

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function

    def visit_Lambda(self, node):
        self._scope(node, False)  # expressions only: no statement loops

    def visit_ClassDef(self, node):
        self._scope(node, None)

    def _loop(self, node):
        self.generic_visit(node)
        if self._scopes[-1] is not None:
            self._scopes[-1] = True
            # On the first body line: a back-edge lands there and fires
            # the same line event it fires without the countdown.
            node.body[:0] = _countdown(_location(node.body[0]))

    visit_While = _loop
    visit_For = _loop
    visit_AsyncFor = _loop

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs.insert(0, _call("tick", _location(node.target)))


def budget_tree(tree: ast.AST) -> ast.AST:
    """Instrument a parsed module in place (and return it)."""
    _BudgetTransformer().visit(tree)
    return tree


def compile_budgeted(source: Union[str, bytes],
                     filename: str) -> types.CodeType:
    """Compile module source with loop budgets (no future flags inherited)."""
    text = (importlib.util.decode_source(source)
            if isinstance(source, bytes) else source)
    tree = budget_tree(ast.parse(text, filename=filename))
    return compile(tree, filename, "exec", dont_inherit=True)


# ---------------------------------------------------------------------------
# Recognizing budgeted code
# ---------------------------------------------------------------------------

_JUMPS = frozenset(dis.hasjrel) | frozenset(dis.hasjabs)

#: Closes ``yield from``/``await`` resume loops, which are not source loops.
_RESUME_JUMP = dis.opmap.get("JUMP_BACKWARD_NO_INTERRUPT")

#: The back-edge opcodes, where the interpreter has dedicated ones (3.11+).
_BACKWARD_OPS = frozenset(
    code for name, code in dis.opmap.items()
    if "BACKWARD" in name and code != _RESUME_JUMP
)

#: The attributes a countdown calls: one load per counted loop.
_COUNTDOWN_CALLS = frozenset({"exhausted", "tick"})

#: code object -> are all its loops counted (weak: mutant code dies freely).
_BUDGETED_CODE: "weakref.WeakKeyDictionary[types.CodeType, bool]" = (
    weakref.WeakKeyDictionary()
)
_CODE_LOCK = threading.Lock()


def _loop_count(instructions: List[dis.Instruction]) -> int:
    """How many loops the bytecode has.

    A back-edge is a jump to an earlier offset.  The back-edges of one loop
    share their target (``continue`` in a ``for``) or cross each other
    (``continue`` in a ``while`` jumps to the test, the bottom of the body
    to the body); the back-edges of different loops nest or are disjoint.
    A compiler layout that makes one loop look like two only sends its
    class to the tracer fallback.
    """
    edges = [(instruction.argval, instruction.offset)
             for instruction in instructions
             if instruction.opcode in _JUMPS
             and instruction.opcode != _RESUME_JUMP
             and isinstance(instruction.argval, int)
             and instruction.argval <= instruction.offset]
    loop = list(range(len(edges)))  # union-find over the back-edges

    def root(index: int) -> int:
        while loop[index] != index:
            index = loop[index]
        return index

    for first, (target, source) in enumerate(edges):
        for second, (other_target, other_source) in enumerate(edges[:first]):
            if (target == other_target
                    or target < other_target <= source < other_source
                    or other_target < target <= other_source < source):
                loop[root(first)] = root(second)
    return len({root(index) for index in range(len(edges))})


def _countdown_count(instructions: List[dis.Instruction]) -> int:
    """How many countdowns the pass put into the bytecode."""
    return sum(
        1 for load, call in zip(instructions, instructions[1:])
        if load.opname == "LOAD_GLOBAL" and load.argval == BUDGET_NAME
        and call.argval in _COUNTDOWN_CALLS
    )


def code_is_budgeted(code: types.CodeType) -> bool:
    """True when every loop in ``code`` (nested code included) is counted:
    its bytecode has at least as many countdowns as loops.

    Loop-free code needs no budget and counts as budgeted.  The answer is
    memoized per code object.
    """
    with _CODE_LOCK:
        known = _BUDGETED_CODE.get(code)
    if known is None:
        if BUDGET_NAME not in code.co_names and _BACKWARD_OPS:
            # No countdown at all (plain code): budgeted only if loop-free,
            # which the opcodes alone tell without decoding.
            own = _BACKWARD_OPS.isdisjoint(code.co_code[::2])
        else:
            instructions = list(dis.get_instructions(code))
            own = _loop_count(instructions) <= _countdown_count(instructions)
        known = (own
                 and all(code_is_budgeted(const)
                         for const in code.co_consts
                         if isinstance(const, types.CodeType)))
        with _CODE_LOCK:
            _BUDGETED_CODE[code] = known
    return known


def _functions(value: Any) -> Iterable[types.FunctionType]:
    """The Python functions a class attribute runs (wrapped ones too)."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        for accessor in (value.fget, value.fset, value.fdel):
            yield from _functions(accessor)
        return
    while isinstance(value, types.FunctionType):
        yield value
        value = getattr(value, "__wrapped__", None)


def _own_code_is_budgeted(cls: type) -> bool:
    return all(
        code_is_budgeted(function.__code__)
        for value in vars(cls).values()
        for function in _functions(value)
    )


_BUDGETED_CLASS: "weakref.WeakKeyDictionary[type, bool]" = (
    weakref.WeakKeyDictionary()
)


def class_is_budgeted(cls: type) -> bool:
    """True when every loop in the methods of ``cls`` and its bases is
    counted, so a guarded call on it needs no tracer.  Memoized per class.
    """
    with _CODE_LOCK:
        known = _BUDGETED_CLASS.get(cls)
    if known is None:
        known = _own_code_is_budgeted(cls) and all(
            class_is_budgeted(base) for base in cls.__bases__
        )
        with _CODE_LOCK:
            _BUDGETED_CLASS[cls] = known
    return known


# ---------------------------------------------------------------------------
# Importing instrumented modules
# ---------------------------------------------------------------------------


class BudgetedLoader(importlib.machinery.SourceFileLoader):
    """Source loader that compiles with loop budgets.

    The instrumented bytecode is cached beside the standard ``.pyc`` under
    the ``opt-loopbudget`` tag, never in the standard slot: the plain
    loader must not run instrumented code (its module would lack
    ``__loop_budget__``), and this loader must not run plain code (its
    loops would take the tracer fallback).  The cache is keyed by the
    source hash, :data:`TRANSFORM_VERSION` and the optimization level.
    """

    def get_code(self, fullname: str) -> types.CodeType:
        path = self.get_filename(fullname)
        source = self.get_data(path)
        try:
            cache = importlib.util.cache_from_source(
                path, optimization="loopbudget"
            )
        except NotImplementedError:  # sys.implementation.cache_tag is None
            return compile_budgeted(source, path)
        key = (importlib.util.MAGIC_NUMBER
               + bytes([TRANSFORM_VERSION, sys.flags.optimize])
               + importlib.util.source_hash(source))
        try:
            with open(cache, "rb") as stream:
                cached = stream.read()
            if cached.startswith(key):
                return marshal.loads(cached[len(key):])
        except (OSError, EOFError, ValueError, TypeError):
            pass  # missing or damaged: recompile and overwrite
        code = compile_budgeted(source, path)
        if not sys.dont_write_bytecode:
            self.set_data(cache, key + marshal.dumps(code))  # best effort
        return code

    def exec_module(self, module: types.ModuleType) -> None:
        module.__dict__[BUDGET_NAME] = LOOP_BUDGET
        super().exec_module(module)


def install_budgeted_package(search_path: Iterable[str]) -> None:
    """Import every later-loaded submodule of a package with loop budgets.

    Pass the package's ``__path__``.  Each directory gets a file finder that
    hands ``.py`` sources to :class:`BudgetedLoader`; nothing outside those
    directories is affected.
    """
    for directory in search_path:
        sys.path_importer_cache[directory] = importlib.machinery.FileFinder(
            directory,
            (BudgetedLoader, list(importlib.machinery.SOURCE_SUFFIXES)),
        )


def load_budgeted_module(name: str, path: Union[str, os.PathLike]) -> Any:
    """Import the module file at ``path`` as ``name``, with loop budgets.

    The module is registered in ``sys.modules`` before it executes (and
    removed again if executing it fails).
    """
    location = os.fspath(path)
    loader = BudgetedLoader(name, location)
    spec = importlib.util.spec_from_file_location(name, location,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module
