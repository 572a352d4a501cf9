"""detlint: an AST linter for determinism bugs, tuned to this codebase.

The simulator's determinism contract (see :mod:`repro.sim.kernel`) has two
rules — all randomness from ``kernel.random``, all event ordering by
``(time, seq)`` — but the bugs that break it in practice are ordinary
Python idioms: iterating a ``set`` in a send loop, reading the wall clock,
instantiating a stray RNG.  Each detlint rule encodes one such bug class:

========  =================  ========  =============================================
code      slug               severity  catches
========  =================  ========  =============================================
DL001     set-iter-send      error     ``for x in <set>`` whose body sends/schedules
DL002     set-iter           warning   any other unsorted ``set`` iteration
DL003     wallclock          error     ``time.time``/``datetime.now``/... outside the
                                       bench/perf/sweep allowlist
DL004     unseeded-random    error     module-level ``random.*`` outside kernel/workloads
DL005     values-fanout      warning   dict ``.values()/.keys()/.items()`` fan-out in a
                                       send path (ordered only if insertion order is)
DL006     set-payload        error     a mutable ``set`` passed into a CapWord
                                       (message/dataclass) constructor
DL007     nondet-source      error     ``uuid.uuid4``, ``os.urandom``, ``os.getpid``,
                                       ``secrets``
DL008     id-hash-order      error     ``id()``/``hash()`` inside ``sorted``/``min``/
                                       ``max``/``.sort`` ordering
========  =================  ========  =============================================

Deliberate exemptions keep the signal high: iterating ``sorted(s)`` is
always fine; order-insensitive reductions over sets (``sum``/``any``/
``all``/``len``/``min``/``max``/``set``/``frozenset`` of a comprehension)
are fine; building a *set* from a set is fine.  Dict iteration is
insertion-ordered in Python and therefore deterministic **iff** insertion
order is — which is why DL005 is a warning demanding a proof (a
``# detlint: ignore[values-fanout]`` annotation stating the ordering
argument) or a ``sorted()``.

Suppression syntax is documented in :mod:`repro.analysis.findings`.
Everything here is stdlib-``ast``; no third-party dependencies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    Rule,
    is_suppressed,
    parse_suppressions,
)

_RULE_LIST = [
    Rule("DL001", "set-iter-send", SEVERITY_ERROR,
         "iteration over a set in a send/schedule path — order is "
         "PYTHONHASHSEED-dependent; iterate sorted(...) instead"),
    Rule("DL002", "set-iter", SEVERITY_WARNING,
         "unsorted iteration over a set — order is PYTHONHASHSEED-"
         "dependent; sort, or suppress if order provably cannot escape"),
    Rule("DL003", "wallclock", SEVERITY_ERROR,
         "wall-clock time source in simulated code — all time must come "
         "from kernel.now"),
    Rule("DL004", "unseeded-random", SEVERITY_ERROR,
         "module-level random usage — all randomness must come from "
         "kernel.random or an RNG seeded from it"),
    Rule("DL005", "values-fanout", SEVERITY_WARNING,
         "dict fan-out in a send path — deterministic only if insertion "
         "order is; sort, or annotate with the ordering argument"),
    Rule("DL006", "set-payload", SEVERITY_ERROR,
         "mutable set passed into a message/record constructor — its "
         "iteration order leaks hash order into the payload"),
    Rule("DL007", "nondet-source", SEVERITY_ERROR,
         "process-environment entropy source (uuid, os.urandom, "
         "os.getpid, secrets) in simulated code"),
    Rule("DL008", "id-hash-order", SEVERITY_ERROR,
         "id()/hash()-based ordering — both vary across processes"),
]

#: All rules, by code.
RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}
_BY_SLUG: Dict[str, Rule] = {rule.slug: rule for rule in _RULE_LIST}

#: Call names that send a message or schedule an event.  Tuned to this
#: codebase: Node.send/_send helpers, kernel scheduling, Raft propose.
SEND_NAMES = frozenset({
    "send", "_send", "schedule", "schedule_at", "set_timer", "propose",
    "broadcast", "enqueue", "dispatch",
})

#: Order-insensitive consumers: a comprehension that feeds one of these
#: cannot leak iteration order.
_REDUCTIONS = frozenset({
    "sum", "any", "all", "len", "min", "max", "sorted", "set",
    "frozenset",
})

_WALLCLOCK_ATTRS = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time",
             "process_time_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

_NONDET_CALLS = {
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("os", "urandom"), ("os", "getpid"),
}


@dataclass(frozen=True)
class LintConfig:
    """Path allowlists for the path-scoped rules.

    Fragments are matched against the POSIX form of the linted path, so
    ``"bench/"`` matches ``src/repro/bench/report.py``.
    """

    # perf/ is the benchmarking subsystem: timing the simulator with
    # time.perf_counter is its whole job, and its wall-clock numbers
    # never feed back into simulated behaviour (the deterministic op
    # counters cover that).  sweep/ measures and orchestrates sweeps
    # from outside the kernel (wall-clock stats, os.getpid for unique
    # temp-file names) and likewise never feeds anything back into a
    # simulation — every worker runs a fresh, fully-seeded kernel.
    # runtime/ is the asyncio/TCP
    # backend: the wall clock *is* its kernel.now and sockets are its
    # network, so time sources there are the design, not a leak — the
    # differential conformance harness (runtime/conformance.py) is what
    # keeps its behaviour honest against the DES.
    wallclock_allowed: Tuple[str, ...] = ("bench/", "perf/", "sweep/",
                                          "runtime/")
    # chaos/ generates nemesis schedules and workload plans from RNGs
    # string-seeded by the run seed before the simulation starts, the
    # same pattern as workloads/.  runtime/ string-seeds one RNG per
    # logical process (`Random(f"{proc}:{seed}")`) and its conformance
    # plans (`Random(f"conform:{seed}")`) the same way.
    random_allowed: Tuple[str, ...] = ("sim/kernel.py", "workloads/",
                                       "chaos/", "runtime/")


def _path_allowed(path: str, fragments: Sequence[str]) -> bool:
    posix = Path(path).as_posix()
    return any(frag in posix for frag in fragments)


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    """The dotted name chain of an Attribute/Name, e.g. ``a.b.c`` ->
    ``("a", "b", "c")``; empty when the chain roots in a non-name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return ()


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _contains_send(nodes: Iterable[ast.AST]) -> bool:
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and \
                    _call_name(node) in SEND_NAMES:
                return True
    return False


def _sorted_wrapped(expr: ast.AST) -> bool:
    """``sorted(...)`` — possibly through ``list()``/``tuple()``/
    ``reversed()`` — imposes a deterministic order."""
    if isinstance(expr, ast.Call):
        name = _call_name(expr)
        if name == "sorted":
            return True
        if name in {"list", "tuple", "reversed"} and len(expr.args) == 1:
            return _sorted_wrapped(expr.args[0])
    return False


def _annotation_setish(ann: Optional[ast.AST]) -> bool:
    if ann is None:
        return False
    try:
        text = ast.unparse(ann)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "Set[" in text or text in {"set", "Set", "frozenset",
                                      "FrozenSet"}


class _Scope:
    """Names bound to set-valued expressions within one function."""

    def __init__(self, inherited: Optional[Set[str]] = None):
        self.setish: Set[str] = set(inherited or ())


def _is_setish(expr: ast.AST, scope: _Scope) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = _call_name(expr)
        if name in {"set", "frozenset"}:
            return True
        if name in {"union", "intersection", "difference",
                    "symmetric_difference", "copy"} and \
                isinstance(expr.func, ast.Attribute) and \
                _is_setish(expr.func.value, scope):
            return True
        return False
    if isinstance(expr, ast.Name):
        return expr.id in scope.setish
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        return _is_setish(expr.left, scope) or \
            _is_setish(expr.right, scope)
    if isinstance(expr, ast.IfExp):
        return _is_setish(expr.body, scope) or \
            _is_setish(expr.orelse, scope)
    return False


def _collect_setish_names(fn: ast.AST, scope: _Scope) -> None:
    """Two-pass forward propagation of set-valued local assignments."""
    assigns: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns.append((target.id, node.value))
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            if _annotation_setish(node.annotation):
                scope.setish.add(node.target.id)
            elif node.value is not None:
                assigns.append((node.target.id, node.value))
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if _annotation_setish(arg.annotation):
                scope.setish.add(arg.arg)
    for _ in range(2):  # fixpoint for name -> name chains
        for name, value in assigns:
            if _is_setish(value, scope):
                scope.setish.add(name)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, config: LintConfig):
        self.path = path
        self.config = config
        self.findings: List[Finding] = []
        self._scopes: List[_Scope] = [_Scope()]
        #: Comprehension nodes feeding an order-insensitive reduction.
        self._exempt: Set[int] = set()

    # -- helpers --------------------------------------------------------
    @property
    def scope(self) -> _Scope:
        return self._scopes[-1]

    def _emit(self, rule: Rule, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message))

    # -- scoping --------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        scope = _Scope(inherited=self.scope.setish)
        _collect_setish_names(node, scope)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    # -- DL001 / DL002 / DL005: iteration order -------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.body + node.orelse,
                              is_loop=True)
        self.generic_visit(node)

    def _check_iteration(self, iter_expr: ast.AST,
                         body: Sequence[ast.AST], is_loop: bool) -> None:
        if _sorted_wrapped(iter_expr):
            return
        if _is_setish(iter_expr, self.scope):
            if is_loop and _contains_send(body):
                self._emit(RULES["DL001"], iter_expr,
                           "set iteration drives message sends; the send "
                           "order follows hash order — iterate "
                           "sorted(...) instead")
            else:
                self._emit(RULES["DL002"], iter_expr,
                           "set iteration order is hash-seed dependent; "
                           "sort, or suppress if order cannot escape")
            return
        # Unwrap order-preserving list()/tuple() copies (the common
        # "snapshot before mutating" idiom) before the dict-method check.
        while isinstance(iter_expr, ast.Call) and \
                _call_name(iter_expr) in {"list", "tuple"} and \
                len(iter_expr.args) == 1:
            iter_expr = iter_expr.args[0]
        if is_loop and isinstance(iter_expr, ast.Call) and \
                isinstance(iter_expr.func, ast.Attribute) and \
                iter_expr.func.attr in {"values", "keys", "items"} and \
                not iter_expr.args and _contains_send(body):
            self._emit(RULES["DL005"], iter_expr,
                       f"dict .{iter_expr.func.attr}() fan-out sends "
                       "messages; deterministic only if insertion order "
                       "is — sort, or annotate the ordering argument")

    def _visit_comprehension(self, node: ast.AST) -> None:
        if id(node) not in self._exempt and \
                not isinstance(node, ast.SetComp):
            for gen in node.generators:
                self._check_iteration(gen.iter, (), is_loop=False)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_SetComp = _visit_comprehension

    # -- attribute-rooted rules -----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _dotted(node)
        if len(chain) == 2 and chain[0] == "random" and \
                not _path_allowed(self.path, self.config.random_allowed):
            self._emit(RULES["DL004"], node,
                       f"random.{chain[1]} bypasses the kernel's seeded "
                       "RNG; draw from kernel.random instead")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        chain = _dotted(node.func)

        if name in _REDUCTIONS:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                    ast.SetComp, ast.DictComp)):
                    self._exempt.add(id(arg))

        tail = chain[-2:]
        if len(tail) == 2 and tail[0] in _WALLCLOCK_ATTRS and \
                tail[1] in _WALLCLOCK_ATTRS[tail[0]] and \
                not _path_allowed(self.path,
                                  self.config.wallclock_allowed):
            self._emit(RULES["DL003"], node,
                       f"{'.'.join(tail)}() reads the wall clock; "
                       "simulated code must use kernel.now")

        if (tail in _NONDET_CALLS or (chain and chain[0] == "secrets")) \
                and not _path_allowed(self.path,
                                      self.config.wallclock_allowed):
            self._emit(RULES["DL007"], node,
                       f"{'.'.join(chain)}() draws process-environment "
                       "entropy; runs can never be reproduced")

        if name in {"sorted", "min", "max"} or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and \
                        isinstance(sub.func, ast.Name) and \
                        sub.func.id in {"id", "hash"}:
                    self._emit(RULES["DL008"], sub,
                               f"{sub.func.id}() varies across "
                               "processes; order by a stable key")
            for kw in node.keywords:
                # key=id / key=hash passed as a bare function reference.
                if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                        and kw.value.id in {"id", "hash"}:
                    self._emit(RULES["DL008"], kw.value,
                               f"key={kw.value.id} varies across "
                               "processes; order by a stable key")

        if name is not None and name[:1].isupper() and \
                not name.isupper():
            payload_args = list(node.args) + \
                [kw.value for kw in node.keywords]
            for arg in payload_args:
                if isinstance(arg, (ast.Set, ast.SetComp)) or (
                        isinstance(arg, ast.Call)
                        and _call_name(arg) == "set") or (
                        isinstance(arg, ast.Name)
                        and arg.id in self.scope.setish):
                    self._emit(RULES["DL006"], arg,
                               f"mutable set passed to {name}(); its "
                               "iteration order leaks hash order — use "
                               "a sorted tuple or frozenset")

        self.generic_visit(node)

    # -- imports --------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and \
                not _path_allowed(self.path, self.config.random_allowed):
            self._emit(RULES["DL004"], node,
                       "importing from random invites unseeded draws; "
                       "route randomness through kernel.random")
        elif node.module == "time" and any(
                alias.name in _WALLCLOCK_ATTRS["time"]
                for alias in node.names) and \
                not _path_allowed(self.path,
                                  self.config.wallclock_allowed):
            self._emit(RULES["DL003"], node,
                       "importing wall-clock functions from time; "
                       "simulated code must use kernel.now")
        elif node.module == "secrets" and \
                not _path_allowed(self.path,
                                  self.config.wallclock_allowed):
            self._emit(RULES["DL007"], node,
                       "secrets draws process entropy; runs can never "
                       "be reproduced")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>",
                config: Optional[LintConfig] = None,
                keep_suppressed: bool = False) -> List[Finding]:
    """Lint one source text.  Returns findings, honoring ``# detlint:
    ignore`` suppressions unless ``keep_suppressed`` is set."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, config or LintConfig())
    linter.visit(tree)
    if keep_suppressed:
        return linter.findings
    suppressions = parse_suppressions(source)
    return [f for f in linter.findings
            if not is_suppressed(f, suppressions)]


def lint_file(path: str, config: Optional[LintConfig] = None,
              keep_suppressed: bool = False) -> List[Finding]:
    """Lint one file."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, path=str(path), config=config,
                       keep_suppressed=keep_suppressed)


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None,
               keep_suppressed: bool = False) -> List[Finding]:
    """Lint files and/or directory trees (recursing into ``*.py``)."""
    findings: List[Finding] = []
    for entry in paths:
        target = Path(entry)
        if target.is_dir():
            files = sorted(target.rglob("*.py"))
        else:
            files = [target]
        for file in files:
            findings.extend(lint_file(str(file), config=config,
                                      keep_suppressed=keep_suppressed))
    return findings
