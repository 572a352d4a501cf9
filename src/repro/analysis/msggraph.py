"""Static extraction of the protocol message graph.

protolint's world model.  One pass over the protocol packages' ASTs
produces a :class:`MessageGraph`: every ``Message`` subclass (and every
other dataclass, for constructor checking), every send site, every
construction site, every handler-table entry, and a per-protocol function
map for reachability closures.

The extractor is deliberately syntactic — no imports are executed, no
types are inferred.  It leans on this codebase's idioms instead:

* messages go on the wire through calls named ``send``/``_send`` whose
  second argument is (or was assigned from) a message constructor;
* a receiving class declares what it handles in class-level dict literals
  named ``*HANDLERS`` (``{MessageType: "method_name"}``), the tables
  :meth:`repro.sim.node.Node.dispatch` runs — so the graph reads
  dispatch rather than inferring it.

Everything here is stdlib-``ast``; no third-party dependencies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: Call names that put a message on the wire.
SEND_NAMES = frozenset({"send", "_send"})

#: Attribute-call names that mutate per-transaction state (for the
#: idempotence rule); plain subscript stores are deliberately excluded —
#: they are dominated by writes to handler-local dicts.
MUTATION_CALLS = frozenset({"append", "add", "propose"})

#: Path fragment -> protocol name (first match wins).
PROTOCOL_FRAGMENTS = (
    ("core/", "carousel"),
    ("layered/", "layered"),
    ("tapir/", "tapir"),
    ("raft/", "raft"),
)


def protocol_of(path: str) -> str:
    """The protocol a file belongs to, from its path."""
    posix = Path(path).as_posix()
    for fragment, name in PROTOCOL_FRAGMENTS:
        if fragment in posix:
            return name
    return "misc"


# ---------------------------------------------------------------------------
# Graph node types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDef:
    """One dataclass field: its name and whether it has a default."""

    name: str
    has_default: bool


@dataclass(frozen=True)
class MessageDef:
    """One message (or record) dataclass definition."""

    name: str
    path: str
    line: int
    protocol: str
    fields: Tuple[FieldDef, ...]
    #: True for ``Message`` subclasses (wire messages); False for other
    #: dataclasses (replicated records, config, bookkeeping).
    is_message: bool

    def required_fields(self) -> Tuple[str, ...]:
        """Names of fields without defaults, in declaration order."""
        return tuple(f.name for f in self.fields if not f.has_default)


@dataclass(frozen=True)
class SendSite:
    """One ``send(dst, Msg(...))`` call."""

    msg_type: str
    path: str
    line: int
    col: int
    cls: Optional[str]
    func: Optional[str]


@dataclass
class ConstructSite:
    """One constructor call of a known message/record dataclass."""

    msg_type: str
    path: str
    line: int
    col: int
    cls: Optional[str]
    func: Optional[str]
    kwargs: Tuple[str, ...]
    n_pos: int
    #: ``*args``/``**kwargs`` present — field checking is impossible.
    has_star: bool
    #: This construction (or the variable it was bound to) reached a send.
    sent: bool = False


@dataclass(frozen=True)
class HandlerBranch:
    """One handler-table entry: ``cls.<table>[msg_type] = target``."""

    msg_type: str
    path: str
    line: int
    cls: str
    #: The ``*HANDLERS`` table declaring the entry.
    table: str
    #: Name of the method that handles the message.
    target: str


@dataclass
class FuncInfo:
    """Aggregate facts about one (protocol, function-name) unit.

    Facts from same-named functions in the same protocol are unioned —
    reachability closures over-approximate, which is the safe direction
    for existence checks ("some reply is sent", "some guard exists").
    """

    name: str
    protocol: str
    sends: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    #: Duplicate-delivery guards: ``in``/``not in`` membership tests,
    #: ``.setdefault(...)``, comparisons against ``.get(...)``.
    guard_sites: List[Tuple[str, int]] = field(default_factory=list)
    #: Per-txn state mutations: AugAssign, ``.append/.add/.propose``.
    mutation_sites: List[Tuple[str, int, str]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition in the scanned tree."""

    name: str
    path: str
    line: int
    protocol: str
    #: The class — or, once :func:`build_graph` has propagated it, a
    #: scanned base class — contains ``set_timer`` calls or references a
    #: retry policy, i.e. it can drive retransmission.
    has_retry_machinery: bool = False
    #: Base classes named in the ``class`` statement.
    bases: Tuple[str, ...] = ()


@dataclass
class MessageGraph:
    """The extracted message graph over a set of sources."""

    sources: Dict[str, str] = field(default_factory=dict)
    #: ``Message`` subclasses, by class name.
    messages: Dict[str, MessageDef] = field(default_factory=dict)
    #: Every dataclass (including messages), by class name.
    dataclasses: Dict[str, MessageDef] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    constructs: List[ConstructSite] = field(default_factory=list)
    branches: List[HandlerBranch] = field(default_factory=list)
    functions: Dict[Tuple[str, str], FuncInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    # -- queries --------------------------------------------------------
    def sends_of(self, msg_type: str) -> List[SendSite]:
        """All send sites for one message type."""
        return [s for s in self.sends if s.msg_type == msg_type]

    def constructs_of(self, msg_type: str) -> List[ConstructSite]:
        """All construction sites for one message type."""
        return [c for c in self.constructs if c.msg_type == msg_type]

    def branches_of(self, msg_type: str) -> List[HandlerBranch]:
        """All handler-table entries for one message type."""
        return [b for b in self.branches if b.msg_type == msg_type]

    def sender_classes(self, msg_type: str) -> List[str]:
        """Classes that send a message type, sorted."""
        return sorted({s.cls for s in self.sends_of(msg_type)
                       if s.cls is not None})

    def handler_classes(self, msg_type: str) -> List[str]:
        """Classes with a handler-table entry for a message type, sorted."""
        return sorted({b.cls for b in self.branches_of(msg_type)})

    def protocols(self) -> List[str]:
        """Protocols that define at least one message, sorted."""
        found = {d.protocol for d in self.messages.values()}
        return sorted(found)

    def reachable(self, protocol: str,
                  seeds: Sequence[str]) -> "Reachability":
        """Close over the protocol's call graph from ``seeds``."""
        visited: Set[str] = set()
        sends: Set[str] = set()
        guards: List[Tuple[str, int]] = []
        mutations: List[Tuple[str, int, str]] = []
        work = list(seeds)
        while work:
            name = work.pop()
            if name in visited:
                continue
            visited.add(name)
            info = self.functions.get((protocol, name))
            if info is None:
                continue
            sends |= info.sends
            guards.extend(info.guard_sites)
            mutations.extend(info.mutation_sites)
            work.extend(info.calls)
        return Reachability(visited=frozenset(visited),
                            sends=frozenset(sends),
                            guards=guards, mutations=mutations)


@dataclass
class Reachability:
    """Result of a call-graph closure from a set of handler entry points."""

    visited: FrozenSet[str]
    sends: FrozenSet[str]
    guards: List[Tuple[str, int]]
    mutations: List[Tuple[str, int, str]]


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _is_message_base(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "Message"
               for base in node.bases)


def _class_fields(node: ast.ClassDef) -> Tuple[FieldDef, ...]:
    fields: List[FieldDef] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            fields.append(FieldDef(name=stmt.target.id,
                                   has_default=stmt.value is not None))
    return tuple(fields)


def _is_guard_compare(node: ast.Compare) -> bool:
    """Membership tests and ``.get(...)`` comparisons deduplicate
    retransmitted messages."""
    if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
        return True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr == "get":
            return True
    return False


# ---------------------------------------------------------------------------
# Extraction visitor
# ---------------------------------------------------------------------------

class _Extractor(ast.NodeVisitor):
    """Second-pass visitor for one module."""

    def __init__(self, path: str, graph: MessageGraph):
        self.path = path
        self.protocol = protocol_of(path)
        self.graph = graph
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []
        #: Constructor Call node ids that are direct send arguments.
        self._sent_ctor_nodes: Set[int] = set()
        #: Per-outer-function: variable name -> its ConstructSite.
        self._var_sites: Dict[str, ConstructSite] = {}

    # -- context helpers ------------------------------------------------
    @property
    def _cls(self) -> Optional[str]:
        return self._class_stack[-1] if self._class_stack else None

    @property
    def _outer_func(self) -> Optional[str]:
        return self._func_stack[0] if self._func_stack else None

    def _func_info(self) -> Optional[FuncInfo]:
        name = self._outer_func
        if name is None:
            return None
        key = (self.protocol, name)
        info = self.graph.functions.get(key)
        if info is None:
            info = FuncInfo(name=name, protocol=self.protocol)
            self.graph.functions[key] = info
        return info

    def _mark_retry_machinery(self) -> None:
        cls = self._cls
        if cls is not None and cls in self.graph.classes:
            self.graph.classes[cls].has_retry_machinery = True

    # -- classes --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.graph.classes.setdefault(node.name, ClassInfo(
            name=node.name, path=self.path, line=node.lineno,
            protocol=self.protocol,
            bases=tuple(b.id for b in node.bases
                        if isinstance(b, ast.Name))))
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id.endswith("HANDLERS") \
                    and isinstance(stmt.value, ast.Dict):
                self._record_table(node.name, stmt.targets[0].id,
                                   stmt.value)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _record_table(self, cls: str, table: str, literal: ast.Dict) -> None:
        """One branch per ``MessageType: "method"`` entry; other keys
        (non-message types, ``**spread``) are not dispatch."""
        for key, value in zip(literal.keys, literal.values):
            if isinstance(key, ast.Name) and key.id in self.graph.messages \
                    and isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                self.graph.branches.append(HandlerBranch(
                    msg_type=key.id, path=self.path, line=key.lineno,
                    cls=cls, table=table, target=value.value))

    # -- functions ------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        outermost = not self._func_stack
        self._func_stack.append(node.name)
        if outermost:
            self._var_sites = {}
            self._func_info()  # ensure the unit exists even if empty
        self.generic_visit(node)
        self._func_stack.pop()

    # -- calls: sends, constructs, guards, mutations --------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        info = self._func_info()

        if name is not None and info is not None:
            info.calls.add(name)

        if name == "set_timer":
            self._mark_retry_machinery()
        if name == "setdefault" and info is not None:
            info.guard_sites.append((self.path, node.lineno))
        if name in MUTATION_CALLS and \
                isinstance(node.func, ast.Attribute) and info is not None:
            info.mutation_sites.append((self.path, node.lineno, name))

        if name in SEND_NAMES and len(node.args) >= 2:
            self._record_send(node)

        if name is not None and name in self.graph.dataclasses:
            self._record_construct(name, node)

        self.generic_visit(node)

    def _record_send(self, node: ast.Call) -> None:
        payload = node.args[1]
        msg_type: Optional[str] = None
        if isinstance(payload, ast.Call):
            ctor = _call_name(payload)
            if ctor in self.graph.messages:
                msg_type = ctor
                self._sent_ctor_nodes.add(id(payload))
        elif isinstance(payload, ast.Name):
            site = self._var_sites.get(payload.id)
            if site is not None:
                msg_type = site.msg_type
                site.sent = True
        if msg_type is None:
            return
        self.graph.sends.append(SendSite(
            msg_type=msg_type, path=self.path, line=node.lineno,
            col=node.col_offset + 1, cls=self._cls,
            func=self._outer_func))
        info = self._func_info()
        if info is not None:
            info.sends.add(msg_type)

    def _record_construct(self, name: str, node: ast.Call) -> None:
        has_star = any(isinstance(a, ast.Starred) for a in node.args) or \
            any(kw.arg is None for kw in node.keywords)
        site = ConstructSite(
            msg_type=name, path=self.path, line=node.lineno,
            col=node.col_offset + 1, cls=self._cls,
            func=self._outer_func,
            kwargs=tuple(kw.arg for kw in node.keywords
                         if kw.arg is not None),
            n_pos=sum(1 for a in node.args
                      if not isinstance(a, ast.Starred)),
            has_star=has_star,
            sent=id(node) in self._sent_ctor_nodes)
        self.graph.constructs.append(site)

    # -- attributes: retry-policy references ----------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "retry_policy":
            self._mark_retry_machinery()
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "RetryPolicy":
            self._mark_retry_machinery()
        self.generic_visit(node)

    # -- assignments: message variables ----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and \
                    isinstance(node.value, ast.Call):
                ctor = _call_name(node.value)
                if ctor in self.graph.messages:
                    # Visit the value first so its ConstructSite exists.
                    self.generic_visit(node)
                    if self.graph.constructs and \
                            self.graph.constructs[-1].msg_type == ctor:
                        self._var_sites[target.id] = \
                            self.graph.constructs[-1]
                    return
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        info = self._func_info()
        if info is not None:
            info.mutation_sites.append(
                (self.path, node.lineno, "augassign"))
        self.generic_visit(node)

    # -- comparisons: duplicate-delivery guards -------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        info = self._func_info()
        if info is not None and _is_guard_compare(node):
            info.guard_sites.append((self.path, node.lineno))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Build API
# ---------------------------------------------------------------------------

def collect_sources(paths: Sequence[str]) -> Dict[str, str]:
    """Read ``*.py`` sources from files and/or directory trees."""
    sources: Dict[str, str] = {}
    for entry in paths:
        target = Path(entry)
        if target.is_dir():
            files = sorted(target.rglob("*.py"))
        else:
            files = [target]
        for file in files:
            sources[str(file)] = file.read_text(encoding="utf-8")
    return sources


def build_graph(sources: Dict[str, str]) -> MessageGraph:
    """Extract the message graph from ``{path: source}`` texts."""
    graph = MessageGraph(sources=dict(sources))
    trees: Dict[str, ast.Module] = {}

    # Pass 1: message/dataclass definitions from every file, so pass 2
    # can resolve cross-module references by name.
    for path in sorted(sources):
        tree = ast.parse(sources[path], filename=path)
        trees[path] = tree
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_dataclass_decorated(node):
                continue
            definition = MessageDef(
                name=node.name, path=path, line=node.lineno,
                protocol=protocol_of(path),
                fields=_class_fields(node),
                is_message=_is_message_base(node))
            graph.dataclasses[node.name] = definition
            if definition.is_message:
                graph.messages[node.name] = definition

    # Pass 2: sends, constructs, handler tables, functions, classes.
    for path in sorted(sources):
        _Extractor(path, graph).visit(trees[path])

    # A subclass drives retransmission with its base class's machinery.
    def inherits_retry(info: ClassInfo) -> bool:
        return info.has_retry_machinery or any(
            inherits_retry(graph.classes[base]) for base in info.bases
            if base in graph.classes and base != info.name)

    for info in graph.classes.values():
        info.has_retry_machinery = inherits_retry(info)
    return graph


def build_graph_from_paths(paths: Sequence[str]) -> MessageGraph:
    """Convenience: :func:`collect_sources` + :func:`build_graph`."""
    return build_graph(collect_sources(paths))
