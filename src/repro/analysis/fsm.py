"""Declared protocol state machines and FSM conformance checking.

Each :class:`FSMSpec` names a string-valued state attribute in the
file(s) that own it, the complete set of legal states, the legal initial
states, and the legal transitions.  :func:`check_fsm` compares the spec
against what msggraph extracted from the source:

* every *assigned* state value must be a declared state;
* every state value *compared against* must be a declared state (catches
  dispatch on a state that can never be entered);
* an assignment guarded by ``if <attr> == S:`` must be a declared
  transition out of ``S`` (unguarded assignments are not checked — they
  are resets like Raft's step-down, legal from any state);
* class-level defaults and ``__init__`` assignments must be declared
  initial states;
* every declared state must be entered somewhere (assignment or
  default), or it is dead.

The per-transaction coordinator/participant/replica machines encode
their state in OCC bookkeeping (``prepare_log``/``resolved``/``finished``
sets) rather than a single attribute; those are enforced by protolint's
reply-obligation and idempotence rules (PL004/PL006) instead — see
DESIGN.md §9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from .findings import Finding, Rule
from .msggraph import MessageGraph


@dataclass(frozen=True)
class FSMSpec:
    """One declared state machine over a string attribute."""

    name: str
    #: Path fragments selecting the owning files (posix, e.g.
    #: "raft/node.py").  A client machine lives in two: its protocol file
    #: and the shell every client inherits DONE and the READ default from.
    path_fragments: Tuple[str, ...]
    #: The attribute that stores the state (e.g. ``state``, ``phase``).
    attr: str
    states: Tuple[str, ...]
    initial: Tuple[str, ...]
    #: from-state -> allowed to-states, for guarded assignments.
    transitions: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def matches(self, path: str) -> bool:
        """Whether ``path`` is a file this machine lives in."""
        posix = Path(path).as_posix()
        return any(fragment in posix for fragment in self.path_fragments)


#: The client shell (:mod:`repro.client`): not "client.py" alone, which
#: would also match every protocol's own client file.
_CLIENT_SHELL = "repro/client.py"

#: The state machines protolint enforces (PL008).
FSM_SPECS: Tuple[FSMSpec, ...] = (
    FSMSpec(
        name="raft-member",
        path_fragments=("raft/node.py",),
        attr="state",
        states=("follower", "candidate", "leader"),
        initial=("follower",),
        transitions={
            "follower": ("follower", "candidate"),
            "candidate": ("candidate", "leader", "follower"),
            "leader": ("follower",),
        },
    ),
    FSMSpec(
        name="coordinator-wal",
        path_fragments=("core/coordinator.py",),
        attr="wal_state",
        states=("active", "recovery"),
        initial=("active",),
        transitions={
            "active": ("recovery",),
            "recovery": ("active",),
        },
    ),
    FSMSpec(
        name="carousel-client-txn",
        path_fragments=("core/client.py", _CLIENT_SHELL),
        attr="phase",
        states=("read", "commit", "read_only", "done"),
        initial=("read",),
        transitions={
            "read": ("read_only", "commit", "done"),
            "commit": ("done",),
            "read_only": ("done",),
        },
    ),
    FSMSpec(
        name="layered-client-txn",
        path_fragments=("layered/client.py", _CLIENT_SHELL),
        attr="phase",
        states=("read", "commit", "done"),
        initial=("read",),
        transitions={
            "read": ("commit", "done"),
            "commit": ("done",),
        },
    ),
    FSMSpec(
        name="tapir-client-txn",
        path_fragments=("tapir/client.py", _CLIENT_SHELL),
        attr="phase",
        states=("read", "prepare", "done"),
        initial=("read",),
        transitions={
            "read": ("prepare", "done"),
            "prepare": ("done",),
        },
    ),
)


def check_fsm(graph: MessageGraph, spec: FSMSpec,
              rule: Rule) -> List[Finding]:
    """Findings for one spec against the extracted FSM raw material."""
    findings: List[Finding] = []
    states = set(spec.states)
    entered: set = set()

    assigns = [a for a in graph.fsm_assigns
               if a.attr == spec.attr and spec.matches(a.path)]
    compares = [c for c in graph.fsm_compares
                if c.attr == spec.attr and spec.matches(c.path)]
    defaults = [d for d in graph.fsm_defaults
                if d.attr == spec.attr and spec.matches(d.path)]

    for assign in assigns:
        entered.add(assign.value)
        if assign.value not in states:
            findings.append(Finding(
                rule=rule, path=assign.path, line=assign.line, col=1,
                message=(f"fsm {spec.name}: assigns undeclared state "
                         f"{assign.value!r} to .{spec.attr} (declared: "
                         f"{', '.join(spec.states)})")))
            continue
        if assign.func == "__init__" and assign.value not in spec.initial:
            findings.append(Finding(
                rule=rule, path=assign.path, line=assign.line, col=1,
                message=(f"fsm {spec.name}: __init__ sets .{spec.attr} to "
                         f"{assign.value!r}, which is not a declared "
                         f"initial state ({', '.join(spec.initial)})")))
        for origin in assign.guards:
            if origin not in states:
                continue  # the compare check reports the bad guard state
            allowed = spec.transitions.get(origin, ())
            if assign.value not in allowed:
                findings.append(Finding(
                    rule=rule, path=assign.path, line=assign.line, col=1,
                    message=(f"fsm {spec.name}: transition "
                             f"{origin!r} -> {assign.value!r} is not "
                             f"declared (allowed from {origin!r}: "
                             f"{', '.join(allowed) or 'none'})")))

    for compare in compares:
        if compare.value not in states:
            findings.append(Finding(
                rule=rule, path=compare.path, line=compare.line, col=1,
                message=(f"fsm {spec.name}: compares .{spec.attr} against "
                         f"undeclared state {compare.value!r}")))

    for default in defaults:
        entered.add(default.value)
        if default.value not in states:
            findings.append(Finding(
                rule=rule, path=default.path, line=default.line, col=1,
                message=(f"fsm {spec.name}: class default for "
                         f".{spec.attr} is undeclared state "
                         f"{default.value!r}")))
        elif default.value not in spec.initial:
            findings.append(Finding(
                rule=rule, path=default.path, line=default.line, col=1,
                message=(f"fsm {spec.name}: class default "
                         f"{default.value!r} is not a declared initial "
                         f"state ({', '.join(spec.initial)})")))

    if assigns or defaults:
        anchor_path = (defaults[0].path if defaults else assigns[0].path)
        for state in spec.states:
            if state not in entered:
                findings.append(Finding(
                    rule=rule, path=anchor_path, line=1, col=1,
                    message=(f"fsm {spec.name}: declared state "
                             f"{state!r} is never entered (no assignment "
                             f"or default sets it)")))
    return findings


def check_all(graph: MessageGraph, rule: Rule,
              specs: Tuple[FSMSpec, ...] = FSM_SPECS) -> List[Finding]:
    findings: List[Finding] = []
    for spec in specs:
        findings.extend(check_fsm(graph, spec, rule))
    return findings
