"""protolint — the declared protocol tables, checked against observed runs.

Carousel's correctness argument is a contract between who sends each
message and who handles it (Figs 2–3, §4.1–§4.3).  The code declares
both halves as tables — each receiving class's ``*HANDLERS`` dict and the
per-protocol :data:`PROTOCOLS` contracts below — and protolint checks
them against each other, then against a traced DES corpus
(:func:`observe`: the conform and chaos scenarios, plus a read-only and a
TAPIR slow-path transaction), each send with its causal parent.

======  =============  ========  ==========================================
code    slug           severity  fires when
======  =============  ========  ==========================================
PL001   dead-letter    error     a message has no contract entry, a
                                 contract entry no message, or a declared
                                 receiver no table entry for it
PL002   dead-handler   warning   a table entry in a class that is not a
                                 declared receiver of the type
PL003   unexercised    warning   the corpus never sent a contracted type
PL004   missing-reply  error     the corpus sent a request, and no
                                 delivery of it produced a declared reply
======  =============  ========  ==========================================

PL001/PL002 need no run, and the corpus runs only over closed tables (a
dead letter would raise ``TypeError`` mid-run).  A send answers a request
delivered at node N when N sends it and either its parent chain reaches
that delivery (so replies after a Raft commit count) or it is of the same
traced transaction: the tracer keeps one parent per send, and the
coordinator's ``TxnReply`` is caused by the last participant result, not
by the ``CoordPrepareRequest``.  The self-check plants patch the imported
tables and handlers (DESIGN.md §9)."""

from __future__ import annotations

import importlib
import linecache
import math
import os
import pkgutil
import re
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Set, Tuple
from unittest import mock

from repro import systems
from repro.sim.message import Message

from .findings import Finding, Rule, SEVERITY_ERROR, SEVERITY_WARNING

RULES: Dict[str, Rule] = {
    "PL001": Rule("PL001", "dead-letter", SEVERITY_ERROR,
                  "message sent to a role with no handler entry for it"),
    "PL002": Rule("PL002", "dead-handler", SEVERITY_WARNING,
                  "handler entry in a non-receiver class"),
    "PL003": Rule("PL003", "unexercised", SEVERITY_WARNING,
                  "message type the corpus never sent"),
    "PL004": Rule("PL004", "missing-reply", SEVERITY_ERROR,
                  "request never answered with a declared reply"),
}


@dataclass(frozen=True)
class MessageContract:
    """Declared obligations for one message type: each of ``receivers``
    has a handler-table entry for it, and some delivery of it produces
    at least one of ``replies``."""

    receivers: Tuple[str, ...]
    replies: Tuple[str, ...] = ()


_MC = MessageContract

#: protocol -> message name -> contract.  This is the declared messaging
#: surface of the repo; PROTOCOL.md's catalog section is generated from
#: the observed corpus and cross-checked in CI.
PROTOCOLS: Dict[str, Dict[str, MessageContract]] = {
    "carousel": {
        "CoordPrepareRequest": _MC(("CarouselServer",), ("TxnReply",)),
        "ReadPrepareRequest": _MC(
            ("CarouselServer",), ("ReadReply", "FastVote", "PrepareResult")),
        "ReadReply": _MC(("CarouselClient",)),
        "FastVote": _MC(("CarouselServer",)),
        "PrepareResult": _MC(("CarouselServer",)),
        "CommitRequest": _MC(("CarouselServer",), ("TxnReply",)),
        "TxnReply": _MC(("CarouselClient",)),
        "Writeback": _MC(("CarouselServer",), ("WritebackAck",)),
        "WritebackAck": _MC(("CarouselServer",)),
        "ClientHeartbeat": _MC(("CarouselServer",)),
        "ReadOnlyRequest": _MC(("CarouselServer",), ("ReadOnlyReply",)),
        "ReadOnlyReply": _MC(("CarouselClient",)),
        "PrepareQuery": _MC(("CarouselServer",), ("PrepareResult",)),
    },
    "layered": {
        "LayeredRead": _MC(("LayeredServer",), ("LayeredReadReply",)),
        "LayeredReadReply": _MC(("LayeredClient",)),
        "LayeredCommitRequest": _MC(("LayeredServer",), ("LayeredReply",)),
        "LayeredPrepare": _MC(("LayeredServer",), ("LayeredPrepareAck",)),
        "LayeredPrepareAck": _MC(("LayeredServer",)),
        "LayeredReply": _MC(("LayeredClient",)),
        "LayeredWriteback": _MC(("LayeredServer",),
                                ("LayeredWritebackAck",)),
        "LayeredWritebackAck": _MC(("LayeredServer",)),
    },
    "tapir": {
        "TapirRead": _MC(("TapirReplica",), ("TapirReadReply",)),
        "TapirReadReply": _MC(("TapirClient",)),
        "TapirPrepare": _MC(("TapirReplica",), ("TapirPrepareReply",)),
        "TapirPrepareReply": _MC(("TapirClient",)),
        "TapirFinalize": _MC(("TapirReplica",), ("TapirFinalizeAck",)),
        "TapirFinalizeAck": _MC(("TapirClient",)),
        "TapirCommit": _MC(("TapirReplica",), ("TapirCommitAck",)),
        "TapirCommitAck": _MC(("TapirClient",)),
    },
    "raft": {
        "RequestVote": _MC(("RaftMember", "RaftHost"),
                           ("RequestVoteReply",)),
        "RequestVoteReply": _MC(("RaftMember", "RaftHost")),
        "AppendEntries": _MC(("RaftMember", "RaftHost"),
                             ("AppendEntriesReply",)),
        "AppendEntriesReply": _MC(("RaftMember", "RaftHost")),
    },
}

#: Protocol package under ``repro`` -> the contract it implements.
PACKAGES = {"core": "carousel", "layered": "layered", "tapir": "tapir",
            "raft": "raft"}

#: The corpus: scenario seeds, and the chaos restart weight.
CONFORM_SEEDS = (0, 1, 2)
CHAOS_SEEDS = (0, 1, 2, 3)
CHAOS_RESTART_WEIGHT = 4


def _protocol_classes() -> Iterator[Tuple[str, type]]:
    """``(protocol, class)`` for every class the protocol packages'
    modules define."""
    for package, protocol in PACKAGES.items():
        path = importlib.import_module(f"repro.{package}").__path__
        for info in pkgutil.iter_modules(path, f"repro.{package}."):
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__ == info.name:
                    yield protocol, obj


def messages() -> Dict[str, Dict[str, type]]:
    """protocol -> name -> every ``Message`` subclass its package
    defines."""
    found: Dict[str, Dict[str, type]] = defaultdict(dict)
    for protocol, cls in _protocol_classes():
        if issubclass(cls, Message):
            found[protocol][cls.__name__] = cls
    return {protocol: dict(sorted(names.items()))
            for protocol, names in sorted(found.items())}


def tables() -> List[Tuple[type, str, type, str]]:
    """``(class, table, message type, method)`` for every entry of a
    ``*HANDLERS`` table a protocol class declares in its own body."""
    entries = [(cls, table, msg_type, method)
               for __, cls in _protocol_classes()
               for table, declared in vars(cls).items()
               if table.endswith("HANDLERS")
               for msg_type, method in declared.items()]
    return sorted(entries, key=lambda e: (e[0].__name__, e[1],
                                          e[2].__name__))


def _finding(code: str, message: str,
             cls: Optional[type] = None) -> Finding:
    """A finding at ``cls``'s ``class`` statement, or at
    :data:`PROTOCOLS` when ``cls`` is ``None`` (a contract entry)."""
    path = sys.modules[cls.__module__ if cls else __name__].__file__
    anchor = re.compile(rf"class {cls.__name__}\b" if cls
                        else r"PROTOCOLS\b")
    line = next((number for number, text
                 in enumerate(linecache.getlines(path), 1)
                 if anchor.match(text)), 1)
    return Finding(RULES[code], os.path.relpath(path), line, 1, message)


def check_tables(contracts: Dict[str, Dict[str, MessageContract]],
                 catalog: Dict[str, Dict[str, type]],
                 entries: List[Tuple[type, str, type, str]]
                 ) -> List[Finding]:
    """PL001 and PL002: set differences between the handler-table
    ``entries``, the ``Message`` subclasses and the contracts."""
    findings: List[Finding] = []
    handled: Dict[str, Set[str]] = defaultdict(set)
    for cls, __, msg_type, __ in entries:
        handled[msg_type.__name__].add(cls.__name__)
    for protocol in sorted(set(contracts) | set(catalog)):
        contract = contracts.get(protocol, {})
        defined = catalog.get(protocol, {})
        for name, cls in defined.items():
            if name not in contract:
                findings.append(_finding(
                    "PL001", f"message {name} is not declared in the "
                    f"{protocol} contract", cls))
                continue
            for receiver in contract[name].receivers:
                if receiver not in handled[name]:
                    findings.append(_finding(
                        "PL001", f"{name} is declared to be received by "
                        f"{receiver}, but {receiver} has no handler entry "
                        f"for it (dead letter)", cls))
        for name in sorted(set(contract) - set(defined)):
            findings.append(_finding(
                "PL001", f"the {protocol} contract declares message "
                f"{name}, but no Message subclass with that name exists"))
    receivers = {name: entry.receivers for contract in contracts.values()
                 for name, entry in contract.items()}
    for cls, table, msg_type, __ in entries:
        declared = receivers.get(msg_type.__name__)
        if declared is not None and cls.__name__ not in declared:
            findings.append(_finding(
                "PL002", f"{cls.__name__}.{table} handles "
                f"{msg_type.__name__}, but {cls.__name__} is not a "
                f"declared receiver ({', '.join(declared)})", cls))
    return findings


# ---------------------------------------------------------------------------
# The observed corpus
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    """What the traced corpus sent."""

    #: ``(parent type or None, sending node class, sent type,
    #: destination node class)`` -> sends; and message type -> sends.
    edges: Counter = field(default_factory=Counter)
    sent: Counter = field(default_factory=Counter)
    #: Contracted requests some delivery answered with a declared reply.
    answered: Set[str] = field(default_factory=set)
    #: system -> ``(sending node class, type)`` -> sends, and system ->
    #: committed transactions, over the fault-free conform runs only.
    conform_sends: Dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter))
    conform_committed: Counter = field(default_factory=Counter)

    def record(self, tracer, nodes: Dict[str, object],
               requests_of: Dict[str, Tuple[str, ...]]) -> Counter:
        """Fold one traced run in; ``requests_of`` maps each reply type
        to the requests it answers.  Returns the run's sends by
        ``(sending node class, type)``."""
        anns = tracer.sends()
        cls = {node_id: type(node).__name__
               for node_id, node in nodes.items()}
        requests = {q for qs in requests_of.values() for q in qs}
        delivered: Dict[Tuple, float] = {}
        for ann in anns:
            if ann.tid is not None and ann.msg_type in requests:
                key = (ann.tid, ann.dst, ann.msg_type)
                delivered[key] = min(delivered.get(key, math.inf),
                                     ann.recv_ms)
        sends: Counter = Counter()
        for ann in anns:
            parent = ann.parent
            self.edges[(parent.msg_type if parent else None, cls[ann.src],
                        ann.msg_type, cls[ann.dst])] += 1
            sends[(cls[ann.src], ann.msg_type)] += 1
            self.sent[ann.msg_type] += 1
            wanted = set(requests_of.get(ann.msg_type, ())) - self.answered
            for request in sorted(wanted):
                at = delivered.get((ann.tid, ann.src, request))
                if at is not None and at <= ann.send_ms:
                    self.answered.add(request)
            while wanted - self.answered and parent is not None:
                if parent.msg_type in wanted and parent.dst == ann.src:
                    self.answered.add(parent.msg_type)
                parent = parent.parent
        return sends


def observe() -> Corpus:
    """Run the corpus (module docstring) and fold every traced send into
    a :class:`Corpus`; about 4 s on one core."""
    from repro.chaos.runner import ChaosOptions, chaos_scenario
    from repro.runtime.conformance import conform_scenario
    from repro.scenario import run
    from repro.trace.scenarios import traced_scenario

    requests_of: Dict[str, Tuple[str, ...]] = defaultdict(tuple)
    for contract in PROTOCOLS.values():
        for request, entry in sorted(contract.items()):
            for reply in entry.replies:
                requests_of[reply] += (request,)
    def record(scenario) -> Tuple[Counter, int]:
        result = run(scenario)
        # A run keeps no deployment; an identical one names the classes
        # of its node ids.
        nodes = systems.build(scenario.system, scenario.deployment,
                              scenario.timing).network.nodes
        return (corpus.record(result.tracer, nodes, requests_of),
                result.committed)

    corpus = Corpus()
    chaos = ChaosOptions(restart_weight=CHAOS_RESTART_WEIGHT, trace=True)
    for system in systems.SYSTEMS:
        for seed in CONFORM_SEEDS:
            sends, committed = record(
                replace(conform_scenario(system, seed), trace=True))
            corpus.conform_sends[system].update(sends)
            corpus.conform_committed[system] += committed
        for seed in CHAOS_SEEDS:
            record(chaos_scenario(system, seed, chaos))
    record(traced_scenario("carousel-basic", "read-only"))
    record(traced_scenario("tapir", "slow-path"))
    return corpus


@lru_cache(maxsize=None)
def corpus(plant: Optional[str] = None) -> Corpus:
    """The corpus of the tree as imported, with ``plant`` (a
    :data:`PLANT_BUGS` name) active, observed once per process."""
    with PLANT_BUGS[plant]() if plant else nullcontext():
        return observe()


def check_corpus(contracts: Dict[str, Dict[str, MessageContract]],
                 catalog: Dict[str, Dict[str, type]],
                 observed: Corpus) -> List[Finding]:
    """PL003 and PL004 over an observed corpus."""
    sent = observed.sent
    findings: List[Finding] = []
    for protocol, contract in sorted(contracts.items()):
        for name, entry in sorted(contract.items()):
            cls = catalog.get(protocol, {}).get(name)
            if cls is None:
                continue  # PL001 reports it
            if not sent[name]:
                findings.append(_finding(
                    "PL003", f"{name} was never sent in the corpus "
                    f"(unexercised)", cls))
            elif entry.replies and name not in observed.answered:
                findings.append(_finding(
                    "PL004", f"{name} was sent {sent[name]} time(s), and "
                    f"no delivery produced any of its declared replies "
                    f"({', '.join(entry.replies)})", cls))
    return findings


# ---------------------------------------------------------------------------
# Planted bugs (self-check fixtures, mirroring ``repro chaos --plant-bug``)
# ---------------------------------------------------------------------------

class PlantError(ValueError):
    """A plant that cannot be applied: unknown, or its target drifted."""


@contextmanager
def _dead_handler() -> Iterator[None]:
    """Delete ClientHeartbeat from the Carousel server's coordinator
    table."""
    from repro.core.messages import ClientHeartbeat
    from repro.core.server import CarouselServer

    table = CarouselServer.COORDINATOR_HANDLERS
    if ClientHeartbeat not in table:
        raise PlantError("CarouselServer.COORDINATOR_HANDLERS has no "
                         "ClientHeartbeat entry to delete")
    with mock.patch.dict(table):
        del table[ClientHeartbeat]
        yield


@contextmanager
def _missing_reply() -> Iterator[None]:
    """Drop every WritebackAck a Carousel participant sends."""
    from repro.core.messages import WritebackAck
    from repro.core.participant import PartitionComponent

    send = getattr(PartitionComponent, "_send", None)
    if send is None:
        raise PlantError("PartitionComponent has no _send to patch")

    def dropping(self, dst: str, msg: Message) -> None:
        if type(msg) is not WritebackAck:
            send(self, dst, msg)

    with mock.patch.object(PartitionComponent, "_send", dropping):
        yield


PLANT_BUGS = {"dead-handler": _dead_handler, "missing-reply": _missing_reply}


def lint(plant: Optional[str] = None) -> List[Finding]:
    """All protolint findings for the tree, with ``plant`` (a
    :data:`PLANT_BUGS` name) active throughout."""
    if plant is not None and plant not in PLANT_BUGS:
        raise PlantError(f"unknown plant {plant!r}; choose from "
                         f"{', '.join(sorted(PLANT_BUGS))}")
    with PLANT_BUGS[plant]() if plant else nullcontext():
        catalog = messages()
        findings = check_tables(PROTOCOLS, catalog, tables())
    if any(f.rule.code == "PL001" for f in findings):
        return findings
    # ``corpus()``, as every other caller asks, is the one clean entry.
    observed = corpus(plant) if plant else corpus()
    return findings + check_corpus(PROTOCOLS, catalog, observed)


# ---------------------------------------------------------------------------
# Message catalog (PROTOCOL.md generated section)
# ---------------------------------------------------------------------------

CATALOG_BEGIN = "<!-- protolint:catalog:begin -->"
CATALOG_END = "<!-- protolint:catalog:end -->"


def render_catalog(observed: Corpus) -> str:
    """Deterministic markdown inventory of the observed corpus: per
    protocol, which node classes send and receive each type and what
    each send was caused by; then messages per committed transaction."""
    catalog = messages()
    sent = observed.sent
    total = sum(len(names) for names in catalog.values())
    lines: List[str] = [
        "Generated by `python -m repro protolint --catalog` from the "
        "traced corpus.",
        "Do not edit by hand; regenerate with `--write-docs` after "
        "protocol changes.",
        "",
        f"{total} message types across {len(catalog)} protocol(s); the "
        f"corpus sent {sum(1 for n in sent if sent[n])} of them.",
        "`—` as a cause is a send with no message on its causal chain: "
        "a client submit, or a timer armed outside any delivery.",
    ]
    for protocol, names in catalog.items():
        sends: Dict[str, Set[str]] = defaultdict(set)
        receives: Dict[str, Set[str]] = defaultdict(set)
        causes: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
        for (parent, at, name, to) in observed.edges:
            if name in names:
                sends[at].add(name)
                receives[to].add(name)
                causes[(parent or "—", at)].add(name)
        lines.extend(["", f"#### {protocol}", "",
                      "| node | sends | receives |", "| --- | --- | --- |"])
        for node in sorted(set(sends) | set(receives)):
            row = [", ".join(sorted(sends[node])) or "—",
                   ", ".join(sorted(receives[node])) or "—"]
            lines.append(f"| {node} | {row[0]} | {row[1]} |")
        lines.extend(["", "| on receiving | at | sends |",
                      "| --- | --- | --- |"])
        for (parent, at), sent_types in sorted(causes.items()):
            lines.append(f"| {parent} | {at} | "
                         f"{', '.join(sorted(sent_types))} |")
    from repro.runtime.conformance import TIME_DRIVEN

    lines.extend([
        "", "#### Messages per committed transaction", "",
        f"Fault-free conform runs only (seeds "
        f"{', '.join(map(str, CONFORM_SEEDS))}: one transaction at a time, "
        "so the clock-driven types — Raft heartbeats and elections, client "
        "heartbeats — count the idle gaps too; the total leaves them out).",
        "", "| system | sender | message | per committed txn |",
        "| --- | --- | --- | --- |"])
    for system, counts in sorted(observed.conform_sends.items()):
        committed = observed.conform_committed[system] or 1
        for (sender, name), count in sorted(counts.items()):
            lines.append(f"| {system} | {sender} | {name} | "
                         f"{count / committed:.2f} |")
        driven = sum(count for (__, name), count in counts.items()
                     if name not in TIME_DRIVEN)
        lines.append(f"| {system} | all | request-driven | "
                     f"{driven / committed:.2f} |")
    return "\n".join(lines) + "\n"


def extract_doc_catalog(doc_text: str) -> Optional[str]:
    """The catalog section between the markers in a docs file."""
    __, begin, rest = doc_text.partition(CATALOG_BEGIN + "\n")
    body, end, __ = rest.partition(CATALOG_END)
    return body if begin and end else None


def embed_catalog(doc_text: str, catalog: str) -> str:
    """Replace the marked section in a docs file with ``catalog``."""
    current = extract_doc_catalog(doc_text)
    if current is None:
        raise ValueError(
            f"docs file has no {CATALOG_BEGIN} ... {CATALOG_END} section")
    return doc_text.replace(CATALOG_BEGIN + "\n" + current + CATALOG_END,
                            CATALOG_BEGIN + "\n" + catalog + CATALOG_END, 1)
