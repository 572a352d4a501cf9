"""protolint — static protocol-conformance checks over the message graph.

Carousel's correctness argument is a contract between send sites and
handler tables: every ``ReadPrepareRequest`` must produce a
``ReadReply``/``FastVote``, every decision must reach every participant,
every RPC must have a retry path.  The chaos harness checks this
dynamically, but a missing handler entry or a dead-letter message type
survives until a nemesis schedule happens to hit it.  protolint proves
the messaging surface is *closed* statically: it builds the message
graph (:mod:`repro.analysis.msggraph`) — whose handler branches are the
receivers' declared ``*HANDLERS`` tables — and checks it against the
declared per-protocol contracts below.

Rules:

======  ==================  ========  ==========================================
code    slug                severity  fires when
======  ==================  ========  ==========================================
PL001   dead-letter         error     a declared receiver has no handler entry
                                      for a message, or a message/contract
                                      entry has no counterpart
PL002   dead-handler        warning   an entry exists in a non-receiver class,
                                      or for a type that is never sent
PL003   never-sent          warning   a message type is constructed but never
                                      sent (or never even constructed)
PL004   missing-reply       error     no handler path for a request can send
                                      any of its declared replies
PL005   no-retry-coverage   warning   a retried message is sent from a class
                                      with no timer/RetryPolicy machinery
PL006   handler-mutation    warning   handlers of a dedup-contracted message
                                      mutate per-txn state with no
                                      duplicate-delivery guard in reach
PL007   field-mismatch      error     a constructor call site does not match
                                      the dataclass definition
======  ==================  ========  ==========================================

Reply obligations (PL004) are checked over a call-graph closure from the
handler methods the tables name, so replies sent by helpers several
calls deep count.  State machines are not checked here: each declares a
``TRANSITIONS`` table beside its code, and
:func:`repro.sim.node.goto` checks every transition as it runs.
Suppress individual findings with
``# protolint: ignore[...]`` (see :mod:`repro.analysis.findings`).

Self-check plants (mirroring ``repro chaos --plant-bug``): the
``dead-handler`` plant deletes the ``ClientHeartbeat`` entry from the
Carousel server's coordinator table, the ``missing-reply`` plant drops
the TAPIR read reply; CI runs both and asserts PL001/PL004 fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .findings import (Finding, Rule, SEVERITY_ERROR, SEVERITY_WARNING,
                       is_suppressed, parse_suppressions)
from .msggraph import (HandlerBranch, MessageGraph, Reachability,
                       build_graph, collect_sources, protocol_of)

RULES: Dict[str, Rule] = {
    "PL001": Rule("PL001", "dead-letter", SEVERITY_ERROR,
                  "message sent to a role with no handler entry for it"),
    "PL002": Rule("PL002", "dead-handler", SEVERITY_WARNING,
                  "handler entry for a message that never arrives there"),
    "PL003": Rule("PL003", "never-sent", SEVERITY_WARNING,
                  "message type constructed but never sent"),
    "PL004": Rule("PL004", "missing-reply", SEVERITY_ERROR,
                  "no handler path can send a declared reply"),
    "PL005": Rule("PL005", "no-retry-coverage", SEVERITY_WARNING,
                  "retried message sent without timer/RetryPolicy cover"),
    "PL006": Rule("PL006", "handler-mutation", SEVERITY_WARNING,
                  "dedup handler mutates per-txn state unguarded"),
    "PL007": Rule("PL007", "field-mismatch", SEVERITY_ERROR,
                  "constructor call site disagrees with dataclass fields"),
}


@dataclass(frozen=True)
class MessageContract:
    """Declared obligations for one message type.

    ``receivers``: classes that must each have a handler-table entry.
    ``replies``: some handler path must send at least one of these.
    ``retried``: senders must have timer/RetryPolicy machinery (the
    message is retransmitted, so handlers see duplicates).
    ``dedup``: handlers mutate per-txn state and must carry a
    duplicate-delivery guard (membership test / ``setdefault`` /
    ``.get`` comparison) on some path.
    """

    receivers: Tuple[str, ...]
    replies: Tuple[str, ...] = ()
    retried: bool = False
    dedup: bool = False


_MC = MessageContract

#: protocol -> message name -> contract.  This is the declared messaging
#: surface of the repo; PROTOCOL.md's catalog section is generated from
#: the extracted graph and cross-checked against these in CI.
PROTOCOLS: Dict[str, Dict[str, MessageContract]] = {
    "carousel": {
        "CoordPrepareRequest": _MC(("CarouselServer",), ("TxnReply",),
                                   retried=True, dedup=True),
        "ReadPrepareRequest": _MC(
            ("CarouselServer",),
            ("ReadReply", "FastVote", "PrepareResult"),
            retried=True, dedup=True),
        "ReadReply": _MC(("CarouselClient",)),
        "FastVote": _MC(("CarouselServer",)),
        "PrepareResult": _MC(("CarouselServer",)),
        "CommitRequest": _MC(("CarouselServer",), ("TxnReply",),
                             retried=True, dedup=True),
        "TxnReply": _MC(("CarouselClient",)),
        "Writeback": _MC(("CarouselServer",), ("WritebackAck",),
                         retried=True, dedup=True),
        "WritebackAck": _MC(("CarouselServer",)),
        "ClientHeartbeat": _MC(("CarouselServer",)),
        "ReadOnlyRequest": _MC(("CarouselServer",), ("ReadOnlyReply",),
                               retried=True),
        "ReadOnlyReply": _MC(("CarouselClient",)),
        "PrepareQuery": _MC(("CarouselServer",),
                            ("PrepareResult", "FastVote"),
                            retried=True, dedup=True),
    },
    "layered": {
        "LayeredRead": _MC(("LayeredServer",), ("LayeredReadReply",),
                           retried=True),
        "LayeredReadReply": _MC(("LayeredClient",)),
        "LayeredCommitRequest": _MC(("LayeredServer",), ("LayeredReply",),
                                    retried=True, dedup=True),
        "LayeredPrepare": _MC(("LayeredServer",), ("LayeredPrepareAck",),
                              retried=True, dedup=True),
        "LayeredPrepareAck": _MC(("LayeredServer",)),
        "LayeredReply": _MC(("LayeredClient",)),
        "LayeredWriteback": _MC(("LayeredServer",),
                                ("LayeredWritebackAck",),
                                retried=True, dedup=True),
        "LayeredWritebackAck": _MC(("LayeredServer",)),
    },
    "tapir": {
        "TapirRead": _MC(("TapirReplica",), ("TapirReadReply",),
                         retried=True),
        "TapirReadReply": _MC(("TapirClient",)),
        "TapirPrepare": _MC(("TapirReplica",), ("TapirPrepareReply",),
                            retried=True, dedup=True),
        "TapirPrepareReply": _MC(("TapirClient",)),
        "TapirFinalize": _MC(("TapirReplica",), ("TapirFinalizeAck",),
                             retried=True, dedup=True),
        "TapirFinalizeAck": _MC(("TapirClient",)),
        "TapirCommit": _MC(("TapirReplica",), ("TapirCommitAck",),
                           retried=True, dedup=True),
        "TapirCommitAck": _MC(("TapirClient",)),
    },
    # Raft retransmits by heartbeat/election timer; duplicate AppendEntries
    # are deduplicated by term/index comparison, which is below this
    # rule's model — so no raft type carries ``dedup``.
    "raft": {
        "RequestVote": _MC(("RaftMember", "RaftHost"),
                           ("RequestVoteReply",), retried=True),
        "RequestVoteReply": _MC(("RaftMember", "RaftHost")),
        "AppendEntries": _MC(("RaftMember", "RaftHost"),
                             ("AppendEntriesReply",), retried=True),
        "AppendEntriesReply": _MC(("RaftMember", "RaftHost")),
    },
}

#: Default scan scope: the four protocol packages, plus the client shell
#: their clients' retry machinery lives in.
DEFAULT_SCAN_DIRS = (
    "src/repro/core",
    "src/repro/layered",
    "src/repro/tapir",
    "src/repro/raft",
    "src/repro/client.py",
)


def default_paths() -> List[str]:
    paths = [p for p in DEFAULT_SCAN_DIRS if Path(p).exists()]
    if not paths:
        raise FileNotFoundError(
            "none of the default protolint scan directories exist "
            f"({', '.join(DEFAULT_SCAN_DIRS)}); run from the repo root "
            "or pass paths explicitly")
    return paths


# ---------------------------------------------------------------------------
# Rule implementations
# ---------------------------------------------------------------------------

def _active_protocols(graph: MessageGraph,
                      contracts: Dict[str, Dict[str, MessageContract]],
                      ) -> List[str]:
    """Contracted protocols that actually appear in the scanned sources."""
    present = {d.protocol for d in graph.messages.values()}
    return sorted(p for p in contracts if p in present)


def _first_def_path(graph: MessageGraph, protocol: str) -> str:
    paths = sorted(d.path for d in graph.messages.values()
                   if d.protocol == protocol)
    return paths[0]


def _check_dead_letter(graph: MessageGraph,
                       contracts: Dict[str, Dict[str, MessageContract]],
                       ) -> List[Finding]:
    rule = RULES["PL001"]
    findings: List[Finding] = []
    for protocol in _active_protocols(graph, contracts):
        contract = contracts[protocol]
        defined = {name: d for name, d in graph.messages.items()
                   if d.protocol == protocol}
        for name, definition in defined.items():
            if name not in contract:
                findings.append(Finding(
                    rule=rule, path=definition.path, line=definition.line,
                    col=1,
                    message=(f"message {name} is not declared in the "
                             f"{protocol} contract")))
                continue
            handlers = graph.handler_classes(name)
            for receiver in contract[name].receivers:
                if receiver not in handlers:
                    findings.append(Finding(
                        rule=rule, path=definition.path,
                        line=definition.line, col=1,
                        message=(f"{name} is declared to be received by "
                                 f"{receiver}, but {receiver} has no "
                                 f"handler entry for it (dead letter)")))
        # The contract-side check only makes sense when the protocol's
        # canonical message module is in scope — otherwise any partial
        # scan would report every contract entry as missing.
        has_catalog = any(
            Path(path).name == "messages.py" and
            protocol_of(path) == protocol for path in graph.sources)
        if not has_catalog:
            continue
        for name in contract:
            if name not in defined:
                findings.append(Finding(
                    rule=rule, path=_first_def_path(graph, protocol),
                    line=1, col=1,
                    message=(f"the {protocol} contract declares message "
                             f"{name}, but no Message subclass with that "
                             f"name was found")))
    return findings


def _check_dead_handler(graph: MessageGraph,
                        contracts: Dict[str, Dict[str, MessageContract]],
                        ) -> List[Finding]:
    rule = RULES["PL002"]
    findings: List[Finding] = []
    active = set(_active_protocols(graph, contracts))
    for branch in graph.branches:
        definition = graph.messages.get(branch.msg_type)
        if definition is None or definition.protocol not in active:
            continue
        contract = contracts[definition.protocol].get(branch.msg_type)
        if contract is None:
            continue  # PL001 reports the missing contract entry
        if branch.cls not in contract.receivers:
            findings.append(Finding(
                rule=rule, path=branch.path, line=branch.line, col=1,
                message=(f"{branch.cls} handles {branch.msg_type}, but is "
                         f"not a declared receiver "
                         f"({', '.join(contract.receivers)})")))
    for protocol in sorted(active):
        for name in sorted(contracts[protocol]):
            if name not in graph.messages:
                continue
            branches = graph.branches_of(name)
            if branches and not graph.sends_of(name):
                first = min(branches, key=lambda b: (b.path, b.line))
                findings.append(Finding(
                    rule=rule, path=first.path, line=first.line, col=1,
                    message=(f"handler entry for {name}, but {name} is "
                             f"never sent anywhere (dead handler)")))
    return findings


def _check_never_sent(graph: MessageGraph,
                      contracts: Dict[str, Dict[str, MessageContract]],
                      ) -> List[Finding]:
    rule = RULES["PL003"]
    findings: List[Finding] = []
    active = set(_active_protocols(graph, contracts))
    for name in sorted(graph.messages):
        definition = graph.messages[name]
        if definition.protocol not in active:
            continue
        if name not in contracts[definition.protocol]:
            continue  # PL001 reports it
        if graph.sends_of(name):
            continue
        constructs = graph.constructs_of(name)
        if constructs:
            first = min(constructs, key=lambda c: (c.path, c.line))
            findings.append(Finding(
                rule=rule, path=first.path, line=first.line, col=first.col,
                message=(f"{name} is constructed but never sent")))
        else:
            findings.append(Finding(
                rule=rule, path=definition.path, line=definition.line,
                col=1,
                message=(f"{name} is never constructed (dead message "
                         f"type)")))
    return findings


def _handler_reach(graph: MessageGraph, protocol: str, name: str,
                   contract: MessageContract
                   ) -> Optional[Tuple[HandlerBranch, Reachability]]:
    """The first of the receivers' handler entries for ``name`` and the
    call-graph closure from the methods they name; ``None`` when the
    receivers have no entry."""
    branches = [b for b in graph.branches_of(name)
                if b.cls in contract.receivers]
    if not branches:
        return None
    first = min(branches, key=lambda b: (b.path, b.line))
    return first, graph.reachable(protocol, [b.target for b in branches])


def _check_missing_reply(graph: MessageGraph,
                         contracts: Dict[str, Dict[str, MessageContract]],
                         ) -> List[Finding]:
    rule = RULES["PL004"]
    findings: List[Finding] = []
    for protocol in _active_protocols(graph, contracts):
        for name, contract in sorted(contracts[protocol].items()):
            if not contract.replies or name not in graph.messages:
                continue
            found = _handler_reach(graph, protocol, name, contract)
            if found is None:
                continue  # PL001 reports the missing entry
            first, reach = found
            if not reach.sends.intersection(contract.replies):
                findings.append(Finding(
                    rule=rule, path=first.path, line=first.line, col=1,
                    message=(f"no handler path for {name} sends any of "
                             f"its declared replies "
                             f"({', '.join(contract.replies)})")))
    return findings


def _check_retry_coverage(graph: MessageGraph,
                          contracts: Dict[str, Dict[str, MessageContract]],
                          ) -> List[Finding]:
    rule = RULES["PL005"]
    findings: List[Finding] = []
    for protocol in _active_protocols(graph, contracts):
        for name, contract in sorted(contracts[protocol].items()):
            if not contract.retried:
                continue
            for cls in graph.sender_classes(name):
                info = graph.classes.get(cls)
                if info is None or info.has_retry_machinery:
                    continue
                sites = [s for s in graph.sends_of(name) if s.cls == cls]
                first = min(sites, key=lambda s: (s.path, s.line))
                findings.append(Finding(
                    rule=rule, path=first.path, line=first.line,
                    col=first.col,
                    message=(f"{name} is declared retried, but {cls} "
                             f"sends it with no timer/RetryPolicy "
                             f"machinery in the class")))
    return findings


def _check_handler_mutation(graph: MessageGraph,
                            contracts: Dict[str, Dict[str, MessageContract]],
                            ) -> List[Finding]:
    rule = RULES["PL006"]
    findings: List[Finding] = []
    for protocol in _active_protocols(graph, contracts):
        for name, contract in sorted(contracts[protocol].items()):
            if not contract.dedup or name not in graph.messages:
                continue
            found = _handler_reach(graph, protocol, name, contract)
            if found is None:
                continue
            first, reach = found
            if reach.mutations and not reach.guards:
                where = min(reach.mutations)
                findings.append(Finding(
                    rule=rule, path=first.path, line=first.line, col=1,
                    message=(f"handlers for {name} mutate per-txn state "
                             f"(e.g. {where[0]}:{where[1]}) with no "
                             f"duplicate-delivery guard on any path; "
                             f"{name} is contract-marked dedup")))
    return findings


def _check_field_mismatch(graph: MessageGraph) -> List[Finding]:
    rule = RULES["PL007"]
    findings: List[Finding] = []
    for site in graph.constructs:
        if site.has_star:
            continue
        definition = graph.dataclasses[site.msg_type]
        names = [f.name for f in definition.fields]
        unknown = sorted(set(site.kwargs) - set(names))
        if unknown:
            findings.append(Finding(
                rule=rule, path=site.path, line=site.line, col=site.col,
                message=(f"{site.msg_type}(...) passes unknown field(s) "
                         f"{', '.join(unknown)} (defined at "
                         f"{definition.path}:{definition.line})")))
        if site.n_pos > len(names):
            findings.append(Finding(
                rule=rule, path=site.path, line=site.line, col=site.col,
                message=(f"{site.msg_type}(...) passes {site.n_pos} "
                         f"positional arguments, but only "
                         f"{len(names)} fields are defined")))
            continue
        covered = set(names[:site.n_pos]) | set(site.kwargs)
        missing = [f for f in definition.required_fields()
                   if f not in covered]
        if missing:
            findings.append(Finding(
                rule=rule, path=site.path, line=site.line, col=site.col,
                message=(f"{site.msg_type}(...) omits required field(s) "
                         f"{', '.join(missing)} (defined at "
                         f"{definition.path}:{definition.line})")))
    return findings


# ---------------------------------------------------------------------------
# Top-level lint API
# ---------------------------------------------------------------------------

def lint_graph(graph: MessageGraph,
               contracts: Optional[Dict[str, Dict[str, MessageContract]]]
               = None,
               keep_suppressed: bool = False) -> List[Finding]:
    """All protolint findings for an extracted graph."""
    if contracts is None:
        contracts = PROTOCOLS
    findings: List[Finding] = []
    findings.extend(_check_dead_letter(graph, contracts))
    findings.extend(_check_dead_handler(graph, contracts))
    findings.extend(_check_never_sent(graph, contracts))
    findings.extend(_check_missing_reply(graph, contracts))
    findings.extend(_check_retry_coverage(graph, contracts))
    findings.extend(_check_handler_mutation(graph, contracts))
    findings.extend(_check_field_mismatch(graph))
    if keep_suppressed:
        return findings
    suppressions = {path: parse_suppressions(text, tool="protolint")
                    for path, text in graph.sources.items()}
    return [f for f in findings
            if not is_suppressed(f, suppressions.get(f.path, {}))]


def lint_sources(sources: Dict[str, str],
                 contracts: Optional[Dict[str, Dict[str, MessageContract]]]
                 = None,
                 keep_suppressed: bool = False) -> List[Finding]:
    return lint_graph(build_graph(sources), contracts, keep_suppressed)


def lint_paths(paths: Optional[Sequence[str]] = None,
               contracts: Optional[Dict[str, Dict[str, MessageContract]]]
               = None,
               plant: Optional[str] = None,
               keep_suppressed: bool = False) -> List[Finding]:
    """Lint files/directories; the main entry point for the CLI."""
    sources = collect_sources(list(paths) if paths else default_paths())
    if plant is not None:
        sources = apply_plant(sources, plant)
    return lint_sources(sources, contracts, keep_suppressed)


# ---------------------------------------------------------------------------
# Planted bugs (self-check fixtures, mirroring ``repro chaos --plant-bug``)
# ---------------------------------------------------------------------------

_DEAD_HANDLER_ANCHOR = '        ClientHeartbeat: "on_heartbeat",\n'

_MISSING_REPLY_ANCHOR = (
    "        self.send(msg.src, TapirReadReply(\n"
    "            tid=msg.tid, partition_id=self.partition_id, "
    "values=values))\n")


def _plant_dead_handler(sources: Dict[str, str]) -> Dict[str, str]:
    """Delete ClientHeartbeat from the Carousel server's coordinator
    table."""
    return _replace_in(sources, "core/server.py",
                       _DEAD_HANDLER_ANCHOR, "")


def _plant_missing_reply(sources: Dict[str, str]) -> Dict[str, str]:
    """Drop the TAPIR replica's read reply."""
    return _replace_in(sources, "tapir/replica.py", _MISSING_REPLY_ANCHOR,
                       "        _ = values  # planted: reply dropped\n")


PLANT_BUGS = {
    "dead-handler": _plant_dead_handler,
    "missing-reply": _plant_missing_reply,
}


class PlantError(ValueError):
    """A plant that cannot be applied: unknown, or its anchor drifted."""


def _replace_in(sources: Dict[str, str], suffix: str, anchor: str,
                replacement: str) -> Dict[str, str]:
    for path in sorted(sources):
        if Path(path).as_posix().endswith(suffix):
            if anchor not in sources[path]:
                raise PlantError(
                    f"plant anchor not found in {path}; the source has "
                    f"drifted — update the plant in protolint.py")
            planted = dict(sources)
            planted[path] = sources[path].replace(anchor, replacement, 1)
            return planted
    raise PlantError(f"no scanned file matches {suffix!r} to plant into")


def apply_plant(sources: Dict[str, str], plant: str) -> Dict[str, str]:
    """Return a copy of ``sources`` with the named bug planted."""
    try:
        transform = PLANT_BUGS[plant]
    except KeyError:
        raise PlantError(
            f"unknown plant {plant!r}; choose from "
            f"{', '.join(sorted(PLANT_BUGS))}") from None
    return transform(sources)


# ---------------------------------------------------------------------------
# Message catalog (PROTOCOL.md generated section)
# ---------------------------------------------------------------------------

CATALOG_BEGIN = "<!-- protolint:catalog:begin -->"
CATALOG_END = "<!-- protolint:catalog:end -->"


def render_catalog(graph: MessageGraph) -> str:
    """Deterministic role -> sends/handles inventory, as markdown.

    Derived purely from the extracted graph (send sites and handler
    tables), so it cannot drift from the code; CI diffs it against
    PROTOCOL.md's marked section byte-for-byte.
    """
    lines: List[str] = [
        "Generated by `python -m repro protolint --catalog`. Do not edit",
        "by hand; regenerate with `--write-docs` after protocol changes.",
        "",
    ]
    protocols = sorted({d.protocol for d in graph.messages.values()})
    total = sum(1 for d in graph.messages.values()
                if d.protocol in protocols)
    lines.append(f"{total} message types across "
                 f"{len(protocols)} protocol(s).")
    for protocol in protocols:
        names = sorted(n for n, d in graph.messages.items()
                       if d.protocol == protocol)
        roles: set = set()
        for name in names:
            roles.update(graph.sender_classes(name))
            roles.update(graph.handler_classes(name))
        lines.extend(["", f"#### {protocol}", "",
                      "| role | sends | handles |",
                      "| --- | --- | --- |"])
        for role in sorted(roles):
            sends = sorted(n for n in names
                           if role in graph.sender_classes(n))
            handles = sorted(n for n in names
                             if role in graph.handler_classes(n))
            lines.append(f"| {role} "
                         f"| {', '.join(sends) or '—'} "
                         f"| {', '.join(handles) or '—'} |")
    return "\n".join(lines) + "\n"


def extract_doc_catalog(doc_text: str) -> Optional[str]:
    """The catalog section between the markers in a docs file."""
    try:
        head, rest = doc_text.split(CATALOG_BEGIN + "\n", 1)
        body, _tail = rest.split(CATALOG_END, 1)
    except ValueError:
        return None
    return body


def embed_catalog(doc_text: str, catalog: str) -> str:
    """Replace the marked section in a docs file with ``catalog``."""
    current = extract_doc_catalog(doc_text)
    if current is None:
        raise ValueError(
            f"docs file has no {CATALOG_BEGIN} ... {CATALOG_END} section")
    return doc_text.replace(CATALOG_BEGIN + "\n" + current + CATALOG_END,
                            CATALOG_BEGIN + "\n" + catalog + CATALOG_END, 1)
