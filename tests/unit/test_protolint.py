"""protolint rule tests: every rule PL001-PL004 fires on a fixture, the
corpus folds causal chains into replies, the real tree is clean, and the
planted-bug self-checks detect the plants.

Fixtures are a minimal request/reply protocol — two ``Message``
subclasses, a server and a client table — checked against a
purpose-built contract and a hand-made :class:`Corpus`; the tree-level
tests run the shipped contracts against the imported tables and the
traced corpus.
"""

from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.protolint import (CATALOG_BEGIN, CATALOG_END, Corpus,
                                      MessageContract, PlantError,
                                      check_corpus, check_tables, corpus,
                                      embed_catalog, extract_doc_catalog,
                                      lint, messages, render_catalog)
from repro.core.messages import ClientHeartbeat
from repro.core.server import CarouselServer
from repro.sim.message import Message
from repro.trace.tracer import MessageAnn


class Req(Message):
    """Fixture request."""


class Rep(Message):
    """Fixture reply."""


class Server:
    HANDLERS = {Req: "on_req"}


class Client:
    HANDLERS = {Rep: "on_rep"}


CATALOG = {"carousel": {"Rep": Rep, "Req": Req}}

ENTRIES = [(Client, "HANDLERS", Rep, "on_rep"),
           (Server, "HANDLERS", Req, "on_req")]

CONTRACT = {"carousel": {
    "Req": MessageContract(("Server",), replies=("Rep",)),
    "Rep": MessageContract(("Client",)),
}}


def observed(sent=("Req", "Rep"), answered=("Req",)):
    """A corpus that sent ``sent`` once each and answered ``answered``."""
    return Corpus(edges=Counter({(None, "Client", name, "Server"): 1
                                 for name in sent}),
                  sent=Counter(sent), answered=set(answered))


def found(contracts=CONTRACT, catalog=CATALOG, entries=ENTRIES,
          corpus_=None):
    """``(code, message)`` pairs for the fixture, sorted."""
    findings = check_tables(contracts, catalog, entries)
    findings += check_corpus(contracts, catalog, corpus_ or observed())
    return sorted((f.rule.code, f.message) for f in findings)


def test_clean_fixture_protocol_has_no_findings():
    assert found() == []


# ----------------------------------------------------------------------
# PL001 dead-letter
# ----------------------------------------------------------------------
def test_pl001_receiver_without_branch():
    entries = [e for e in ENTRIES if e[0] is not Server]
    assert any(code == "PL001" and "Server has no handler entry" in msg
               for code, msg in found(entries=entries))


def test_pl001_message_missing_from_contract():
    contracts = {"carousel": {"Req": CONTRACT["carousel"]["Req"]}}
    assert any(code == "PL001" and
               "Rep is not declared in the carousel contract" in msg
               for code, msg in found(contracts=contracts))


def test_pl001_contract_entry_without_message():
    contracts = {"carousel": dict(CONTRACT["carousel"],
                                  Ghost=MessageContract(("Server",)))}
    assert any(code == "PL001" and "Ghost" in msg
               for code, msg in found(contracts=contracts))


# ----------------------------------------------------------------------
# PL002 dead-handler
# ----------------------------------------------------------------------
def test_pl002_branch_in_non_receiver_class():
    class Bystander:
        HANDLERS = {Rep: "on_rep"}

    entries = ENTRIES + [(Bystander, "HANDLERS", Rep, "on_rep")]
    assert found(entries=entries) == [
        ("PL002", "Bystander.HANDLERS handles Rep, but Bystander is not "
                  "a declared receiver (Client)")]


# ----------------------------------------------------------------------
# PL003 unexercised
# ----------------------------------------------------------------------
def test_pl003_never_observed_sent():
    assert found(corpus_=observed(sent=("Req",))) == [
        ("PL003", "Rep was never sent in the corpus (unexercised)")]


# ----------------------------------------------------------------------
# PL004 missing-reply
# ----------------------------------------------------------------------
def test_pl004_handler_path_without_reply():
    assert any(code == "PL004" and "Req was sent 1 time(s)" in msg
               for code, msg in found(corpus_=observed(answered=())))


def ann(msg_type, src, dst, parent=None, tid=None, at=0.0):
    return MessageAnn(0, parent, tid, msg_type, src, "dc0", dst, "dc0",
                      64, False, at, at + 1.0, 0)


def record(*anns):
    """Fold ``anns`` (one traced run of server ``s``, follower ``f`` and
    client ``c``) into a fresh corpus; return its answered requests."""
    tracer = SimpleNamespace(orphan_messages=list(anns),
                             transactions=lambda: [])
    nodes = {"s": Server(), "f": Server(), "c": Client()}
    folded = Corpus()
    folded.record(tracer, nodes, {"Rep": ("Req",)})
    return folded.answered


def test_pl004_reply_through_raft_commit_chain_is_clean():
    req = ann("Req", "c", "s")
    append = ann("AppendEntries", "s", "f", parent=req)
    ack = ann("AppendEntriesReply", "f", "s", parent=append)
    assert record(req, append, ack, ann("Rep", "s", "c", parent=ack)) \
        == {"Req"}
    # The same chain, but the reply leaves another node.
    assert record(req, append, ack, ann("Rep", "f", "c", parent=ack)) \
        == set()


def test_pl004_reply_joined_by_transaction_is_clean():
    req = ann("Req", "c", "s", tid="t1")
    other = ann("Other", "c", "s", tid="t1", at=5.0)
    assert record(req, other, ann("Rep", "s", "c", parent=other,
                                  tid="t1", at=6.0)) == {"Req"}
    assert record(req, other, ann("Rep", "s", "c", parent=other,
                                  tid="t2", at=6.0)) == set()


# ----------------------------------------------------------------------
# Tree-level checks and planted-bug self-checks
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    assert lint() == []


def test_corpus_sends_every_message_type():
    names = {name for names in messages().values() for name in names}
    assert len(names) == 33
    assert {name for name, count in corpus().sent.items() if count} \
        == names


def test_plant_dead_handler_fires_pl001():
    findings = lint("dead-handler")
    assert any(f.rule.code == "PL001" and "ClientHeartbeat" in f.message
               for f in findings)
    assert ClientHeartbeat in CarouselServer.COORDINATOR_HANDLERS


def test_plant_missing_reply_fires_pl004():
    findings = lint("missing-reply")
    assert any(f.rule.code == "PL004" and "Writeback was sent" in f.message
               for f in findings)


def test_unknown_plant_rejected():
    with pytest.raises(PlantError, match="unknown plant"):
        lint("nonsense")


def test_plant_anchor_drift_raises(monkeypatch):
    monkeypatch.delitem(CarouselServer.COORDINATOR_HANDLERS,
                        ClientHeartbeat)
    with pytest.raises(PlantError, match="no ClientHeartbeat entry"):
        lint("dead-handler")


def test_catalog_matches_protocol_md_byte_for_byte():
    doc = Path("PROTOCOL.md").read_text(encoding="utf-8")
    assert extract_doc_catalog(doc) == render_catalog(corpus())


def test_embed_catalog_round_trip():
    doc = (f"# Title\n\n{CATALOG_BEGIN}\nold\n{CATALOG_END}\n\ntail\n")
    updated = embed_catalog(doc, "new catalog\n")
    assert extract_doc_catalog(updated) == "new catalog\n"
    assert updated.startswith("# Title")
    assert updated.endswith("tail\n")
    with pytest.raises(ValueError, match="no .* section"):
        embed_catalog("no markers", "x\n")
