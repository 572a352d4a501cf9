"""protolint rule tests: every rule PL001-PL007 fires on a fixture, the
real tree is clean, and the planted-bug self-checks detect the plants.

Fixtures are minimal protocol modules under a ``core/`` path (so they
land in the ``carousel`` protocol) checked against purpose-built
contracts; the tree-level tests run the shipped contracts against the
real protocol packages.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.msggraph import build_graph
from repro.analysis.protolint import (CATALOG_BEGIN, CATALOG_END,
                                      MessageContract,
                                      apply_plant, default_paths,
                                      embed_catalog, extract_doc_catalog,
                                      lint_paths, lint_sources,
                                      render_catalog)

MESSAGES = textwrap.dedent("""
    from dataclasses import dataclass

    @dataclass
    class Req(Message):
        tid: int = 0

    @dataclass
    class Rep(Message):
        tid: int = 0
""")

#: A complete, conformant fixture protocol: Client sends Req (with a
#: retry timer), Server handles it behind a dedup guard and replies Rep,
#: Client handles Rep.
CLEAN_NODE = textwrap.dedent("""
    class Server:
        HANDLERS = {Req: "on_req"}

        def on_req(self, msg):
            if msg.tid in self.seen:
                return
            self.seen.add(msg.tid)
            self.send(msg.src, Rep(tid=msg.tid))

    class Client:
        HANDLERS = {Rep: "on_rep"}

        def on_rep(self, msg):
            self.done[msg.tid] = msg

        def go(self, dst):
            self.send(dst, Req(tid=1))
            self.set_timer(10.0, self.go)
""")

CONTRACT = {"carousel": {
    "Req": MessageContract(("Server",), replies=("Rep",),
                           retried=True, dedup=True),
    "Rep": MessageContract(("Client",)),
}}

def run(contracts=CONTRACT, **modules):
    """Lint fixture modules, return sorted (code, path:line) pairs."""
    sources = {f"fx/core/{name}.py": textwrap.dedent(text)
               for name, text in modules.items()}
    findings = lint_sources(sources, contracts=contracts)
    return sorted((f.rule.code, f.message) for f in findings)


def codes(contracts=CONTRACT, **modules):
    return sorted(code for code, _ in run(contracts=contracts, **modules))


def test_clean_fixture_protocol_has_no_findings():
    assert run(messages=MESSAGES, node=CLEAN_NODE) == []


# ----------------------------------------------------------------------
# PL001 dead-letter
# ----------------------------------------------------------------------
def test_pl001_receiver_without_branch():
    node = CLEAN_NODE.replace('HANDLERS = {Req: "on_req"}', "HANDLERS = {}")
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL001" and "Server has no handler entry" in msg
               for code, msg in found)


def test_pl001_message_missing_from_contract():
    contracts = {"carousel": {"Req": CONTRACT["carousel"]["Req"]}}
    found = run(contracts=contracts, messages=MESSAGES, node=CLEAN_NODE)
    assert any(code == "PL001" and
               "Rep is not declared in the carousel contract" in msg
               for code, msg in found)


def test_pl001_contract_entry_without_message():
    contracts = {"carousel": dict(CONTRACT["carousel"],
                                  Ghost=MessageContract(("Server",)))}
    found = run(contracts=contracts, messages=MESSAGES, node=CLEAN_NODE)
    assert any(code == "PL001" and "Ghost" in msg for code, msg in found)


# ----------------------------------------------------------------------
# PL002 dead-handler
# ----------------------------------------------------------------------
def test_pl002_branch_in_non_receiver_class():
    node = CLEAN_NODE + textwrap.dedent("""
        class Bystander:
            HANDLERS = {Rep: "on_rep"}

            def on_rep(self, msg):
                self.x = msg
    """)
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL002" and "Bystander" in msg
               for code, msg in found)


def test_pl002_branch_for_never_sent_type():
    node = CLEAN_NODE.replace("        self.send(dst, Req(tid=1))\n",
                              "")
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL002" and "never sent anywhere" in msg
               for code, msg in found)


# ----------------------------------------------------------------------
# PL003 never-sent
# ----------------------------------------------------------------------
def test_pl003_constructed_but_never_sent():
    node = CLEAN_NODE.replace(
        "        self.send(dst, Req(tid=1))\n",
        "        queued = Req(tid=1)\n"
        "        self.backlog.append(queued)\n")
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL003" and "constructed but never sent" in msg
               for code, msg in found)


def test_pl003_never_constructed():
    node = CLEAN_NODE.replace("        self.send(dst, Req(tid=1))\n",
                              "")
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL003" and "never constructed" in msg
               for code, msg in found)


# ----------------------------------------------------------------------
# PL004 missing-reply
# ----------------------------------------------------------------------
def test_pl004_handler_path_without_reply():
    node = CLEAN_NODE.replace(
        "        self.send(msg.src, Rep(tid=msg.tid))\n",
        "        self.log.append(msg)\n")
    # Keep Rep constructible/sendable elsewhere so only PL004 fires.
    node += textwrap.dedent("""
        class Other:
            def poke(self, dst):
                self.send(dst, Rep(tid=9))
                self.set_timer(1.0, self.poke)
    """)
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL004" and "Req" in msg for code, msg in found)


def test_pl004_reply_through_helper_closure_is_clean():
    node = CLEAN_NODE.replace(
        "        self.send(msg.src, Rep(tid=msg.tid))\n",
        "        self.finish(msg)\n") + textwrap.dedent("""
        class ServerHelpers:
            def finish(self, msg):
                def replicated(_):
                    self.send(msg.src, Rep(tid=msg.tid))
                self.propose(replicated)
    """)
    assert run(messages=MESSAGES, node=node) == []


# ----------------------------------------------------------------------
# PL005 no-retry-coverage
# ----------------------------------------------------------------------
def test_pl005_retried_sender_without_timer():
    node = CLEAN_NODE.replace(
        "        self.set_timer(10.0, self.go)\n", "")
    found = run(messages=MESSAGES, node=node)
    assert found == [("PL005",
                      "Req is declared retried, but Client sends it with "
                      "no timer/RetryPolicy machinery in the class")]


def test_pl005_retry_policy_reference_counts_as_cover():
    node = CLEAN_NODE.replace(
        "        self.set_timer(10.0, self.go)\n",
        "        self.config.retry_policy.delay_ms(0)\n")
    assert run(messages=MESSAGES, node=node) == []


def test_pl005_base_class_machinery_covers_the_subclass():
    # The retry timer lives in a shared shell class the sender inherits.
    node = CLEAN_NODE.replace(
        "        self.set_timer(10.0, self.go)\n", "").replace(
        "class Client:", "class Client(Shell):")
    shell = """
        class Shell:
            def arm(self):
                self.set_timer(10.0, self.fire)
    """
    assert run(messages=MESSAGES, node=node, shell=shell) == []
    bare = shell.replace("self.set_timer(10.0, self.fire)", "pass")
    assert codes(messages=MESSAGES, node=node, shell=bare) == ["PL005"]


# ----------------------------------------------------------------------
# PL006 handler-mutation
# ----------------------------------------------------------------------
def test_pl006_unguarded_mutation_in_dedup_handler():
    node = CLEAN_NODE.replace(
        "        if msg.tid in self.seen:\n"
        "            return\n", "")
    found = run(messages=MESSAGES, node=node)
    assert any(code == "PL006" and "duplicate-delivery guard" in msg
               for code, msg in found)


def test_pl006_guard_anywhere_on_path_is_clean():
    assert run(messages=MESSAGES, node=CLEAN_NODE) == []


def test_pl006_not_checked_without_dedup_contract():
    contracts = {"carousel": {
        "Req": MessageContract(("Server",), replies=("Rep",),
                               retried=True, dedup=False),
        "Rep": MessageContract(("Client",)),
    }}
    node = CLEAN_NODE.replace(
        "        if msg.tid in self.seen:\n"
        "            return\n", "")
    assert not any(code == "PL006" for code, _ in
                   run(contracts=contracts, messages=MESSAGES, node=node))


# ----------------------------------------------------------------------
# PL007 field-mismatch
# ----------------------------------------------------------------------
RECORDS = textwrap.dedent("""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Decision:
        tid: int
        verdict: str
        writes: tuple = ()
""")


def pl007(body):
    contracts = {"carousel": {}}
    return [msg for code, msg in
            run(contracts=contracts, records=RECORDS,
                node="def build(extra):\n" + textwrap.indent(
                    textwrap.dedent(body), "    "))
            if code == "PL007"]


def test_pl007_unknown_keyword():
    (msg,) = pl007('return Decision(tid=1, verdict="c", extra_field=2)')
    assert "unknown field(s) extra_field" in msg


def test_pl007_missing_required_field():
    (msg,) = pl007("return Decision(tid=1)")
    assert "omits required field(s) verdict" in msg


def test_pl007_too_many_positionals():
    (msg,) = pl007('return Decision(1, "c", (), "extra")')
    assert "4 positional arguments" in msg


def test_pl007_valid_and_star_calls_are_clean():
    assert pl007('a = Decision(1, "c")\n'
                 'b = Decision(tid=2, verdict="a", writes=())\n'
                 'c = Decision(**extra)\n'
                 'return a, b, c') == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_protolint_suppression_by_code_and_slug():
    node = CLEAN_NODE.replace(
        "        self.set_timer(10.0, self.go)\n", "")
    suppressed = node.replace(
        "        self.send(dst, Req(tid=1))\n",
        "        self.send(dst, Req(tid=1))  "
        "# protolint: ignore[PL005]\n")
    sources = {"fx/core/messages.py": MESSAGES,
               "fx/core/node.py": suppressed}
    assert lint_sources(sources, contracts=CONTRACT) == []
    kept = lint_sources(sources, contracts=CONTRACT,
                        keep_suppressed=True)
    assert [f.rule.code for f in kept] == ["PL005"]


def test_detlint_comment_does_not_silence_protolint():
    node = CLEAN_NODE.replace(
        "        self.set_timer(10.0, self.go)\n", "")
    annotated = node.replace(
        "        self.send(dst, Req(tid=1))\n",
        "        self.send(dst, Req(tid=1))  "
        "# detlint: ignore[PL005]\n")
    sources = {"fx/core/messages.py": MESSAGES,
               "fx/core/node.py": annotated}
    findings = lint_sources(sources, contracts=CONTRACT)
    assert [f.rule.code for f in findings] == ["PL005"]


# ----------------------------------------------------------------------
# Tree-level checks and planted-bug self-checks
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    assert lint_paths() == []


def test_plant_dead_handler_fires_pl001():
    findings = lint_paths(plant="dead-handler")
    assert any(f.rule.code == "PL001" and "ClientHeartbeat" in f.message
               for f in findings)


def test_plant_missing_reply_fires_pl004():
    findings = lint_paths(plant="missing-reply")
    assert any(f.rule.code == "PL004" and "TapirRead" in f.message
               for f in findings)


def test_unknown_plant_rejected():
    with pytest.raises(ValueError, match="unknown plant"):
        apply_plant({"core/x.py": ""}, "nonsense")


def test_plant_anchor_drift_raises():
    with pytest.raises(ValueError, match="anchor not found"):
        apply_plant({"fx/core/server.py": "nothing here\n"},
                    "dead-handler")


def test_catalog_matches_protocol_md_byte_for_byte():
    graph = build_graph(
        {p: Path(p).read_text(encoding="utf-8")
         for paths in [default_paths()]
         for d in paths for p in map(str, sorted(Path(d).rglob("*.py")))})
    catalog = render_catalog(graph)
    doc = Path("PROTOCOL.md").read_text(encoding="utf-8")
    assert extract_doc_catalog(doc) == catalog


def test_embed_catalog_round_trip():
    doc = (f"# Title\n\n{CATALOG_BEGIN}\nold\n{CATALOG_END}\n\ntail\n")
    updated = embed_catalog(doc, "new catalog\n")
    assert extract_doc_catalog(updated) == "new catalog\n"
    assert updated.startswith("# Title")
    assert updated.endswith("tail\n")
    with pytest.raises(ValueError, match="no .* section"):
        embed_catalog("no markers", "x\n")
