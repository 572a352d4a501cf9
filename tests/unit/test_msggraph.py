"""Message-graph extraction tests: defs, sends, handler tables, closures.

Each fixture is a minimal module (or pair of modules) exercising one
extraction path; paths carry a ``core/`` fragment so the fixtures land in
the ``carousel`` protocol.  The tree-level tests at the bottom pin the
extracted inventory of the real protocol packages.
"""

import textwrap

from repro.analysis.msggraph import (build_graph, build_graph_from_paths,
                                     collect_sources, protocol_of)
from repro.analysis.protolint import default_paths

MESSAGES = textwrap.dedent("""
    from dataclasses import dataclass

    @dataclass
    class Ping(Message):
        tid: int = 0
        payload: str = ""

    @dataclass
    class Pong(Message):
        tid: int = 0

    @dataclass
    class Record:
        tid: int
        decision: str
        writes: tuple = ()
""")


def graph_of(**modules):
    """Build a graph from ``{basename: source}`` fixture modules."""
    sources = {f"fx/core/{name}.py": textwrap.dedent(text)
               for name, text in modules.items()}
    return build_graph(sources)


def test_protocol_of_path_fragments():
    assert protocol_of("src/repro/core/server.py") == "carousel"
    assert protocol_of("src/repro/layered/client.py") == "layered"
    assert protocol_of("src/repro/tapir/replica.py") == "tapir"
    assert protocol_of("src/repro/raft/node.py") == "raft"
    assert protocol_of("src/repro/sim/kernel.py") == "misc"


def test_message_and_dataclass_defs():
    g = graph_of(messages=MESSAGES)
    assert set(g.messages) == {"Ping", "Pong"}
    assert set(g.dataclasses) == {"Ping", "Pong", "Record"}
    ping = g.messages["Ping"]
    assert ping.protocol == "carousel"
    assert [f.name for f in ping.fields] == ["tid", "payload"]
    assert all(f.has_default for f in ping.fields)
    record = g.dataclasses["Record"]
    assert not record.is_message
    assert record.required_fields() == ("tid", "decision")


def test_direct_send_site():
    g = graph_of(messages=MESSAGES, node="""
        class Client:
            def go(self, dst):
                self.send(dst, Ping(tid=1))
    """)
    (site,) = g.sends_of("Ping")
    assert site.cls == "Client"
    assert site.func == "go"
    (ctor,) = g.constructs_of("Ping")
    assert ctor.sent


def test_variable_bound_send_marks_construct_sent():
    g = graph_of(messages=MESSAGES, node="""
        class Client:
            def go(self, dst):
                msg = Ping(tid=1)
                self.send(dst, msg)

            def build_only(self):
                local = Pong(tid=2)
                return local
    """)
    (ping,) = g.constructs_of("Ping")
    assert ping.sent
    (pong,) = g.constructs_of("Pong")
    assert not pong.sent
    assert [s.msg_type for s in g.sends] == ["Ping"]


def test_branch_extraction_from_handler_tables():
    g = graph_of(messages=MESSAGES, node="""
        class Host:
            PARTITION_HANDLERS = {
                Ping: "on_ping",
            }
            COORDINATOR_HANDLERS = {Ping: "coord_ping", Pong: "on_pong"}

            def on_ping(self, msg):
                self.send(msg.src, Pong(tid=msg.tid))
    """)
    assert [(b.table, b.msg_type, b.target, b.line) for b in g.branches] \
        == [("PARTITION_HANDLERS", "Ping", "on_ping", 4),
            ("COORDINATOR_HANDLERS", "Ping", "coord_ping", 6),
            ("COORDINATOR_HANDLERS", "Pong", "on_pong", 6)]
    assert all(b.cls == "Host" for b in g.branches)
    assert g.handler_classes("Pong") == ["Host"]
    # The closure starts at the method a table names.
    reach = g.reachable("carousel", [b.target for b in g.branches_of("Ping")])
    assert reach.sends == {"Pong"}


def test_unknown_types_in_isinstance_are_ignored():
    # Only ``*HANDLERS`` dict literals in a class body are dispatch: an
    # isinstance chain, a non-message key, a differently named dict and a
    # module-level table all contribute nothing.
    g = graph_of(messages=MESSAGES, node="""
        HANDLERS = {Ping: "on_ping"}

        class Host:
            HANDLERS = {SomethingElse: "on_other", str: "on_str"}
            ROUTES = {Ping: "on_ping"}

            def handle_message(self, msg):
                if isinstance(msg, Ping):
                    self.on_ping(msg)
    """)
    assert g.branches == []


def test_sends_in_nested_defs_attach_to_outer_function():
    g = graph_of(messages=MESSAGES, node="""
        class Server:
            def on_request(self, msg):
                def replicated(_):
                    self.send(msg.src, Pong(tid=msg.tid))
                self.propose(replicated)
                self.other(lambda: self.send(msg.src, Ping()))
    """)
    info = g.functions[("carousel", "on_request")]
    assert info.sends == {"Pong", "Ping"}
    assert "propose" in info.calls


def test_guards_and_mutations_collected():
    g = graph_of(messages=MESSAGES, node="""
        class Server:
            def guarded(self, msg):
                if msg.tid in self.finished:
                    return
                self.pending.setdefault(msg.tid, [])
                if self.inflight.get(msg.tid) == self.term:
                    return

            def mutating(self, msg):
                self.log.append(msg)
                self.seen.add(msg.tid)
                self.counter += 1
    """)
    guarded = g.functions[("carousel", "guarded")]
    assert len(guarded.guard_sites) >= 3
    mutating = g.functions[("carousel", "mutating")]
    kinds = sorted(k for _, _, k in mutating.mutation_sites)
    assert kinds == ["add", "append", "augassign"]


def test_retry_machinery_detection():
    g = graph_of(messages=MESSAGES, node="""
        class WithTimer:
            def arm(self):
                self.set_timer(10.0, self.fire)

        class WithPolicy:
            def delay(self):
                return self.config.retry_policy.delay_ms(1)

        class Bare:
            def nothing(self):
                return 1
    """)
    assert g.classes["WithTimer"].has_retry_machinery
    assert g.classes["WithPolicy"].has_retry_machinery
    assert not g.classes["Bare"].has_retry_machinery


def test_construct_site_kwargs_positional_and_star():
    g = graph_of(messages=MESSAGES, node="""
        def build(extra):
            a = Record(1, "commit")
            b = Record(tid=2, decision="abort", writes=())
            c = Record(**extra)
            return a, b, c
    """)
    sites = g.constructs_of("Record")
    assert [s.n_pos for s in sites] == [2, 0, 0]
    assert sites[1].kwargs == ("tid", "decision", "writes")
    assert [s.has_star for s in sites] == [False, False, True]


def test_collect_sources_walks_directories(tmp_path):
    pkg = tmp_path / "core"
    pkg.mkdir()
    (pkg / "a.py").write_text("X = 1\n")
    (pkg / "b.py").write_text("Y = 2\n")
    (tmp_path / "single.py").write_text("Z = 3\n")
    sources = collect_sources([str(pkg), str(tmp_path / "single.py")])
    assert sorted(p.split("/")[-1] for p in sources) == \
        ["a.py", "b.py", "single.py"]


# ----------------------------------------------------------------------
# Tree-level inventory pins
# ----------------------------------------------------------------------
def test_tree_graph_inventory():
    g = build_graph_from_paths(default_paths())
    assert len(g.messages) == 33
    assert g.protocols() == ["carousel", "layered", "raft", "tapir"]
    # Every message type is dispatched somewhere and sent somewhere.
    for name in g.messages:
        assert g.branches_of(name), f"{name} has no handler entry"
        assert g.sends_of(name), f"{name} is never sent"


def test_tree_raft_host_table():
    g = build_graph_from_paths(default_paths())
    (host,) = [b for b in g.branches_of("AppendEntries")
               if b.cls == "RaftHost"]
    assert (host.table, host.target) == ("HANDLERS", "_to_member")
    (member,) = [b for b in g.branches_of("AppendEntries")
                 if b.cls == "RaftMember"]
    assert member.target == "_on_append_entries"
