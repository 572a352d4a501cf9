"""The declared state machines: every ``TRANSITIONS`` table is well
formed, and :func:`repro.sim.node.goto` rejects what a table does not
declare while the protocol runs.

The tables are collected by reflection: the client class of every
:mod:`repro.systems` row (a fifth row's included) and ``RaftMember``.
"""

from collections import deque

import pytest

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.client import PHASE_DONE, PHASE_READ, TxnClient
from repro.raft.node import CANDIDATE, FOLLOWER, LEADER, RaftMember
from repro.runtime.conformance import conform_scenario
from repro.scenario import run
from repro.sim.node import goto
from repro.sim.topology import uniform_topology


class _Host:
    """Just enough of a ``RaftHost`` to construct a member."""

    node_id = "n0"

    def add_member(self, member):
        pass


def _member():
    return RaftMember(_Host(), "g0", ["n0", "n1", "n2"])


def _client_class(system):
    spec = DeploymentSpec(topology=uniform_topology(3, 10.0),
                          n_partitions=3)
    return type(systems.build(system, spec).clients[0])


#: Rows whose client machines are checked, a fifth row's included.
CLIENT_ROWS = systems.SYSTEMS + ("fifth-row",)


def _machine(name, request):
    """``(class declaring TRANSITIONS, the state it starts in)``."""
    if name == "raft":
        return RaftMember, _member().state
    if name == "fifth-row":
        name = request.getfixturevalue("fifth_system")
    cls = _client_class(name)
    return cls, cls.txn_class.phase


@pytest.fixture(params=CLIENT_ROWS + ("raft",))
def machine(request):
    return _machine(request.param, request)


def test_every_target_is_a_declared_state(machine):
    table = machine[0].TRANSITIONS
    assert {t for targets in table.values() for t in targets} <= set(table)


def test_the_initial_value_is_the_first_state(machine):
    cls, initial = machine
    assert initial == next(iter(cls.TRANSITIONS))


def test_every_state_is_reachable_from_the_initial_state(machine):
    cls, initial = machine
    seen, work = {initial}, deque([initial])
    while work:
        for target in cls.TRANSITIONS[work.popleft()]:
            if target not in seen:
                seen.add(target)
                work.append(target)
    assert seen == set(cls.TRANSITIONS)


@pytest.mark.parametrize("row", CLIENT_ROWS)
def test_a_client_starts_in_read_and_done_has_no_exits(row, request):
    cls, initial = _machine(row, request)
    assert initial == PHASE_READ
    assert cls.TRANSITIONS[PHASE_DONE] == ()


def test_goto_names_the_class_and_both_states():
    member = _member()
    assert goto(member, FOLLOWER, CANDIDATE) == CANDIDATE
    member._goto(LEADER)
    with pytest.raises(RuntimeError, match="RaftMember has no transition "
                       "'leader' -> 'candidate'"):
        member._goto(CANDIDATE)
    assert member.state == LEADER


@pytest.mark.parametrize("system", systems.SYSTEMS)
def test_done_to_read_planted_in_the_shell_is_caught(system, monkeypatch):
    """A shell bug that sends a finished transaction back to its read
    round (``done -> read``) stops the first DES run that completes one,
    on every client."""
    complete = TxnClient._complete

    def planted(self, txn, committed, reason):
        complete(self, txn, committed, reason)
        self._goto(txn, PHASE_READ)

    monkeypatch.setattr(TxnClient, "_complete", planted)
    with pytest.raises(RuntimeError, match=f"{_client_class(system).__name__}"
                       " has no transition 'done' -> 'read'"):
        run(conform_scenario(system, 0, rounds=2))
