"""Wire-codec round-trip properties over every protocol message type.

The asyncio/TCP backend ships the simulator's own ``Message`` dataclasses
(:mod:`repro.runtime.wire`), so the codec must round-trip *every* message
type of all four protocols, bit-for-bit at the field level.  Strategies
here are derived from the dataclasses' own type annotations, and the
registry is cross-checked against the ``Message`` subclasses the
protocol packages define (:func:`repro.analysis.protolint.messages`): a
newly added message type that the codec cannot encode fails this suite
instead of failing in production.
"""

import dataclasses
import math
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.protolint import messages
from repro.core.messages import PartitionSets, ReadPrepareRequest, Writeback
from repro.core.occ import PendingTxn
from repro.core.records import PrepareRecord
from repro.raft.log import LogEntry
from repro.raft.messages import AppendEntries, RequestVote
from repro.runtime import wire
from repro.runtime.harness import decode_control
from repro.sim.message import Message
from repro.txn import TID

# ----------------------------------------------------------------------
# Strategies derived from the dataclass annotations
# ----------------------------------------------------------------------

_text = st.text(max_size=12)
_ints = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)

_tid = st.builds(TID, client_id=st.text(min_size=1, max_size=8),
                 seq=st.integers(min_value=0, max_value=10_000))

#: Wire-encodable values for ``Any``-typed fields (``LogEntry.command``,
#: vote payloads...).  NaN is excluded so dataclass equality works; the
#: non-finite floats get their own explicit test below.
_any_value = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _ints,
        st.floats(allow_nan=False, allow_infinity=False),
        _text, st.binary(max_size=12), _tid),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.one_of(_text, _tid), children, max_size=3),
        st.frozensets(st.one_of(_ints, _text), max_size=3)),
    max_leaves=8)


def _strategy_for(annotation):
    """A hypothesis strategy for one field annotation."""
    if annotation is bool:
        return st.booleans()
    if annotation is int:
        return _ints
    if annotation is str:
        return _text
    if annotation is typing.Any:
        return _any_value
    if annotation is TID:
        return _tid
    if dataclasses.is_dataclass(annotation):
        return _dataclass_strategy(annotation)
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is dict:
        return st.dictionaries(_strategy_for(args[0]),
                               _strategy_for(args[1]), max_size=3)
    if origin is list:
        return st.lists(_strategy_for(args[0]), max_size=3)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=3).map(tuple)
        return st.tuples(*[_strategy_for(a) for a in args])
    raise NotImplementedError(
        f"no strategy for field annotation {annotation!r} — extend "
        "test_wire_roundtrip._strategy_for alongside the new field type")


def _dataclass_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: _strategy_for(hints[f.name])
                             for f in dataclasses.fields(cls)})


def _message_types():
    reg = wire.registry()
    return [reg[name] for name in wire.message_type_names()]


_envelope = st.tuples(st.text(min_size=1, max_size=8),
                      st.text(min_size=1, max_size=8),
                      st.floats(min_value=0, max_value=1e9,
                                allow_nan=False))


# ----------------------------------------------------------------------
# Coverage: the registry must match the protocols' messages
# ----------------------------------------------------------------------

def test_registry_covers_every_graph_message():
    """Every message type protolint checks must be wire-encodable (and
    vice versa), so adding a message without wire coverage is caught."""
    protocol_names = {name for names in messages().values()
                      for name in names}
    wire_names = set(wire.message_type_names())
    assert wire_names == protocol_names, (
        f"only on wire: {sorted(wire_names - protocol_names)}; "
        f"only in the protocols: {sorted(protocol_names - wire_names)}")


def test_registry_spans_all_four_protocols():
    modules = {cls.__module__ for cls in _message_types()}
    assert {"repro.core.messages", "repro.raft.messages",
            "repro.layered.messages", "repro.tapir.messages"} <= modules


# ----------------------------------------------------------------------
# Round-trip properties, one per message type
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cls", _message_types(),
                         ids=lambda cls: cls.__name__)
def test_roundtrip_every_message_type(cls):
    """Generated instances of every registered message type survive
    encode -> frame -> decode with all fields and the envelope equal."""

    @settings(max_examples=25, deadline=None)
    @given(msg=_dataclass_strategy(cls), envelope=_envelope)
    def check(msg, envelope):
        msg.src, msg.dst, msg.sent_at = envelope
        data = wire.encode_message(msg)
        assert len(wire.frame(data)) == len(data) + 4
        back = wire.decode_message(data)
        assert type(back) is cls
        assert back == msg
        assert (back.src, back.dst, back.sent_at) == envelope

    check()


# ----------------------------------------------------------------------
# Value-level edge cases the equality-based property cannot cover
# ----------------------------------------------------------------------

def test_nonfinite_floats_roundtrip():
    out = wire.decode_value(wire.encode_value(
        [math.inf, -math.inf, math.nan]))
    assert out[0] == math.inf and out[1] == -math.inf
    assert math.isnan(out[2])


def test_int_float_distinction_survives():
    out = wire.decode_value(wire.encode_value([1, 1.0]))
    assert [type(v) for v in out] == [int, float]


def test_tid_dict_keys_roundtrip():
    table = {TID("c1", 3): "commit", TID("c2", 7): "abort"}
    assert wire.decode_value(wire.encode_value(table)) == table


def test_log_entry_with_partition_sets_roundtrips():
    entry = LogEntry(term=2, index=5, command=PartitionSets(
        read_keys=("a", "b"), write_keys=("c",)))
    assert wire.decode_value(wire.encode_value(entry)) == entry


def test_unknown_message_type_is_wire_error():
    with pytest.raises(wire.WireError):
        wire.decode_message(b'{"t":"NoSuchMessage","p":{}}')


def test_oversized_frame_is_refused():
    with pytest.raises(wire.WireError):
        wire.frame(b"x" * (wire.MAX_FRAME_BYTES + 1))


def test_unregistered_dataclass_is_wire_error():
    @dataclasses.dataclass
    class Rogue:
        x: int = 0

    with pytest.raises(wire.WireError):
        wire.encode_value(Rogue())


def test_exactly_the_advertised_message_count():
    """33 message types across the four protocols; a drop here means a
    message module fell out of PAYLOAD_MODULES."""
    assert len(wire.message_type_names()) == 33
    assert all(issubclass(wire.registry()[n], Message)
               for n in wire.message_type_names())


def test_pending_list_vote_payload_roundtrips():
    """A §4.3.3 vote carries the candidate's pending list, so CPC leader
    recovery needs ``PendingTxn`` on the wire."""
    pending = (PendingTxn(tid=TID("c1", 4), read_keys=frozenset({"a", "b"}),
                          write_keys=frozenset({"b"}),
                          read_versions=(("a", 2), ("b", 0)), term=2,
                          coordinator_id="s0", provisional=True),)
    vote = RequestVote(group_id="p0", term=3, candidate_id="s1",
                       last_log_index=7, last_log_term=2,
                       pending_payload=pending)
    assert wire.roundtrip(vote) == vote


# ----------------------------------------------------------------------
# Interning: str-typed positions share one object, Any values do not
# ----------------------------------------------------------------------

def _twice(msg):
    msg.src, msg.dst, msg.sent_at = "s0", "s1", 1.5
    data = wire.encode_message(msg)
    return wire.decode_message(data), wire.decode_message(data)


def test_str_typed_positions_decode_to_one_shared_object():
    a, b = _twice(ReadPrepareRequest(
        tid=TID("client-7", 3), partition_id="p0", coordinator_id="s0",
        coord_group_id="p1", read_keys=("user:000012", "user:000034"),
        write_keys=("user:000034",)))
    assert a is not b and a == b
    for left, right in [(a.partition_id, b.partition_id),
                        (a.src, b.src), (a.dst, b.dst),
                        (a.tid.client_id, b.tid.client_id),
                        *zip(a.read_keys, b.read_keys)]:
        assert left is right
    a, b = _twice(Writeback(tid=TID("client-7", 3), partition_id="p0",
                            decision="commit",
                            writes={"user:000012": 1, "user:000034": 2}))
    for left, right in zip(a.writes, b.writes):
        assert left is right
    assert a.decision is b.decision


def test_records_inside_any_are_interned_too():
    a, b = (wire.decode_message(_replicating_append()) for _ in range(2))
    for left, right in zip(a.entries, b.entries):
        assert left.command.partition_id is right.command.partition_id
        assert left.command.tid.client_id is right.command.tid.client_id


def test_any_typed_values_stay_distinct_objects():
    value = "v" * 64
    a, b = _twice(Writeback(tid=TID("c1", 1), partition_id="p0",
                            decision="commit", writes={"k": value}))
    assert a.writes["k"] == b.writes["k"] == value
    assert a.writes["k"] is not b.writes["k"]


@pytest.mark.parametrize("annotation", [
    float, typing.Optional[str], dict, typing.Tuple[str, ..., int],
    typing.Callable[[int], int], typing.Set[str],
], ids=["float", "optional", "bare-dict", "bad-ellipsis", "callable",
        "set"])
def test_undecodable_annotation_fails_registration(annotation):
    @dataclasses.dataclass
    class Rogue:
        x: annotation = None

    with pytest.raises(wire.WireError, match="Rogue.x"):
        wire.register_extra(Rogue)
    assert "Rogue" not in wire.registry()


# ----------------------------------------------------------------------
# Malformed frames: every one is a WireError, nothing else escapes
# ----------------------------------------------------------------------

def _replicating_append() -> bytes:
    entries = [LogEntry(term=2, index=i, command=PrepareRecord(
        tid=TID("c1", i), partition_id="p0", decision="prepared",
        read_keys=("a", "b"), write_keys=("b",),
        read_versions=(("a", 3), ("b", 1)), term=2, coordinator_id="s0",
        coord_group_id="p1")) for i in range(1, 4)]
    return wire.encode_message(AppendEntries(
        group_id="p0", term=2, leader_id="s0", prev_log_index=0,
        prev_log_term=0, entries=entries, leader_commit=1))


def _mangled(data: bytes, rng: random.Random):
    """Truncations and single-bit flips of ``data``."""
    for _ in range(200):
        yield data[:rng.randrange(len(data))]
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        yield bytes(flipped)


@pytest.mark.parametrize("decode", [wire.decode_message, decode_control],
                         ids=["message", "control"])
def test_mangled_frames_decode_or_raise_wire_error(decode):
    data = _replicating_append()
    if decode is decode_control:
        data = b'{"c":"CtlShutdown","f":' + data + b"}"
    for frame in _mangled(data, random.Random(0)):
        try:
            decode(frame)
        except wire.WireError:
            pass


@pytest.mark.parametrize("frame", [
    b'{"t":"ReadReply","p":{"bogus":1}}',
    b'{"t":"TID","p":{"client_id":"c","seq":1}}',
    b'{"t":"ReadReply","p":{"values":{"__d":[[1]]}}}',
    b'{"t":"ReadReply","p":{"values":{"__d":[[[1],2]]}}}',
    b'{"t":["ReadReply"]}',
    b'{"c":"CtlShutdown","f":{"bogus":1}}',
    b'{"c":"CtlShutdown","f":[]}',
    b"[" * 100_000 + b"]" * 100_000,
    b'"just a string"',
    b'{"t":"ReadReply","p":{"partition_id":["p0"]}}',
    b'{"t":"TapirRead","p":{"keys":{"__t":[1,2]}}}',
    b'{"t":"ReadReply","p":{"tid":"c1"}}',
], ids=["unknown-field", "not-a-message", "short-pair", "unhashable-key",
        "unhashable-tag", "control-unknown-field", "control-fields-list",
        "deep-nesting", "not-an-object", "str-field-list",
        "str-tuple-ints", "tid-field-string"])
def test_malformed_frame_is_wire_error(frame):
    decode = decode_control if frame.startswith(b'{"c"') \
        else wire.decode_message
    with pytest.raises(wire.WireError):
        decode(frame)
