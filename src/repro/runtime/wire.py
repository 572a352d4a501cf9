"""Length-prefixed wire codec for the protocol ``Message`` dataclasses.

The asyncio/TCP backend ships the *existing* message dataclasses — no
parallel protobuf schema to drift from the simulator's types.  A message
is encoded as a compact JSON envelope::

    {"t": "ReadReply", "src": ..., "dst": ..., "at": 12.5, "p": {...}}

framed with a 4-byte big-endian length prefix.  Field payloads use a
tagged encoding that round-trips every value shape the protocols put in
messages (the determinism linter already bans sets in payloads, but the
codec still handles them for completeness):

=============  =======================================================
JSON shape     Python value
=============  =======================================================
null/bool/str  as themselves
number         ``int`` or finite ``float`` (JSON distinguishes 1/1.0)
array          ``list``
{"__t": [...]} ``tuple``
{"__b": s}     ``bytes`` (base64)
{"__f": s}     non-finite ``float`` (``"inf"``/``"-inf"``/``"nan"``)
{"__s"/"__fs"} ``set`` / ``frozenset`` (sorted by repr)
{"__d": [[k,v],...]}  ``dict`` (keys may be any encodable value)
{"__dc": name, "f": {...}}  registered dataclass (``TID``,
               ``PartitionSets``, ``LogEntry``, WAL/Raft records...)
=============  =======================================================

**Typed decode.**  Encoding is generic, but decoding is not: every
registered dataclass gets one decoder per field, built once from the
field's annotation when the registry is built.  The shapes are ``bool``,
``int``, ``str``, a nested registered dataclass (``TID``...),
``Dict``/``List``/``FrozenSet``, fixed and variadic ``Tuple``, and
``Any``; an annotation outside that set makes the registry build raise
:class:`WireError`, so a new message shape fails when the codec loads
rather than on the first frame that carries it.  A field whose value
does not have its declared shape is a :class:`WireError`.

**Interning.**  Every string decoded in a ``str``-typed position — a
``str`` field, a dict key or tuple element declared ``str``,
``TID.client_id``, the ``str`` fields of a record nested inside an
``Any`` value (``LogEntry.command``), and the envelope's ``src``/``dst``
— goes through :func:`sys.intern`.  Keys, node, partition and client ids
and decision tags are a small vocabulary repeated in every frame, and
follower logs, pending lists and stores keep them: interned, each
process holds one object per identifier, as the DES does by sharing the
sender's message.  Values in ``Any`` positions (store values,
``writes``, ``ReadReply.values``) are user data and stay fresh copies:
interning them would fold a workload's repeated values into one object
and measure the generator, not the system.

The type registry is built by importing the protocol message modules and
collecting their dataclasses; the round-trip property suite
(``tests/property/test_wire_roundtrip.py``) cross-checks the registry
against the ``Message`` subclasses protolint reads
(:func:`repro.analysis.protolint.messages`) so a newly added message type
cannot silently miss wire coverage.  Decoding is total: any malformed
frame raises :class:`WireError` and nothing else.
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import json
import math
import struct
import sys
import typing
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type

from repro.sim.message import Message

#: Where the wire's dataclasses live: each module with the names it
#: contributes (``None``: every dataclass it defines).  These are the
#: four protocols' message modules plus the payload dataclasses they
#: embed (transaction ids, partition key sets, Raft log entries and the
#: commands they carry — including the new-leader no-op from
#: ``repro.raft.node`` — the replicated command records, and the
#: pending-list entries a Carousel Raft vote carries for §4.3.3 leader
#: recovery).  ``repro.txn``'s other dataclasses never cross the wire
#: (``TransactionSpec`` carries a callable).
PAYLOAD_MODULES: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...] = (
    ("repro.txn", ("TID",)),
    ("repro.raft.log", None),
    ("repro.raft.node", ("RaftNoop",)),
    ("repro.raft.messages", None),
    ("repro.core.messages", None),
    ("repro.core.occ", None),
    ("repro.core.records", None),
    ("repro.layered.messages", None),
    ("repro.tapir.messages", None),
)

#: Frames above this size are refused on both ends — a corrupted length
#: prefix must not make the reader try to buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

#: One field decoder: JSON-decoded value in, Python value out.
_Decoder = Callable[[Any], Any]


class WireError(ValueError):
    """Unknown type tag, oversized frame, or malformed payload."""


def _payload_types() -> Iterable[Type]:
    for module_name, names in PAYLOAD_MODULES:
        module = importlib.import_module(module_name)
        for name, obj in sorted(vars(module).items()):
            if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
                continue
            if obj.__module__ != module_name:
                continue  # re-exported from elsewhere (e.g. PartitionSets)
            if names is None or name in names:
                yield obj


#: Type name -> registered dataclass, and each one's field decoders;
#: both filled on first use of :func:`registry`.
_REGISTRY: Dict[str, Type] = {}
_FIELDS: Dict[Type, Dict[str, _Decoder]] = {}


def _register(classes: Iterable[Type]) -> None:
    """Add ``classes`` to the registry with their field decoders.  All or
    nothing: a name collision or an annotation without a decoder raises
    :class:`WireError` and registers none of them."""
    new: Dict[str, Type] = {}
    for cls in classes:
        existing = new.get(cls.__name__, _REGISTRY.get(cls.__name__))
        if existing is not None and existing is not cls:
            raise WireError(
                f"wire type name collision: {cls.__name__} defined in both "
                f"{existing.__module__} and {cls.__module__}")
        new[cls.__name__] = cls
    tables: Dict[Type, Dict[str, _Decoder]] = {cls: {} for cls in new.values()}

    def table_of(cls: Type) -> Dict[str, _Decoder]:
        table = tables.get(cls, _FIELDS.get(cls))
        if table is None:
            raise WireError(f"field type {cls.__module__}.{cls.__name__} "
                            "is not a registered wire dataclass")
        return table

    for cls, table in tables.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            table[f.name] = _decoder(hints[f.name], table_of,
                                     f"{cls.__name__}.{f.name}")
    _REGISTRY.update(new)
    _FIELDS.update(tables)


def registry() -> Dict[str, Type]:
    """Type-name -> dataclass for every wire-encodable type (cached)."""
    if not _REGISTRY:
        _register(_payload_types())
    return _REGISTRY


def register_extra(cls: Type) -> Type:
    """Register a dataclass outside :data:`PAYLOAD_MODULES` (used by the
    runtime's control frames).  Returns ``cls`` so it works as a
    decorator."""
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls!r} is not a dataclass")
    if registry().get(cls.__name__) is not cls:
        _register([cls])
    return cls


def message_type_names() -> Tuple[str, ...]:
    """Names of the registered :class:`Message` subclasses, sorted."""
    return tuple(sorted(name for name, cls in registry().items()
                        if issubclass(cls, Message)))


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Recursively encode ``value`` into the tagged JSON-safe form."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # pragma: no cover - caught above
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {"__f": repr(value)}
    if isinstance(value, bytes):
        return {"__b": base64.b64encode(value).decode("ascii")}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {"__t": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        # Insertion-order pairs; keys need not be strings (TID keys).
        return {"__d": [[encode_value(k), encode_value(v)]
                        for k, v in value.items()]}
    if isinstance(value, frozenset):
        return {"__fs": [encode_value(item)
                         for item in sorted(value, key=repr)]}
    if isinstance(value, set):
        return {"__s": [encode_value(item)
                        for item in sorted(value, key=repr)]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if registry().get(name) is not type(value):
            raise WireError(f"unregistered dataclass on the wire: "
                            f"{type(value).__module__}.{name}")
        fields = {f.name: encode_value(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__dc": name, "f": fields}
    raise WireError(f"unencodable value on the wire: {value!r} "
                    f"({type(value).__name__})")


# ---------------------------------------------------------------------------
# Typed decoding
# ---------------------------------------------------------------------------

def _mismatch(expected: str, obj: Any) -> WireError:
    return WireError(f"expected {expected}, got {obj!r:.80}")


def _decode_bool(obj: Any) -> bool:
    if obj is True or obj is False:
        return obj
    raise _mismatch("a bool", obj)


def _decode_int(obj: Any) -> int:
    if type(obj) is int:
        return obj
    raise _mismatch("an int", obj)


def _decode_str(obj: Any) -> str:
    if type(obj) is str:
        return sys.intern(obj)
    raise _mismatch("a string", obj)


def _items(obj: Any, tag: str) -> list:
    """The item list of a tagged container ``{tag: [...]}``."""
    if type(obj) is dict:
        items = obj.get(tag)
        if type(items) is list:
            return items
    raise _mismatch(f"a {tag!r}-tagged list", obj)


def _build(cls: Type, table: Dict[str, _Decoder], fields: Any) -> Any:
    """``cls`` from its encoded field object, each field through its
    decoder; an omitted field takes the dataclass default."""
    if type(fields) is not dict:
        raise _mismatch(f"the fields of a {cls.__name__}", fields)
    kwargs = {}
    for name, value in fields.items():
        decode = table.get(name)
        if decode is None:
            raise WireError(f"unknown field {cls.__name__}.{name!s:.80}")
        kwargs[name] = decode(value)
    return cls(**kwargs)


def _dataclass_decoder(cls: Type, table: Dict[str, _Decoder]) -> _Decoder:
    name = cls.__name__

    def decode(obj: Any) -> Any:
        if type(obj) is not dict or obj.get("__dc") != name:
            raise _mismatch(f"a {name}", obj)
        return _build(cls, table, obj.get("f"))
    return decode


def _list_decoder(item: _Decoder) -> _Decoder:
    def decode(obj: Any) -> list:
        if type(obj) is not list:
            raise _mismatch("a list", obj)
        return [item(x) for x in obj]
    return decode


def _tuple_decoder(item: _Decoder) -> _Decoder:
    def decode(obj: Any) -> tuple:
        return tuple([item(x) for x in _items(obj, "__t")])
    return decode


def _fixed_tuple_decoder(items: Tuple[_Decoder, ...]) -> _Decoder:
    width = len(items)

    def decode(obj: Any) -> tuple:
        values = _items(obj, "__t")
        if len(values) != width:
            raise _mismatch(f"a {width}-tuple", obj)
        return tuple([item(x) for item, x in zip(items, values)])
    return decode


def _frozenset_decoder(item: _Decoder) -> _Decoder:
    def decode(obj: Any) -> frozenset:
        return frozenset([item(x) for x in _items(obj, "__fs")])
    return decode


def _dict_decoder(key: _Decoder, value: _Decoder) -> _Decoder:
    def decode(obj: Any) -> dict:
        out = {}
        for pair in _items(obj, "__d"):
            if type(pair) is not list or len(pair) != 2:
                raise _mismatch("a [key, value] pair", pair)
            out[key(pair[0])] = value(pair[1])
        return out
    return decode


_SCALARS: Dict[Any, _Decoder] = {
    bool: _decode_bool, int: _decode_int, str: _decode_str,
}


def _decoder(annotation: Any,
             table_of: Callable[[Type], Dict[str, _Decoder]],
             where: str) -> _Decoder:
    """The decoder for one field annotation (see the module docstring for
    the shapes); anything else is a :class:`WireError` naming ``where``."""
    if annotation is Any:
        return decode_value
    scalar = _SCALARS.get(annotation)
    if scalar is not None:
        return scalar
    if isinstance(annotation, type) and dataclasses.is_dataclass(annotation):
        return _dataclass_decoder(annotation, table_of(annotation))
    origin = typing.get_origin(annotation)
    shape = typing.get_args(annotation)
    if origin in (dict, list, frozenset, tuple) and shape:
        variadic = len(shape) == 2 and shape[1] is Ellipsis
        args = [_decoder(arg, table_of, where)
                for arg in (shape[:1] if variadic else shape)]
        if origin is dict and len(args) == 2:
            return _dict_decoder(*args)
        if origin is list and len(args) == 1:
            return _list_decoder(args[0])
        if origin is frozenset and len(args) == 1:
            return _frozenset_decoder(args[0])
        if origin is tuple:
            return (_tuple_decoder(args[0]) if variadic
                    else _fixed_tuple_decoder(tuple(args)))
    raise WireError(f"{where}: no wire decoder for the annotation "
                    f"{annotation!r}")


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value` for a value of unknown type (an
    ``Any`` field).  Its strings stay fresh objects; a dataclass inside
    it decodes through its typed decoders, interning included."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [decode_value(item) for item in obj]
    if isinstance(obj, dict):
        if "__t" in obj:
            return tuple(decode_value(item) for item in obj["__t"])
        if "__d" in obj:
            return {decode_value(k): decode_value(v)
                    for k, v in obj["__d"]}
        if "__b" in obj:
            return base64.b64decode(obj["__b"])
        if "__f" in obj:
            return float(obj["__f"])
        if "__s" in obj:
            return {decode_value(item) for item in obj["__s"]}
        if "__fs" in obj:
            return frozenset(decode_value(item) for item in obj["__fs"])
        if "__dc" in obj:
            cls = registry().get(obj["__dc"])
            if cls is None:
                raise WireError(f"unknown wire dataclass {obj['__dc']!r}")
            return _build(cls, _FIELDS[cls], obj.get("f"))
        raise WireError(f"malformed tagged value: {sorted(obj)}")
    raise WireError(f"undecodable JSON shape: {obj!r}")


# ---------------------------------------------------------------------------
# Message envelopes and framing
# ---------------------------------------------------------------------------

def encode_message(msg: Message) -> bytes:
    """Serialize one message (payload fields plus routing envelope)."""
    name = type(msg).__name__
    cls = registry().get(name)
    if cls is not type(msg):
        raise WireError(f"unregistered message type on the wire: "
                        f"{type(msg).__module__}.{name}")
    payload = {f.name: encode_value(getattr(msg, f.name))
               for f in dataclasses.fields(msg)}
    envelope = {"t": name, "src": msg.src, "dst": msg.dst,
                "at": msg.sent_at, "p": payload}
    return json.dumps(envelope, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def parse_frame(data: bytes, build: Callable[[dict], Any]) -> Any:
    """``build(envelope)`` for one JSON frame.  Every way a frame can be
    malformed — bad UTF-8 or JSON, a non-object envelope, an unknown tag,
    wrong or missing fields, nesting past the recursion limit — raises
    :class:`WireError`, the one error a transport reader drops a frame
    for."""
    try:
        envelope = json.loads(data.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise WireError("frame is not a JSON object")
        return build(envelope)
    except WireError:
        raise
    except Exception as exc:  # the peer's bytes, not a bug here
        raise WireError(f"malformed frame: {type(exc).__name__}: "
                        f"{exc}") from None


def _decode_address(obj: Any) -> Optional[str]:
    return None if obj is None else _decode_str(obj)


def _build_message(envelope: dict) -> Message:
    if "t" not in envelope:
        raise WireError("frame has no message type")
    cls = registry().get(envelope["t"])
    if cls is None or not issubclass(cls, Message):
        raise WireError(f"unknown wire message type {envelope['t']!r}")
    msg = _build(cls, _FIELDS[cls], envelope.get("p", {}))
    msg.src = _decode_address(envelope.get("src"))
    msg.dst = _decode_address(envelope.get("dst"))
    sent_at = envelope.get("at")
    if not (sent_at is None or type(sent_at) in (int, float)):
        raise _mismatch("a send time", sent_at)
    msg.sent_at = sent_at
    return msg


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`."""
    return parse_frame(data, _build_message)


def frame(data: bytes) -> bytes:
    """Prefix ``data`` with its 4-byte big-endian length."""
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(data)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap")
    return _LEN.pack(len(data)) + data


async def read_frame(reader) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None


def roundtrip(msg: Message) -> Message:
    """Encode then decode (test helper)."""
    return decode_message(encode_message(msg))
