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

The type registry is built by importing the protocol message modules and
collecting every dataclass they define; the round-trip property suite
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
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.sim.message import Message

#: Modules whose dataclasses go on the wire: the four protocols' message
#: modules plus the payload dataclasses they embed (transaction ids,
#: partition key sets, Raft log entries and the commands they carry —
#: including the new-leader no-op from ``repro.raft.node`` — the
#: replicated command records, and the pending-list entries a Carousel
#: Raft vote carries for §4.3.3 leader recovery).
PAYLOAD_MODULES = (
    "repro.txn",
    "repro.raft.log",
    "repro.raft.node",
    "repro.raft.messages",
    "repro.core.messages",
    "repro.core.occ",
    "repro.core.records",
    "repro.layered.messages",
    "repro.tapir.messages",
)

#: Frames above this size are refused on both ends — a corrupted length
#: prefix must not make the reader try to buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class WireError(ValueError):
    """Unknown type tag, oversized frame, or malformed payload."""


def _collect_registry() -> Dict[str, Type]:
    registry: Dict[str, Type] = {}
    for module_name in PAYLOAD_MODULES:
        module = importlib.import_module(module_name)
        for name, obj in sorted(vars(module).items()):
            if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
                continue
            if obj.__module__ != module_name:
                continue  # re-exported from elsewhere (e.g. PartitionSets)
            existing = registry.get(name)
            if existing is not None and existing is not obj:
                raise WireError(
                    f"wire type name collision: {name} defined in both "
                    f"{existing.__module__} and {module_name}")
            registry[name] = obj
    return registry


_REGISTRY: Optional[Dict[str, Type]] = None


def registry() -> Dict[str, Type]:
    """Type-name -> dataclass for every wire-encodable type (cached)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _collect_registry()
    return _REGISTRY


def register_extra(cls: Type) -> Type:
    """Register a dataclass outside :data:`PAYLOAD_MODULES` (used by the
    runtime's control frames).  Returns ``cls`` so it works as a
    decorator."""
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls!r} is not a dataclass")
    reg = registry()
    existing = reg.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise WireError(f"wire type name collision: {cls.__name__}")
    reg[cls.__name__] = cls
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


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value`."""
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
            return cls(**{name: decode_value(v)
                          for name, v in obj["f"].items()})
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


def _build_message(envelope: dict) -> Message:
    if "t" not in envelope:
        raise WireError("frame has no message type")
    cls = registry().get(envelope["t"])
    if cls is None or not issubclass(cls, Message):
        raise WireError(f"unknown wire message type {envelope['t']!r}")
    msg = cls(**{name: decode_value(v)
                 for name, v in envelope.get("p", {}).items()})
    msg.src = envelope.get("src")
    msg.dst = envelope.get("dst")
    msg.sent_at = envelope.get("at")
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
