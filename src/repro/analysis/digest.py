"""The divergence bisector's compared log: a traced run, one line a send.

:func:`send_log` renders a :class:`~repro.trace.tracer.Tracer`'s send
log (:meth:`~repro.trace.tracer.Tracer.sends`) and ends it with the
run's op counters:

* ``S t=<ms> at=<ms> <src>-><dst> <type> bytes=<n> tid=<tid> msg=<id>
  parent=<id>`` — one send: when it left and when it arrives, its
  endpoints, payload type and wire bytes, the owning transaction, and
  the message's causal parent (``None`` at a chain's root);
* ``C <name>=<value>`` — one kernel or transport counter, so a
  divergence that changes no send (a timer, an RNG draw) still shows.

Two runs of the same scenario under the same kernel seed must produce
identical logs regardless of ``PYTHONHASHSEED``; the first differing
line localizes a determinism bug to the send where hash order (or some
other process-environment input) leaked into the simulation.  The log
is deliberately compact — no payload contents.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List


def send_log(tracer: Any, counters: Dict[str, int]) -> List[str]:
    """The ``S`` line of every send ``tracer`` recorded, in send order,
    then a ``C`` line per counter in ``counters``."""
    lines = []
    for ann in tracer.sends():
        parent = None if ann.parent is None else ann.parent.msg_id
        lines.append(
            f"S t={ann.send_ms:.6f} at={ann.recv_ms:.6f} "
            f"{ann.src}->{ann.dst} {ann.msg_type} bytes={ann.size_bytes} "
            f"tid={ann.tid} msg={ann.msg_id} parent={parent}")
    lines.extend(f"C {name}={value}"
                 for name, value in sorted(counters.items()))
    return lines


def write_log(path: str, lines: List[str]) -> None:
    """Write a log, one record per line."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_log(path: str) -> List[str]:
    """Read a log written by :func:`write_log`."""
    text = Path(path).read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line]


def parse_send_fields(record: str) -> dict:
    """Parse the ``key=value`` fields of an ``S`` record (plus ``route``
    and ``type``); returns ``{}`` for any other record."""
    if not record.startswith("S "):
        return {}
    parts = record.split()
    fields: dict = {"route": parts[3], "type": parts[4]}
    for part in parts[1:]:
        if "=" in part:
            key, __, value = part.partition("=")
            fields[key] = value
    return fields
