"""In-memory versioned key-value store.

Each record has a version number that monotonically increases with
transactional writes (§3.3).  Reads of absent keys return version 0 and a
``None`` value, so OCC validation can detect a conflict even on keys that
did not exist when a transaction read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple


@dataclass(frozen=True)
class Record:
    """One versioned record: the value and the version that wrote it."""

    value: Any
    version: int


class VersionedKVStore:
    """A dictionary of :class:`Record` with monotonic version enforcement.

    The store itself is not thread- or transaction-aware: concurrency
    control lives in the OCC layer (:mod:`repro.core.occ`).  The store's
    contract is only that a key's version never decreases.
    """

    #: Version reported for keys that have never been written.
    MISSING_VERSION = 0

    def __init__(self) -> None:
        self._records: Dict[str, Record] = {}
        self.writes_applied = 0

    def read(self, key: str) -> Record:
        """The current record for ``key``; absent keys read as
        ``Record(None, 0)``."""
        record = self._records.get(key)
        if record is None:
            return Record(None, self.MISSING_VERSION)
        return record

    def read_versioned(self, keys: Iterable[str]
                       ) -> Dict[str, Tuple[Any, int]]:
        """``{key: (value, version)}`` for ``keys``: the payload every
        system's read reply carries."""
        values = {}
        for key in keys:
            record = self.read(key)
            values[key] = (record.value, record.version)
        return values

    def version(self, key: str) -> int:
        """Current version of ``key`` (0 when absent)."""
        return self.read(key).version

    def write(self, key: str, value: Any, version: int) -> None:
        """Install ``value`` at ``version``.

        Versions must strictly increase per key; an equal or lower version
        indicates a protocol bug (e.g. applying a writeback twice), so it
        raises rather than silently keeping either value.
        """
        current = self.version(key)
        if version <= current:
            raise ValueError(
                f"non-monotonic write to {key!r}: version {version} "
                f"<= current {current}")
        self._records[key] = Record(value, version)
        self.writes_applied += 1

    def write_if_newer(self, key: str, value: Any, version: int) -> bool:
        """Install the record only if ``version`` is newer; returns whether
        the write was applied.

        Used by writeback paths that may legitimately race with a newer
        committed transaction (e.g. a participant applying an old commit
        after a leader change).
        """
        if version <= self.version(key):
            return False
        self._records[key] = Record(value, version)
        self.writes_applied += 1
        return True

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def items(self) -> Iterator[Tuple[str, Record]]:
        """Iterate over (key, record) pairs."""
        return iter(self._records.items())

    def snapshot(self) -> Dict[str, Record]:
        """A shallow copy of the store contents (records are frozen)."""
        return dict(self._records)
