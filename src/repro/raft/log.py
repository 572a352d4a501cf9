"""The replicated log.

Indexing follows the Raft paper: the first entry has index 1, and index 0
is a sentinel with term 0.  Commands are opaque to the log; Carousel stores
its prepare/commit records in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.wal.records import install_at


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One replicated log entry."""

    term: int
    index: int
    command: Any


class RaftLog:
    """An append-only log with Raft's truncate-on-conflict semantics."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        if not self._entries:
            return 0
        return self._entries[-1].term

    def term_at(self, index: int) -> Optional[int]:
        """Term of the entry at ``index``; 0 for the sentinel, None if the
        log has no entry there."""
        if index == 0:
            return 0
        if 1 <= index <= len(self._entries):
            return self._entries[index - 1].term
        return None

    def entry_at(self, index: int) -> LogEntry:
        """The entry at 1-based ``index`` (IndexError if absent)."""
        if not 1 <= index <= len(self._entries):
            raise IndexError(f"no log entry at index {index}")
        return self._entries[index - 1]

    def append_new(self, term: int, command: Any) -> LogEntry:
        """Append a new command at the next index (leader-side append)."""
        entry = LogEntry(term, self.last_index + 1, command)
        self._entries.append(entry)
        return entry

    def entries_from(self, start_index: int) -> List[LogEntry]:
        """Entries at ``start_index`` and later (for AppendEntries)."""
        if start_index < 1:
            start_index = 1
        return list(self._entries[start_index - 1:])

    def matches(self, index: int, term: int) -> bool:
        """Raft's consistency check: does the entry at ``index`` have
        ``term``?"""
        actual = self.term_at(index)
        return actual is not None and actual == term

    def splice(self, prev_index: int,
               entries: List[LogEntry]) -> List[LogEntry]:
        """Install replicated ``entries`` after ``prev_index``.

        Entries that already match (same index and term) are kept; the first
        conflict truncates the tail, after which the remaining new entries
        are appended.  This is the follower-side AppendEntries rule.

        Returns the entries actually installed (appended or conflict-
        replacing) so the host can journal exactly the mutations that
        happened — re-delivered heartbeats that change nothing return ``[]``.
        """
        installed: List[LogEntry] = []
        for offset, entry in enumerate(entries):
            index = prev_index + 1 + offset
            existing_term = self.term_at(index)
            if existing_term is None:
                self._entries.append(entry)
                installed.append(entry)
            elif existing_term != entry.term:
                del self._entries[index - 1:]
                self._entries.append(entry)
                installed.append(entry)
            # else: identical entry already present; keep it.
        return installed

    def install_at(self, entry: LogEntry) -> bool:
        """WAL-replay install (:func:`repro.wal.records.install_at`)."""
        return install_at(self._entries, entry)

    def all_entries(self) -> List[LogEntry]:
        """A copy of the whole log."""
        return list(self._entries)
