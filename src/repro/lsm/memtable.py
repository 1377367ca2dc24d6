"""The in-memory write buffer: last-write-wins puts and tombstoned deletes.

Every write enters the tree here.  A :class:`MemTable` is a bounded
key → entry map (``True`` = live put, ``False`` = tombstone) with
last-write-wins semantics: a put over a delete resurrects the key, a
delete over a put buries it, and only the *final* state of each key
survives into the flush.  Deletes are first-class entries — a delete of a
key this memtable never saw still records a tombstone, because the key
may live in an SST below and the tombstone must shadow it until
compaction proves otherwise.

:meth:`seal` snapshots the buffer into an immutable sorted
:class:`~repro.lsm.merge.EntryRun` — the unit the flush path turns into a
level-0 SST — and empties the memtable for the next write burst.

Keys may be integers or byte/``str`` strings (one kind per memtable):
byte keys are canonicalised exactly like :class:`~repro.workloads.
bytekeys.ByteKeySet` does (utf-8 encode, strip trailing nulls) and the
sealed run carries a byte key set, so the whole write path stays in the
string representation.  Integer keys are range-checked as the user wrote
them and then held in the form :func:`~repro.workloads.batch.
probe_key_array` gives a lookup's probes: the int64 stored form up to 64
bits, their canonical big-endian bytes beyond.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.lsm.merge import EntryRun
from repro.workloads.batch import (
    MAX_INT64_WIDTH,
    EncodedKeySet,
    coerce_keys,
    int_key_bytes,
    stored_offset,
)
from repro.workloads.bytekeys import _clean_key

__all__ = ["MemTable"]

#: Default write-buffer capacity in entries.
DEFAULT_CAPACITY = 512


class MemTable:
    """A bounded, mutable key → live/tombstone map in a ``width``-bit space."""

    __slots__ = ("width", "capacity", "_entries", "_top", "_offset")

    def __init__(self, width: int, capacity: int = DEFAULT_CAPACITY):
        if width <= 0:
            raise ValueError("key width must be positive")
        if capacity < 1:
            raise ValueError("memtable capacity must be at least 1 entry")
        self.width = width
        self.capacity = capacity
        self._entries: dict = {}
        self._top = (1 << width) - 1
        self._offset = stored_offset(width)

    def _check_key(self, key):
        """One key as the map holds it: what a lookup's probe array holds."""
        if isinstance(key, (bytes, str)):
            raw = _clean_key(key)
            if 8 * len(raw) > self.width:
                raise ValueError(
                    f"key {raw!r} outside the {self.width}-bit key space"
                )
            return raw
        key = int(key)
        if not 0 <= key <= self._top:
            raise ValueError(f"key {key} outside the {self.width}-bit key space")
        if self.width > MAX_INT64_WIDTH:
            return int_key_bytes([key], self.width)[0]
        return key - self._offset

    def put(self, key) -> None:
        """Record ``key`` as live (overwriting any buffered tombstone)."""
        self._entries[self._check_key(key)] = True

    def delete(self, key) -> None:
        """Record a tombstone for ``key`` (overwriting any buffered put)."""
        self._entries[self._check_key(key)] = False

    def apply(self, ops: Iterable[tuple]) -> None:
        """Apply ``("put", key)`` / ``("del", key)`` ops in order."""
        for op, key in ops:
            if op == "put":
                self.put(key)
            elif op == "del":
                self.delete(key)
            else:
                raise ValueError(f"unknown write op {op!r}; expected 'put' or 'del'")

    def get(self, key) -> bool | None:
        """``True`` if buffered live, ``False`` if tombstoned, ``None`` if absent."""
        return self._entries.get(self._check_key(key))

    def get_many(self, keys: list) -> np.ndarray:
        """Buffered state per key as ``int8``: 1 live, 0 tombstoned, -1 absent.

        The batch form of :meth:`get` for keys that are already validated
        and canonical — the elements of a
        :func:`~repro.workloads.batch.probe_key_array` result — so each
        key costs one plain dict lookup.
        """
        get = self._entries.get
        return np.fromiter((get(key, -1) for key in keys), dtype=np.int8, count=len(keys))

    def sample_key(self):
        """Any one buffered key, or ``None`` when empty.

        The read path's representation probe: a memtable holds one kind
        of key (``bytes`` or ``int``), so a single sample tells a caller
        which probe representation this tree expects before any SST
        exists to reveal it.
        """
        return next(iter(self._entries), None)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def is_full(self) -> bool:
        """Has the buffer reached its flush threshold?"""
        return len(self._entries) >= self.capacity

    @property
    def num_tombstones(self) -> int:
        return sum(1 for live in self._entries.values() if not live)

    def seal(self) -> EntryRun:
        """Snapshot the buffer as a sorted run and clear it for reuse.

        The run holds one entry per distinct key — the last write wins by
        construction of the underlying map — with tombstones marked.
        Sealing an empty memtable is an error; the flush path checks
        ``is_empty`` first.
        """
        if not self._entries:
            raise ValueError("cannot seal an empty memtable")
        items = sorted(self._entries.items())
        keys = [key for key, _ in items]
        tombstones = np.array([not live for _, live in items], dtype=bool)
        self._entries = {}
        # Keys are already canonical, sorted, and distinct, so the key set
        # keeps the order the tombstone mask was built in: byte keys
        # coerce to a ByteKeySet, stored integers wrap as they are.
        if isinstance(keys[0], bytes):
            key_set = coerce_keys(keys, self.width)
        else:
            key_set = EncodedKeySet._trusted(np.array(keys, dtype=np.int64), self.width)
        return EntryRun(key_set, tombstones)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemTable(entries={len(self)}, tombstones={self.num_tombstones}, "
            f"capacity={self.capacity}, width={self.width})"
        )
