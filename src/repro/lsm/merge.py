"""Compaction merges: newest-wins k-way merge of sorted entry runs.

A *run* is a sorted distinct key array plus a parallel tombstone mask —
what a sealed memtable, an L0 flush, or a level's SST sequence holds.
Compaction merges several runs (ordered newest first) into one: for every
key, the newest run's entry wins (a shallower put or delete *shadows*
every deeper entry for the same key), and when the merge feeds the
deepest populated level, surviving tombstones are dropped entirely — there
is nothing below left for them to shadow.

:func:`merge_entry_runs` is one ``np.concatenate`` over the runs and a
single sort-and-dedupe pass: integer runs (``int64`` in their stored form,
whose order is the keys' order) go through the
:func:`repro.kernels.merge_runs` ``lexsort`` kernel (so instrumented
compactions count ``kernels.dispatch.{backend}.merge_runs``), byte runs
through one stable ``argsort``.  ``tests/test_batch_parity.py`` pins both
to a ``heapq.merge`` reference.

:func:`merge_key_sets` is the tombstone-free specialisation behind
``SSTable.merge_sorted``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.workloads.batch import EncodedKeySet
from repro.workloads.bytekeys import ByteKeySet
from repro.workloads.keyset import KeySet

__all__ = [
    "EntryRun",
    "merge_entry_runs",
    "merge_key_sets",
]


class EntryRun:
    """One sorted run of entries: distinct keys plus a tombstone mask.

    ``keys`` is any :class:`~repro.workloads.keyset.KeySet` (sorted,
    distinct, bounds-checked); ``tombstones`` a parallel boolean array —
    ``None`` means every entry is a live put.  Runs are immutable value
    carriers between the memtable, flush, and compaction layers.
    """

    __slots__ = ("keys", "tombstones")

    def __init__(self, keys: KeySet, tombstones: np.ndarray | None = None):
        if tombstones is not None:
            tombstones = np.asarray(tombstones, dtype=bool)
            if tombstones.shape != (len(keys),):
                raise ValueError(
                    f"tombstone mask of shape {tombstones.shape} does not match "
                    f"{len(keys)} keys"
                )
            if not tombstones.any():
                tombstones = None
        self.keys = keys
        self.tombstones = tombstones

    @classmethod
    def _trusted(cls, keys: KeySet, tombstones: np.ndarray | None) -> "EntryRun":
        """Wrap ``keys`` and a tombstone mask without checking them again.

        The caller vouches for what the constructor enforces: the mask
        matches ``keys`` and is ``None`` when no entry is a tombstone, as
        an :class:`~repro.lsm.sstable.SSTable`'s mask always is.
        """
        run = cls.__new__(cls)
        run.keys = keys
        run.tombstones = tombstones
        return run

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def width(self) -> int:
        return self.keys.width

    def tombstone_mask(self) -> np.ndarray:
        """The tombstone mask, materialised (all-False when ``None``)."""
        if self.tombstones is None:
            return np.zeros(len(self.keys), dtype=bool)
        return self.tombstones

    @property
    def num_tombstones(self) -> int:
        return int(self.tombstones.sum()) if self.tombstones is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EntryRun(entries={len(self)}, tombstones={self.num_tombstones}, "
            f"width={self.width})"
        )


def _check_runs(runs: Sequence[EntryRun]) -> int:
    if not runs:
        raise ValueError("need at least one run to merge")
    width = runs[0].width
    for run in runs:
        if run.width != width:
            raise ValueError(
                f"run width {run.width} does not match the first run's {width}"
            )
    return width


def merge_entry_runs(
    runs: Sequence[EntryRun], drop_tombstones: bool = False
) -> EntryRun:
    """Merge ``runs`` (newest first) into one newest-wins run.

    The fast path concatenates every run's keys/tombstones with a
    per-entry priority (the run's index — lower is newer) and lets the
    :func:`repro.kernels.merge_runs` kernel sort and dedupe in one pass.
    With ``drop_tombstones`` the surviving deletes are removed from the
    output — the bottom-level merge, where a tombstone has nothing left to
    shadow.
    """
    width = _check_runs(runs)
    if runs[0].keys.is_bytes:
        return _merge_entry_runs_bytes(runs, drop_tombstones)
    keys = np.concatenate([run.keys.keys for run in runs])
    tombstones = np.concatenate([run.tombstone_mask() for run in runs])
    priorities = np.repeat(
        np.arange(len(runs), dtype=np.int64),
        [len(run) for run in runs],
    )
    merged_keys, merged_tombstones = kernels.merge_runs(keys, tombstones, priorities)
    if drop_tombstones:
        live = ~merged_tombstones
        merged_keys = merged_keys[live]
        merged_tombstones = merged_tombstones[live]
    return EntryRun(
        EncodedKeySet._trusted(merged_keys, width),
        merged_tombstones if merged_tombstones.any() else None,
    )


def _merge_entry_runs_bytes(
    runs: Sequence[EntryRun], drop_tombstones: bool = False
) -> EntryRun:
    """The byte-string fast path: one stable ``argsort`` over S-dtype keys.

    Runs arrive newest first, so after a *stable* sort the first entry of
    every equal-key group is the newest — newest-wins dedupe needs no
    explicit priority array.  Padded (``memcmp``) order is the canonical
    key order, so the merged array feeds :class:`ByteKeySet` verbatim.
    """
    max_length = runs[0].keys.max_length
    keys = np.concatenate([run.keys.keys for run in runs])
    tombstones = np.concatenate([run.tombstone_mask() for run in runs])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_tombstones = tombstones[order]
    keep = np.ones(sorted_keys.size, dtype=bool)
    keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
    merged_keys = sorted_keys[keep]
    merged_tombstones = sorted_tombstones[keep]
    if drop_tombstones:
        live = ~merged_tombstones
        merged_keys = merged_keys[live]
        merged_tombstones = merged_tombstones[live]
    return EntryRun(
        ByteKeySet._from_padded(merged_keys, max_length),
        merged_tombstones if merged_tombstones.any() else None,
    )


def merge_key_sets(key_sets: Sequence[KeySet]) -> KeySet:
    """Merge sorted distinct key sets into one (duplicates collapse).

    The tombstone-free specialisation of :func:`merge_entry_runs`; with no
    deletes in play recency cannot change an answer, so this is a plain
    sorted-set union on the same kernel.
    """
    merged = merge_entry_runs([EntryRun(keys) for keys in key_sets])
    return merged.keys
