"""Shared-memory snapshots: key buffers workers probe zero-copy.

The serving layer places the numpy buffers behind a shard's
:class:`~repro.lsm.tree.LSMTree` into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) so worker processes probe *views*
of one physical copy instead of pickled duplicates.  The layout mirrors
the tree's own aliasing contract — every SST in a level is a zero-copy
:meth:`~repro.workloads.keyset.KeySet.slice` of one parent array — so a
level snapshot is one segment per backing array plus the SST boundary
offsets, and the worker-side reconstruction goes through the same
``_trusted`` constructors the in-process slicing path uses.

Ownership rules (the lifecycle the tests pin):

* the **parent** creates every segment, copies the key buffers in once at
  snapshot time, and is the only process that ever calls ``unlink`` —
  worker death can never leak a segment the parent still tracks;
* **workers** attach read-only views and ``close`` on exit; the
  forkserver hands every child it forks the requesting parent's resource
  tracker, so a worker's attach-time registrations deduplicate against
  the parent's own (see :func:`attach_segment`) and a worker exit can
  never unlink a segment the parent still serves from;
* snapshots are **immutable by construction**: the copy decouples the
  serving view from the source tree, so the parent's online compactions
  never move bytes under a probing worker.

Filters are not shared as live objects: their internals (bit arrays,
succinct tries, CPFPR designs) have no stable cross-process layout, and at
``B`` bits per key they are a ~``B/64``-th the size of the key arrays.
Their pickled bytes cross once, at worker start, in one more segment
(:func:`share_pickle`, named by the snapshot spec's ``"filters"`` entry),
which each worker unpickles and closes (:func:`load_pickle`) and the
parent unlinks as soon as every worker is ready.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np

from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree
from repro.workloads.batch import EncodedKeySet
from repro.workloads.bytekeys import ByteKeySet
from repro.workloads.keyset import KeySet

__all__ = [
    "attach_key_set",
    "attach_segment",
    "attach_tree",
    "load_pickle",
    "share_key_set",
    "share_pickle",
    "snapshot_tree",
]


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility.

    Python 3.13 grew ``track=False`` for exactly this.  On earlier
    versions every attach registers the name with the resource tracker —
    but our workers are forked by a forkserver on behalf of the segment's
    creator, which passes that creator's tracker fd to every child it
    forks, so workers share the *parent's* tracker process and a worker's
    registration is a set-idempotent duplicate of the parent's own:
    nothing is unlinked at worker exit, the parent's ``unlink`` clears the
    single entry, and a crashed parent still gets its segments reaped by
    the tracker.  The oft-cited hazard (bpo-38119: an attaching process's
    tracker unlinks the segment when *it* exits) only bites attachers with
    an independent tracker, which this serving topology never creates — so
    no ``unregister`` workaround, which would instead erase the parent's
    leak protection and make its ``unlink`` double-unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: shared-tracker registration is benign
        return shared_memory.SharedMemory(name=name)


def _share_array(arr: np.ndarray) -> tuple[dict, shared_memory.SharedMemory]:
    """Copy ``arr`` into a fresh segment; return its JSON-able descriptor.

    The descriptor carries everything :func:`_attach_array` needs to
    rebuild a dtype-faithful view: segment name, dtype string (including
    ``S``-itemsize for byte keys), and shape.  The local view used for the
    copy is dropped before returning so the parent can ``close`` segments
    without outstanding buffer exports.
    """
    arr = np.ascontiguousarray(arr)
    segment = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
    view[...] = arr
    del view
    spec = {"name": segment.name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
    return spec, segment


def _attach_array(spec: dict) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Attach the segment behind ``spec`` and view it with the recorded dtype."""
    segment = attach_segment(spec["name"])
    view = np.ndarray(
        tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=segment.buf
    )
    return view, segment


def share_pickle(obj) -> tuple[dict, shared_memory.SharedMemory]:
    """Pickle ``obj`` into a fresh segment; return its descriptor and the segment.

    The caller owns the segment (close + unlink); :func:`load_pickle`
    rebuilds the object from the descriptor in another process.
    """
    return _share_array(np.frombuffer(pickle.dumps(obj), dtype=np.uint8))


def load_pickle(spec: dict):
    """Attach the segment behind ``spec``, unpickle its object, and close it."""
    data, segment = _attach_array(spec)
    try:
        return pickle.loads(data)
    finally:
        del data  # the view must go before its mapping closes
        segment.close()


def share_key_set(
    keys: KeySet,
) -> tuple[dict, list[shared_memory.SharedMemory]]:
    """Copy one key set's backing arrays into shared memory.

    Returns ``(spec, segments)``: a picklable descriptor for
    :func:`attach_key_set` plus the created segments, which the caller
    owns (close + unlink).  Integer sets share their one int64 array; byte
    sets share all three arrays of the arrow-style layout (flat buffer,
    offsets, padded view), so the worker-side set is fully zero-copy.
    """
    if isinstance(keys, ByteKeySet):
        buffer_spec, buffer_seg = _share_array(keys.buffer)
        offsets_spec, offsets_seg = _share_array(keys.offsets)
        padded_spec, padded_seg = _share_array(keys.keys)
        spec = {
            "kind": "bytes",
            "max_length": keys.max_length,
            "buffer": buffer_spec,
            "offsets": offsets_spec,
            "padded": padded_spec,
        }
        return spec, [buffer_seg, offsets_seg, padded_seg]
    if isinstance(keys, EncodedKeySet):
        array_spec, segment = _share_array(keys.keys)
        return {"kind": "encoded", "width": keys.width, "keys": array_spec}, [segment]
    raise TypeError(f"cannot share key set of type {type(keys).__name__}")


def attach_key_set(
    spec: dict,
) -> tuple[KeySet, list[shared_memory.SharedMemory]]:
    """Rebuild a :class:`KeySet` over shared-memory views (no copies).

    The arrays were valid (sorted, distinct, bounds-checked) when the
    parent shared them and shared snapshots are immutable, so the views go
    through the ``_trusted`` constructors — the same vouched-for path the
    in-process SSTable slicing uses.
    """
    if spec["kind"] == "encoded":
        view, segment = _attach_array(spec["keys"])
        return EncodedKeySet._trusted(view, spec["width"]), [segment]
    if spec["kind"] == "bytes":
        buffer_view, buffer_seg = _attach_array(spec["buffer"])
        offsets_view, offsets_seg = _attach_array(spec["offsets"])
        padded_view, padded_seg = _attach_array(spec["padded"])
        keys = ByteKeySet._trusted(
            buffer_view, offsets_view, padded_view, spec["max_length"]
        )
        return keys, [buffer_seg, offsets_seg, padded_seg]
    raise ValueError(f"unknown shared key-set kind {spec['kind']!r}")


def snapshot_tree(
    tree: LSMTree,
) -> tuple[dict, list[shared_memory.SharedMemory], list]:
    """Freeze a tree's key buffers into shared memory.

    Returns ``(spec, segments, filters)``:

    * ``spec`` — a picklable topology descriptor (per level: one shared
      key-set spec, the SST boundary offsets, and an optional tombstone
      mask spec);
    * ``segments`` — every created segment, owned by the caller;
    * ``filters`` — the attached filter objects in ``tree.sstables()``
      order (``None`` where an SST runs unfiltered), to be pickled to the
      worker separately from the shared key buffers.

    Each level's SSTs are re-concatenated into one fresh array before
    sharing: SSTs within a level are disjoint and ordered, so the
    concatenation is itself a sorted distinct run and the per-SST views
    reconstruct as plain slices — the aliasing contract, now across a
    process boundary.
    """
    level_specs: list[dict] = []
    segments: list[shared_memory.SharedMemory] = []
    filters: list = []
    for level in tree.levels:
        bounds: list[int] = [0]
        for sst in level:
            bounds.append(bounds[-1] + len(sst))
            filters.append(sst.filter)
        if not level:
            level_specs.append({"keys": None, "bounds": bounds, "tombstones": None})
            continue
        sample = level[0].keys
        if isinstance(sample, ByteKeySet):
            padded = np.concatenate([sst.keys.keys for sst in level])
            level_keys: KeySet = ByteKeySet._from_padded(padded, sample.max_length)
        else:
            level_keys = EncodedKeySet._trusted(
                np.concatenate([sst.keys.keys for sst in level]), tree.width
            )
        keys_spec, keys_segments = share_key_set(level_keys)
        segments.extend(keys_segments)
        tombstones_spec = None
        if any(sst.tombstones is not None for sst in level):
            mask = np.concatenate([sst.tombstone_mask() for sst in level])
            tombstones_spec, mask_segment = _share_array(mask)
            segments.append(mask_segment)
        level_specs.append(
            {"keys": keys_spec, "bounds": bounds, "tombstones": tombstones_spec}
        )
    spec = {
        "width": tree.width,
        "geometry": dict(tree.geometry),
        "levels": level_specs,
    }
    return spec, segments, filters


def attach_tree(
    spec: dict, filters: list | None = None
) -> tuple[LSMTree, list[shared_memory.SharedMemory]]:
    """Rebuild a probe-ready :class:`LSMTree` over shared-memory views.

    The inverse of :func:`snapshot_tree`: every SST is a zero-copy slice
    of its level's shared key array.  ``filters`` (in ``sstables()``
    order, as returned by :func:`snapshot_tree`) are re-attached without
    their specs — a serving snapshot never rebuilds, so the budget
    provenance stays with the parent — and the tree's level layouts are
    rebuilt over them here, so a worker pays for them before it reports
    ready rather than on its first probe.
    """
    levels: list[list[SSTable]] = []
    segments: list[shared_memory.SharedMemory] = []
    for level_index, level_spec in enumerate(spec["levels"]):
        if level_spec["keys"] is None:
            levels.append([])
            continue
        level_keys, keys_segments = attach_key_set(level_spec["keys"])
        segments.extend(keys_segments)
        tombstones = None
        if level_spec["tombstones"] is not None:
            tombstones, mask_segment = _attach_array(level_spec["tombstones"])
            segments.append(mask_segment)
        ssts = []
        bounds = level_spec["bounds"]
        for sst_index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            ssts.append(
                SSTable(
                    level_index,
                    sst_index,
                    level_keys.slice(start, stop),
                    tombstones[start:stop] if tombstones is not None else None,
                )
            )
        levels.append(ssts)
    tree = LSMTree(levels, spec["width"], spec["geometry"])
    if filters is not None:
        for sst, filt in zip(tree.sstables(), filters):
            if filt is not None:
                sst.attach_filter(filt)
        tree.refresh_layouts()
    return tree, segments
