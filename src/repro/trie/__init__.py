"""Succinct trie substrate.

SuRF encodes its pruned trie as a Fast Succinct Trie (LOUDS-DS): the top
levels use the LOUDS-Dense bitmap encoding and the remaining levels use
LOUDS-Sparse.  Proteus keeps its uniform-depth trie layer as a bare sorted
prefix array, answered by :mod:`repro.filters.prefix_pass`, and charges it
the modelled size of a succinct trie.

The package provides:

* :class:`~repro.trie.bitvector.RankSelectBitVector` — plain bit vector with
  O(1) rank (scalar and batched) and O(log n) select.
* :class:`~repro.trie.louds_dense.LoudsDenseTrie`,
  :class:`~repro.trie.louds_sparse.LoudsSparseTrie` and
  :class:`~repro.trie.fst.FastSuccinctTrie` — the physical succinct
  encodings, navigated purely by rank arithmetic, with measured
  ``size_in_bits``; SuRF stores its pruned trie this way.
* :class:`~repro.trie.fst.FSTPrefixIndex` — a uniform-depth prefix set
  (Proteus' trie layer) as a succinct trie — and
  :class:`~repro.trie.sorted_index.SortedPrefixIndex`, the same set as a
  sorted array: the reference the size audit and the trie tests hold the
  succinct index's answers to.
* :mod:`~repro.trie.size_model` — the ``trieMem(l)`` estimator from
  Algorithm 1 of the paper plus SuRF's LOUDS-DS size formulas, against
  which the physical encoders' measured sizes are pinned
  (:mod:`repro.evaluation.size_check`).

Re-exports resolve lazily (PEP 562): importing :mod:`repro.trie` never fails
because one submodule is missing; only touching that submodule's names
raises.
"""

from importlib import import_module

_LAZY_EXPORTS = {
    "RankSelectBitVector": "repro.trie.bitvector",
    "SortedPrefixIndex": "repro.trie.sorted_index",
    "fst_size_estimate": "repro.trie.size_model",
    "fst_prefix_cutoff": "repro.trie.size_model",
    "binary_trie_size_estimate": "repro.trie.size_model",
    "louds_dense_level_bits": "repro.trie.size_model",
    "louds_sparse_level_bits": "repro.trie.size_model",
    "LoudsSparseTrie": "repro.trie.louds_sparse",
    "LoudsDenseTrie": "repro.trie.louds_dense",
    "FastSuccinctTrie": "repro.trie.fst",
    "FSTPrefixIndex": "repro.trie.fst",
}

__all__ = list(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve a lazy re-export (PEP 562)."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    try:
        module = import_module(module_name)
    except ModuleNotFoundError as exc:
        raise ImportError(
            f"{name!r} requires {module_name!r}, which is missing or incomplete"
        ) from exc
    value = getattr(module, name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    """Expose the lazy exports to ``dir()``."""
    return sorted(set(globals()) | set(__all__))
