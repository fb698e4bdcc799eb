"""Partitioned In-memory Merge-Tree (PIM-Tree, paper §3.3, Alg. 1-2).

The mutable stage T_I is split into sub-indexes B_0..B_{n-1}, one per
inner node of the immutable stage T_S at the *insertion depth* D_I; each
B_i covers that node's key range, so the partitioning adapts to the data
distribution at every merge. Each B_i carries its own lock: concurrent
threads route through the (lock-free, never-mutated) T_S and contend only
on the sub-index covering their key — the paper's partition-level
concurrency control.

The per-sub-index insert counters back the drifting-distribution
experiment (paper Fig. 13a).
"""
from __future__ import annotations

import bisect
import threading
import time

import numpy as np

from repro.core.bplus_tree import BPlusTree
from repro.core.im_tree import merge_sorted
from repro.core.immutable_btree import ImmutableBTree
from repro.core.window_index import WindowIndex


def _merged_arrays(tree: "PIMTree", min_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Live T_S elements merged with all sub-index elements, key-sorted.

    Sub-indexes cover disjoint ascending key ranges, so concatenating
    their (leaf-chain-sorted) arrays in partition order yields one sorted
    T_I run; the T_S run is then merged in linear time.
    """
    parts = [b.items_arrays() for b in tree.subindexes if len(b)]
    if parts:
        ik = np.concatenate([k for k, _ in parts])
        ip = np.concatenate([p for _, p in parts])
    else:
        ik = np.empty(0, np.int64)
        ip = np.empty(0, np.int64)
    live = tree.t_s.poss >= min_pos
    return merge_sorted(tree.t_s.keys[live], tree.t_s.poss[live], ik, ip)


class PIMTree(WindowIndex):
    """Two-stage partitioned sliding-window index.

    ``insertion_depth`` is D_I (root = depth 0). While T_S is empty (before
    the first merge) there is a single sub-index.
    """

    def __init__(
        self,
        window: int,
        merge_ratio: float = 0.125,
        insertion_depth: int = 2,
        fanout_mut: int = 16,
        fanout_imm: int = 32,
        use_locks: bool = True,
    ) -> None:
        if not (0 < merge_ratio <= 1):
            raise ValueError("merge_ratio must be in (0, 1]")
        if insertion_depth < 1:
            raise ValueError("insertion_depth must be >= 1")
        # use_locks=False is the paper's "without concurrency control"
        # single-threaded variant (Fig. 12a); never share such a tree
        # across threads.
        self.use_locks = use_locks
        self.window = window
        self.merge_ratio = merge_ratio
        self.insertion_depth = insertion_depth
        self.fanout_mut = fanout_mut
        self.fanout_imm = fanout_imm
        self.t_s = ImmutableBTree.empty(fanout_imm)
        self._reset_subindexes()
        self.merge_threshold = max(1, int(merge_ratio * window))
        self.n_merges = 0
        self.merged_elements = 0
        self.lock_acquisitions = 0

    # -- structure maintenance -------------------------------------------
    def _reset_subindexes(self) -> None:
        n = self.t_s.n_nodes_at_depth(self.insertion_depth) if len(self.t_s) else 1
        self.subindexes: list[BPlusTree] = [
            BPlusTree(self.fanout_mut) for _ in range(n)
        ]
        self.locks = [threading.Lock() for _ in range(n)]
        self._n_i = 0
        # plain list: a numpy scalar += in the insert hot path costs more
        # than the sub-index insert itself
        self.insert_counts: list[int] = [0] * n
        # Cached upper bounds of the depth-D_I nodes: routing a key is one
        # bounded binary search over these — the same comparison sequence
        # as the T_S descent to D_I (route() is kept for cross-checking),
        # at D_I*log2(f_ib) comparisons either way.
        self._bounds: list[int] = self.t_s.partition_bounds(
            self.insertion_depth
        ).tolist()

    @property
    def n_subindexes(self) -> int:
        return len(self.subindexes)

    def __len__(self) -> int:
        return self._n_i + len(self.t_s)

    @property
    def t_i_size(self) -> int:
        return self._n_i

    def needs_merge(self) -> bool:
        return self._n_i >= self.merge_threshold

    def maintain(self, min_pos: int) -> bool:
        if not self.needs_merge():
            return False
        self.merge(min_pos)
        return True

    def route(self, key: int) -> int:
        """Sub-index covering ``key`` (T_S traversal to depth D_I; routed
        through the cached node bounds — see ``_reset_subindexes``)."""
        b = self._bounds
        if not b:
            return 0
        i = bisect.bisect_left(b, key)
        n1 = len(self.subindexes) - 1
        return i if i < n1 else n1

    # -- operations (Algorithm 1) -----------------------------------------
    def insert(self, key: int, pos: int) -> None:
        i = self.route(key)
        if not self.use_locks:
            self.subindexes[i].insert(key, pos)
            self.insert_counts[i] += 1
            self._n_i += 1
            return
        lock = self.locks[i]
        lock.acquire()
        try:
            self.lock_acquisitions += 1
            self.subindexes[i].insert(key, pos)
            self.insert_counts[i] += 1
            self._n_i += 1
        finally:
            lock.release()

    def merge(self, min_pos: int) -> int:
        """Rebuild T_S from live T_S elements + all sub-index elements and
        re-initialise the sub-indexes against the new partitioning.

        Returns the merged element count (linear merge cost, Fig. 14).
        """
        keys, poss = _merged_arrays(self, min_pos)
        self.t_s = ImmutableBTree(keys, poss, self.fanout_imm)
        self._reset_subindexes()
        self.n_merges += 1
        self.merged_elements += len(keys)
        return len(keys)

    @classmethod
    def merged_copy(cls, old: "PIMTree", min_pos: int) -> "PIMTree":
        """Nonblocking-merge phase 1 (paper §4.2): build a fresh PIM-Tree
        holding ``old``'s live elements *without mutating* ``old``, so
        readers may keep using the old tree until the swap."""
        new = cls(
            old.window,
            old.merge_ratio,
            old.insertion_depth,
            old.fanout_mut,
            old.fanout_imm,
            use_locks=old.use_locks,
        )
        keys, poss = _merged_arrays(old, min_pos)
        new.t_s = ImmutableBTree(keys, poss, new.fanout_imm)
        new._reset_subindexes()
        new.n_merges = old.n_merges + 1
        new.merged_elements = old.merged_elements + len(keys)
        return new

    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """Matches from T_S (expiry-filtered) and the covering sub-indexes.

        Walks sub-indexes ``route(lo)..route(hi)`` under their locks —
        the lock hand-off of Algorithm 2's linked-leaf scan, expressed per
        partition.
        """
        sk, sp = self.t_s.search_range(lo, hi, min_pos)
        out = list(zip(sk, sp))
        i0 = self.route(lo)
        b = self._bounds
        # Bands are narrow relative to partition widths: when hi falls
        # inside i0's range the second descent is skipped (the common
        # case; mirrors Algorithm 2's range check).
        if i0 >= len(b) or hi <= b[i0]:
            i1 = i0
        else:
            i1 = self.route(hi)
        # Empty sub-indexes are skipped without locking — Algorithm 2's
        # range check against chains of empty sub-indexes; benign under
        # concurrency because non-indexed tuples are covered by the
        # parallel driver's linear window scan.
        if not self.use_locks:
            for i in range(i0, i1 + 1):
                if len(self.subindexes[i]):
                    out.extend(self.subindexes[i].search_range(lo, hi, min_pos))
            return out
        for i in range(i0, i1 + 1):
            if not len(self.subindexes[i]):
                continue
            with self.locks[i]:
                self.lock_acquisitions += 1
                out.extend(self.subindexes[i].search_range(lo, hi, min_pos))
        return out

    probe = search_range

    def probe_split(self, lo, hi, min_pos):
        """The T_S descent, routing and sub-index descents count as
        search, the leaf scans as scan. Takes no locks: single-threaded
        cost accounting only."""
        t0 = time.perf_counter()
        start = self.t_s.find_start(lo)
        i0, i1 = self.route(lo), self.route(hi)
        seeks = [self.subindexes[i].seek(lo) for i in range(i0, i1 + 1)]
        t1 = time.perf_counter()
        out = list(zip(*self.t_s.scan(start, hi, min_pos)))
        for j, (leaf, i) in enumerate(seeks):
            out.extend(self.subindexes[i0 + j].scan(leaf, i, hi, min_pos))
        return out, t1 - t0, time.perf_counter() - t1

    def memory_bytes(self) -> int:
        return (
            self.t_s.memory_bytes()
            + sum(b.memory_bytes() for b in self.subindexes)
            + len(self) * 8  # nonblocking-merge buffer
        )
