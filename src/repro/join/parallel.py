"""Parallel stream join over shared indexes (paper §4), with real threads.

Faithful implementation of the four-step algorithm — task acquisition
from a shared work queue, result generation against a shared PIM-Tree per
stream, index update with edge-tuple advancement, and ordered result
propagation — plus the §4.2 nonblocking merge.

CPython's GIL means this layer cannot demonstrate CPU *speedup* (that is
the concurrency simulator's and the Spark harness's job, DESIGN.md §3);
what it demonstrates, under genuine thread interleaving, is the
*correctness* of the concurrency design: no duplicated or missing join
results regardless of out-of-order indexing, and results propagated in
arrival order.

Key mechanisms mirrored from the paper:

- work queue entries carry AVAILABLE/ACTIVE/COMPLETED states; tasks are
  ``task_size`` consecutive tuples;
- at acquisition, each tuple snapshots the opposite window boundaries
  (t_l = opposite tuples seen, t_e = expiry bound);
- per stream, an *edge* position marks the earliest non-indexed tuple;
  lookups combine an index probe (results filtered to pos < edge
  snapshot) with a linear window scan over [edge snapshot, t_l];
- the edge advances under a try-lock; result propagation drains the
  queue head under another try-lock, preserving arrival order.

Bookkeeping is O(1) per tuple and per result pair: per-tuple state is
held in plain lists (a numpy scalar read costs several list reads), and
a pair's earlier tuple maps from (side, spos) to gpos by one list index.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.pim_tree import PIMTree
from repro.join.streams import check_band_args, gpos_by_side

AVAILABLE, ACTIVE, COMPLETED = 0, 1, 2


class _StreamState:
    """Shared per-stream state: window arrays, index, edge tuple."""

    def __init__(self, window: int, n_max: int, merge_ratio: float, d_i: int) -> None:
        self.window = window
        self.keys = [0] * (n_max + 1)  # key by spos
        self.indexed = [False] * (n_max + 1)  # spos -> indexed?
        self.index = PIMTree(window, merge_ratio, d_i)
        self.count = 0  # tuples admitted (spos assigned)
        self.edge = 1  # earliest non-indexed spos
        self.edge_mutex = threading.Lock()
        self.index_swap = threading.Lock()  # guards index ref + merging flag
        self.merging = False  # nonblocking merge phase 1 in progress
        self.pending: list[tuple[int, int]] = []  # inserts deferred by merge

    def advance_edge(self) -> None:
        """Move the edge past every indexed position (paper: try-lock; the
        caller skips if the mutex is held)."""
        if not self.edge_mutex.acquire(blocking=False):
            return
        try:
            e = self.edge
            while e <= self.count and self.indexed[e]:
                e += 1
            self.edge = e
        finally:
            self.edge_mutex.release()


@dataclass
class ParallelResult:
    pairs: list[tuple[int, int]]
    n_matches: int
    n_processed: int
    elapsed: float
    n_merges: int

    @property
    def throughput(self) -> float:
        return self.n_processed / self.elapsed if self.elapsed else 0.0


class ParallelIBWJ:
    """Multithreaded band join over two shared PIM-Trees."""

    def __init__(
        self,
        seq: pd.DataFrame,
        w_r: int,
        w_s: int,
        diff: int,
        *,
        n_threads: int = 4,
        task_size: int = 8,
        merge_ratio: float = 1.0,
        insertion_depth: int = 2,
        self_join: bool = False,
        blocking_merge: bool = False,
    ) -> None:
        check_band_args(w_r, w_s, diff)
        if n_threads < 1 or task_size < 1:
            raise ValueError(
                f"n_threads and task_size must be >= 1, got {n_threads}, {task_size}"
            )
        self.seq = seq
        self.diff = diff
        self.n_threads = n_threads
        self.task_size = task_size
        self.blocking_merge = blocking_merge
        n = len(seq)
        self.sides = seq["side"].to_numpy().tolist()
        self.sposs = seq["spos"].to_numpy().tolist()
        self.xs = seq["x"].to_numpy().tolist()
        self.opps = seq["opp_seen"].to_numpy().tolist()
        self.gpos_by_spos = gpos_by_side(seq, self_join=self_join)
        self.opp = {"R": "R", "S": "S"} if self_join else {"R": "S", "S": "R"}
        self.win = {"R": w_r, "S": w_s}
        r_state = _StreamState(w_r, n, merge_ratio, insertion_depth)
        self.state = {
            "R": r_state,
            "S": r_state
            if self_join
            else _StreamState(w_s, n, merge_ratio, insertion_depth),
        }
        # Per-side prefix arrival counts: cnt_before[side][j] = number of
        # ``side``-stream tuples at queue positions < j. Merges may only
        # evict below the window of the earliest incomplete tuple (§4.1:
        # windows store everything active tuples still need); that bound
        # is cnt_before[side][head] - w + 1.
        is_r = seq["side"].to_numpy() == "R"
        self.cnt_before = {
            "R": np.concatenate([[0], np.cumsum(is_r)]).astype(np.int64),
            "S": np.concatenate([[0], np.cumsum(~is_r)]).astype(np.int64),
        }
        if self_join:
            self.cnt_before["S"] = self.cnt_before["R"]
        # Work queue: one slot per tuple; guarded by queue_mutex.
        self.status = [AVAILABLE] * n
        self.t_l = [0] * n  # opposite count at assignment
        self.next_task = 0
        self.queue_mutex = threading.Lock()
        self.head = 0  # earliest unpropagated tuple
        self.prop_mutex = threading.Lock()
        self.results: list[list[tuple[int, int]] | None] = [None] * n
        self.out: list[tuple[int, int]] = []
        self.merge_gate = threading.Event()  # cleared while a merge blocks assignment
        self.merge_gate.set()
        self.merge_mutex = threading.Lock()
        self.n_merges = 0

    # -- task acquisition -------------------------------------------------
    def _acquire(self) -> tuple[int, int] | None:
        self.merge_gate.wait()
        with self.queue_mutex:
            if self.next_task >= len(self.status):
                return None
            a = self.next_task
            b = min(a + self.task_size, len(self.status))
            self.next_task = b
            for t in range(a, b):
                self.status[t] = ACTIVE
                # Snapshot of the opposite window head (t_l). For the
                # self-join the "opposite" stream is the same stream: the
                # window head is everything admitted before this tuple.
                self.t_l[t] = self.opps[t]
                st = self.state[self.sides[t]]
                spos = self.sposs[t]
                st.count = max(st.count, spos)
                st.keys[spos] = self.xs[t]
        return a, b

    # -- result generation ------------------------------------------------
    def _lookup(self, t: int) -> list[tuple[int, int]]:
        opp_side = self.opp[self.sides[t]]
        ost = self.state[opp_side]
        t_l = self.t_l[t]
        t_e = t_l - self.win[opp_side] + 1
        x = self.xs[t]
        lo, hi = x - self.diff, x + self.diff
        edge_snapshot = min(ost.edge, t_l + 1)  # stale value is safe
        with ost.index_swap:
            index = ost.index
        matches = [
            (k, p)
            for k, p in index.search_range(lo, hi, max(t_e, 1))
            if p < edge_snapshot and p <= t_l
        ]
        # Linear scan of the non-indexed window region [edge, t_l].
        for p in range(max(edge_snapshot, max(t_e, 1)), t_l + 1):
            k = ost.keys[p]
            if lo <= k <= hi:
                matches.append((k, p))
        return matches

    # -- index update -----------------------------------------------------
    def _index_update(self, t: int) -> None:
        side = self.sides[t]
        st = self.state[side]
        spos = self.sposs[t]
        with st.index_swap:
            if st.merging:
                # §4.2 phase 1: no index updates while the new tree is
                # built; the tuple stays non-indexed (edge cannot pass it,
                # so lookups find it via the linear window scan).
                st.pending.append((self.xs[t], spos))
                deferred = True
            else:
                st.index.insert(self.xs[t], spos)
                deferred = False
        if not deferred:
            st.indexed[spos] = True
            st.advance_edge()
        if st.index.needs_merge():
            self._maybe_merge(st, side)

    def _safe_evict_bound(self, st: _StreamState, side: str) -> int:
        """Largest pos safe to evict + 1: every tuple at queue position >=
        head has its ``side``-window start at or above this (reading a
        stale, smaller ``head`` only makes the bound more conservative)."""
        head = min(self.head, len(self.status))
        return int(self.cnt_before[side][head]) - st.window + 1

    def _maybe_merge(self, st: _StreamState, side: str) -> None:
        """One merging thread per system (merge_mutex try-lock)."""
        if not self.merge_mutex.acquire(blocking=False):
            return
        try:
            min_pos = self._safe_evict_bound(st, side)
            if self.blocking_merge:
                # Blocking variant (Fig. 13c): assignment gated and the
                # index ref locked for the whole rebuild.
                self.merge_gate.clear()
                try:
                    with st.index_swap:
                        if not st.index.needs_merge():
                            return
                        st.index = PIMTree.merged_copy(st.index, min_pos)
                        self.n_merges += 1
                finally:
                    self.merge_gate.set()
                return
            # Nonblocking: phase 1 builds from the (now frozen) old index
            # while other threads keep joining without index updates.
            with st.index_swap:
                if not st.index.needs_merge() or st.merging:
                    return
                st.merging = True
                old = st.index
            new_index = PIMTree.merged_copy(old, min_pos)
            # Phase 2: swap, re-enable updates, then apply pending inserts
            # (safe against concurrent ops via per-sub-index locks).
            with st.index_swap:
                st.index = new_index
                pending, st.pending = st.pending, []
                st.merging = False
            for x, p in pending:
                new_index.insert(x, p)
                st.indexed[p] = True
            st.advance_edge()
            self.n_merges += 1
        finally:
            self.merge_mutex.release()

    # -- result propagation ----------------------------------------------
    def _propagate(self) -> None:
        if not self.prop_mutex.acquire(blocking=False):
            return
        try:
            n = len(self.status)
            while self.head < n and self.status[self.head] == COMPLETED:
                t = self.head
                side = self.sides[t]
                g = self.gpos_by_spos[side][self.sposs[t] - 1]
                olist = self.gpos_by_spos[self.opp[side]]
                self.out.extend((g, olist[p - 1]) for _, p in self.results[t])
                self.results[t] = None
                self.head += 1
        finally:
            self.prop_mutex.release()

    # -- driver -----------------------------------------------------------
    def run(self) -> ParallelResult:
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                while True:
                    task = self._acquire()
                    if task is None:
                        return
                    a, b = task
                    for t in range(a, b):
                        self.results[t] = self._lookup(t)
                        self.status[t] = COMPLETED
                        self._index_update(t)
                    self._propagate()
            except BaseException as e:  # surface worker failures to the test
                errors.append(e)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(self.n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self._propagate()  # drain any tail left by try-lock skips
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]
        n_matches = len(self.out)
        return ParallelResult(
            self.out, n_matches, len(self.status), elapsed, self.n_merges
        )
