"""In-memory Merge-Tree (IM-Tree, paper §3.2).

Two-stage sliding-window index: a mutable B+-Tree ``T_I`` receives all
inserts; when ``|T_I| >= m * w`` the two components merge — expired
elements of the immutable ``T_S`` are discarded and the survivors plus
T_I's elements are rebuilt bottom-up into a new immutable B+-Tree.

Expired elements are never deleted individually: lookups filter them by
arrival position (``min_pos``), and the merge drops them wholesale — the
paper's coarse-grained tuple-disposal scheme.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.bplus_tree import BPlusTree
from repro.core.immutable_btree import ImmutableBTree
from repro.core.window_index import WindowIndex


def merge_sorted(
    sk: np.ndarray, sp: np.ndarray, ik: np.ndarray, ip: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two key-sorted (keys, poss) runs in linear time — the
    streaming merge step of Eq. 7 (both runs are already sorted: T_S by
    construction, T_I by leaf-chain extraction)."""
    if len(ik) == 0:
        return sk, sp
    if len(sk) == 0:
        return ik, ip
    at = np.searchsorted(sk, ik, side="right")
    return np.insert(sk, at, ik), np.insert(sp, at, ip)


class IMTree(WindowIndex):
    """Sliding-window index with delta-merge maintenance.

    Parameters mirror the paper: ``window`` is w, ``merge_ratio`` is m
    (0 < m <= 1), ``fanout_mut``/``fanout_imm`` are f_b and f_ib.
    """

    def __init__(
        self,
        window: int,
        merge_ratio: float = 0.125,
        fanout_mut: int = 16,
        fanout_imm: int = 32,
    ) -> None:
        if not (0 < merge_ratio <= 1):
            raise ValueError("merge_ratio must be in (0, 1]")
        self.window = window
        self.merge_ratio = merge_ratio
        self.fanout_mut = fanout_mut
        self.fanout_imm = fanout_imm
        self.t_i = BPlusTree(fanout_mut)
        self.t_s = ImmutableBTree.empty(fanout_imm)
        self.merge_threshold = max(1, int(merge_ratio * window))
        self.n_merges = 0
        self.merged_elements = 0  # total elements touched by merges

    def __len__(self) -> int:
        return len(self.t_i) + len(self.t_s)

    def insert(self, key: int, pos: int) -> None:
        self.t_i.insert(key, pos)

    def needs_merge(self) -> bool:
        return len(self.t_i) >= self.merge_threshold

    def maintain(self, min_pos: int) -> bool:
        if not self.needs_merge():
            return False
        self.merge(min_pos)
        return True

    def merge(self, min_pos: int) -> int:
        """Merge T_I into T_S, dropping T_S elements with pos < min_pos.

        Returns the number of elements in the rebuilt T_S (the merge cost
        is linear in this count — paper Fig. 14 / Eq. 7).
        """
        ik, ip = self.t_i.items_arrays()
        live = self.t_s.poss >= min_pos
        sk, sp = self.t_s.keys[live], self.t_s.poss[live]
        keys, poss = merge_sorted(sk, sp, ik, ip)
        self.t_s = ImmutableBTree(keys, poss, self.fanout_imm)
        self.t_i = BPlusTree(self.fanout_mut)
        self.n_merges += 1
        self.merged_elements += len(keys)
        return len(keys)

    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """Matches from both components; T_S results are expiry-filtered."""
        out = self.t_i.search_range(lo, hi, min_pos)
        sk, sp = self.t_s.search_range(lo, hi, min_pos)
        out.extend(zip(sk, sp))
        return out

    probe = search_range

    def probe_split(self, lo, hi, min_pos):
        """Both descents count as search, both leaf scans as scan."""
        t0 = time.perf_counter()
        leaf, i = self.t_i.seek(lo)
        start = self.t_s.find_start(lo)
        t1 = time.perf_counter()
        out = self.t_i.scan(leaf, i, hi, min_pos)
        out.extend(zip(*self.t_s.scan(start, hi, min_pos)))
        return out, t1 - t0, time.perf_counter() - t1

    def memory_bytes(self) -> int:
        # T_S + T_I + the merge buffer (sized like the merged output),
        # the three bars of the paper's Fig. 11a.
        return (
            self.t_s.memory_bytes()
            + self.t_i.memory_bytes()
            + len(self) * 8
        )
