"""Single-threaded Index-Based Window Join driver (paper §2).

Processes an interleaved arrival sequence tuple-by-tuple: (1) probe the
opposite stream's index for band matches, (2) retire the expired tuple
from this stream's index, (3) insert the new tuple (Eq. 1). The index
behaviour is pluggable through small adapters so one driver exercises
every approach the paper compares: B+-Tree, chained index (both
variants), round-robin partitioning, Bw-Tree-like, NLWJ, IM-Tree and
PIM-Tree.

With ``measure=True`` the driver accumulates per-step wall time —
search, scan, insert, delete, merge — which backs the Fig. 9b cost
breakdown and calibrates the concurrency simulator.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.bw_tree import BwTreeLike
from repro.baselines.chained_index import ChainedIndex
from repro.baselines.nlwj import NLWJWindow
from repro.baselines.round_robin import RoundRobinIndex
from repro.core.im_tree import IMTree
from repro.core.pim_tree import PIMTree
from repro.join.streams import check_band_args, gpos_by_side


@dataclass
class StepCosts:
    """Accumulated wall time (s) and op counts per IBWJ step."""

    search: float = 0.0
    scan: float = 0.0
    insert: float = 0.0
    delete: float = 0.0
    merge: float = 0.0
    n_tuples: int = 0
    n_matches: int = 0
    n_merges: int = 0

    def total(self) -> float:
        return self.search + self.scan + self.insert + self.delete + self.merge

    def per_tuple_us(self) -> dict[str, float]:
        n = max(1, self.n_tuples)
        return {
            k: getattr(self, k) / n * 1e6
            for k in ("search", "scan", "insert", "delete", "merge")
        }


class _Adapter:
    """One sliding window's index + expiry policy. ``pos`` is the
    per-stream arrival position (spos)."""

    needs_expired_key = False  # True -> driver passes the expired key

    def insert(self, key: int, pos: int) -> None:
        raise NotImplementedError

    def retire(self, expired_key: int, expired_pos: int) -> None:
        """Remove/disable the tuple that just left the window."""

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        """Periodic maintenance (merges); called after every insert."""

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        raise NotImplementedError

    def probe_split(
        self, lo: int, hi: int, min_pos: int
    ) -> tuple[list[tuple[int, int]], float, float]:
        """(matches, search_seconds, scan_seconds) — default: all 'search'."""
        t0 = time.perf_counter()
        out = self.probe(lo, hi, min_pos)
        return out, time.perf_counter() - t0, 0.0


class BPlusAdapter(_Adapter):
    needs_expired_key = True

    def __init__(self, window: int, fanout: int = 16) -> None:
        from repro.core.bplus_tree import BPlusTree

        self.tree = BPlusTree(fanout)
        self.window = window

    def insert(self, key: int, pos: int) -> None:
        self.tree.insert(key, pos)

    def retire(self, expired_key: int, expired_pos: int) -> None:
        self.tree.delete(expired_key, expired_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.tree.search_range(lo, hi, min_pos)

    def probe_split(self, lo, hi, min_pos):
        t0 = time.perf_counter()
        leaf, i = self.tree.seek(lo)
        t1 = time.perf_counter()
        out = self.tree.scan(leaf, i, hi, min_pos)
        return out, t1 - t0, time.perf_counter() - t1

    def memory_bytes(self) -> int:
        return self.tree.memory_bytes()


class ChainAdapter(_Adapter):
    def __init__(
        self, window: int, chain_length: int = 2, immutable_archive: bool = False
    ) -> None:
        self.idx = ChainedIndex(window, chain_length, immutable_archive)
        self.window = window

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        self.idx.expire(min_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.probe(lo, hi, min_pos)

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


class RoundRobinAdapter(_Adapter):
    needs_expired_key = True

    def __init__(self, window: int, n_partitions: int) -> None:
        self.idx = RoundRobinIndex(window, n_partitions)

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def retire(self, expired_key: int, expired_pos: int) -> None:
        self.idx.delete(expired_key, expired_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.probe(lo, hi, min_pos)

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


class BwAdapter(_Adapter):
    needs_expired_key = True

    def __init__(self, window: int, page_capacity: int = 64) -> None:
        self.idx = BwTreeLike(page_capacity=page_capacity)

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def retire(self, expired_key: int, expired_pos: int) -> None:
        self.idx.delete(expired_key, expired_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.search_range(lo, hi, min_pos)

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


class NLWJAdapter(_Adapter):
    def __init__(self, window: int) -> None:
        self.win = NLWJWindow(window)

    def insert(self, key: int, pos: int) -> None:
        self.win.insert(key, pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.win.probe(lo, hi, min_pos)

    def probe_split(self, lo, hi, min_pos):
        t0 = time.perf_counter()
        out = self.probe(lo, hi, min_pos)
        return out, 0.0, time.perf_counter() - t0  # pure scan

    def memory_bytes(self) -> int:
        return self.win.window * 8


class IMAdapter(_Adapter):
    def __init__(self, window: int, merge_ratio: float = 0.125) -> None:
        self.idx = IMTree(window, merge_ratio)
        self.window = window

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        if self.idx.needs_merge():
            t0 = time.perf_counter() if measure else 0.0
            self.idx.merge(min_pos)
            if measure:
                costs.merge += time.perf_counter() - t0
            costs.n_merges += 1

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.search_range(lo, hi, min_pos)

    def probe_split(self, lo, hi, min_pos):
        t0 = time.perf_counter()
        leaf, i = self.idx.t_i.seek(lo)
        start = self.idx.t_s.find_start(lo)
        t1 = time.perf_counter()
        out = self.idx.t_i.scan(leaf, i, hi, min_pos)
        out.extend(zip(*_ts_scan(self.idx.t_s, start, hi, min_pos)))
        return out, t1 - t0, time.perf_counter() - t1

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


def _ts_scan(
    t_s, start: int, hi: int, min_pos: int
) -> tuple[list[int], list[int]]:
    """Leaf scan of an immutable tree from element ``start`` while
    key <= hi, with expiry filtering (shared by the timed probes)."""
    import bisect as _bisect

    n = len(t_s.keys)
    if n == 0 or start >= n:
        return [], []
    end = _bisect.bisect_right(t_s._keys_list, hi, start, n)
    k = t_s._keys_list[start:end]
    p = t_s._poss_list[start:end]
    if min_pos > 0 and any(pp < min_pos for pp in p):
        kept = [(kk, pp) for kk, pp in zip(k, p) if pp >= min_pos]
        k = [kk for kk, _ in kept]
        p = [pp for _, pp in kept]
    return k, p


class PIMAdapter(_Adapter):
    def __init__(
        self,
        window: int,
        merge_ratio: float = 0.125,
        insertion_depth: int = 2,
        use_locks: bool = True,
    ) -> None:
        self.idx = PIMTree(
            window, merge_ratio, insertion_depth, use_locks=use_locks
        )
        self.window = window

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        if self.idx.needs_merge():
            t0 = time.perf_counter() if measure else 0.0
            self.idx.merge(min_pos)
            if measure:
                costs.merge += time.perf_counter() - t0
            costs.n_merges += 1

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.search_range(lo, hi, min_pos)

    def probe_split(self, lo, hi, min_pos):
        idx = self.idx
        t0 = time.perf_counter()
        start = idx.t_s.find_start(lo)
        i0, i1 = idx.route(lo), idx.route(hi)
        seeks = [idx.subindexes[i].seek(lo) for i in range(i0, i1 + 1)]
        t1 = time.perf_counter()
        out = list(zip(*_ts_scan(idx.t_s, start, hi, min_pos)))
        for j, (leaf, i) in enumerate(seeks):
            out.extend(idx.subindexes[i0 + j].scan(leaf, i, hi, min_pos))
        return out, t1 - t0, time.perf_counter() - t1

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


ADAPTERS = {
    "bplus": BPlusAdapter,
    "chain": ChainAdapter,
    "rr": RoundRobinAdapter,
    "bw": BwAdapter,
    "nlwj": NLWJAdapter,
    "im": IMAdapter,
    "pim": PIMAdapter,
}


@dataclass
class JoinResult:
    pairs: list[tuple[int, int]] | None
    n_matches: int
    n_processed: int
    elapsed: float
    costs: StepCosts = field(default_factory=StepCosts)

    @property
    def throughput(self) -> float:
        """Measured tuples processed per second."""
        return self.n_processed / self.elapsed if self.elapsed > 0 else 0.0


def run_ibwj(
    seq: pd.DataFrame,
    w_r: int,
    w_s: int,
    diff: int,
    index_factory,
    *,
    self_join: bool = False,
    collect_pairs: bool = True,
    measure: bool = False,
    warmup: int = 0,
    probe_during_warmup: bool = True,
) -> JoinResult:
    """Run the three-step IBWJ loop over an arrival sequence.

    ``index_factory(window) -> _Adapter`` builds one index per stream
    (one shared index for self-join). ``warmup`` tuples are processed but
    excluded from the timed region and the result pairs.
    ``probe_during_warmup=False`` skips Step 1 while filling the window —
    the index state after warmup is identical (probes are read-only), so
    steady-state measurements are unaffected; it only avoids paying for
    throwaway probes on large windows.
    """
    check_band_args(w_r, w_s, diff)
    # Plain lists: per-tuple numpy scalar extraction would add ~1 us of
    # driver overhead per tuple and compress the index-cost differences
    # this harness exists to measure.
    sides = seq["side"].to_numpy().tolist()
    sposs = seq["spos"].to_numpy().tolist()
    xs = seq["x"].to_numpy().tolist()
    opps = seq["opp_seen"].to_numpy().tolist()
    gpos_of = gpos_by_side(seq, self_join=self_join)
    n = len(seq)

    if self_join:
        idx_r = idx_s = index_factory(w_r)
    else:
        idx_r = index_factory(w_r)
        idx_s = index_factory(w_s)
    win = {"R": w_r, "S": w_s}
    own = {"R": idx_r, "S": idx_s}
    opp = {"R": idx_s, "S": idx_r}
    # Key ring used to retire expired tuples from delete-based indexes.
    keyring: dict[str, list[int]] = {"R": [0] * w_r, "S": [0] * w_s}
    if self_join:
        keyring["S"] = keyring["R"]

    pairs: list[tuple[int, int]] | None = [] if collect_pairs else None
    costs = StepCosts()
    n_matches = 0
    # Generational GC pauses scan every live tree node and would land on
    # arbitrary approaches; collections are deferred for the run so the
    # comparison measures index work, not allocator luck.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t_start = time.perf_counter()

        for t in range(n):
            if t == warmup:
                costs = StepCosts()  # warmup ops are excluded from the breakdown
                t_start = time.perf_counter()
            side = sides[t]
            spos = sposs[t]
            x = xs[t]
            opp_side = side if self_join else ("S" if side == "R" else "R")
            w_opp = win[opp_side]
            w_own = win[side]
            # Step 1 — probe the opposite window for band matches.
            min_pos = opps[t] - w_opp + 1
            lo, hi = x - diff, x + diff
            if t < warmup and not probe_during_warmup:
                matches = ()
            elif measure:
                matches, ts, tc = opp[side].probe_split(lo, hi, min_pos)
                costs.search += ts
                costs.scan += tc
            else:
                matches = opp[side].probe(lo, hi, min_pos)
            n_matches += len(matches)
            if pairs is not None and t >= warmup:
                g = gpos_of[side][spos - 1]
                olist = gpos_of[opp_side]
                for _, mpos in matches:
                    pairs.append((g, olist[mpos - 1]))
            # Step 2 — retire the tuple that falls out of this window.
            if spos > w_own:
                epos = spos - w_own
                ekey = keyring[side][(epos - 1) % w_own]
                if measure:
                    t0 = time.perf_counter()
                    own[side].retire(ekey, epos)
                    costs.delete += time.perf_counter() - t0
                else:
                    own[side].retire(ekey, epos)
            # Step 3 — insert the new tuple, then maintenance (merges).
            if measure:
                t0 = time.perf_counter()
                own[side].insert(x, spos)
                costs.insert += time.perf_counter() - t0
            else:
                own[side].insert(x, spos)
            own[side].maintain(spos - w_own + 1, costs, measure)
            keyring[side][(spos - 1) % w_own] = x

        elapsed = time.perf_counter() - t_start
    finally:
        if gc_was_enabled:
            gc.enable()
    costs.n_tuples = n - warmup
    costs.n_matches = n_matches
    return JoinResult(pairs, n_matches, n - warmup, elapsed, costs)


def pairs_df(pairs: list[tuple[int, int]]) -> pd.DataFrame:
    """Result pairs as a DataFrame matching ``streams.band_join_sql``."""
    return pd.DataFrame(pairs, columns=["later_gpos", "earlier_gpos"]).astype(
        "int64"
    )
