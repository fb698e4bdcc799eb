"""Single-threaded Index-Based Window Join driver (paper §2).

Processes an interleaved arrival sequence tuple-by-tuple: (1) probe the
opposite stream's index for band matches, (2) retire the expired tuple
from this stream's index, (3) insert the new tuple (Eq. 1). Every index
the paper compares implements the same surface
(``repro.core.window_index``): B+-Tree, chained index (both variants),
round-robin partitioning, Bw-Tree-like, NLWJ, IM-Tree and PIM-Tree, so
one driver runs them all.

With ``measure=True`` the driver accumulates per-step wall time —
search, scan, insert, delete, merge — which backs the Fig. 9b cost
breakdown and calibrates the concurrency simulator. Each structure's
``probe_split`` decides which part of its probe is search and which is
scan; only maintenance runs that merged count toward the merge step.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import pandas as pd

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


# perfbench/workloads.py builds its index through this name.
PIMAdapter = PIMTree


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

    ``index_factory(window) -> WindowIndex`` builds one index per stream
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
            t0 = time.perf_counter() if measure else 0.0
            if own[side].maintain(spos - w_own + 1):
                if measure:
                    costs.merge += time.perf_counter() - t0
                costs.n_merges += 1
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
