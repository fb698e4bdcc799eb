"""Round-robin (context-insensitive) window partitioning (paper §2.2.3).

Models the index layout of low-latency handshake join / SplitJoin /
BiStream: the window is split by *arrival order* into P partitions, each
with a local B+-Tree. A tuple is indexed by exactly one partition
(``pos mod P``) but every probe must search **all** P local indexes —
the redundant index search that limits these designs for IBWJ (Eq. 4).

This class is the single-threaded cost mirror; the multithreaded
behaviour (each partition on its own core, probe fan-out to all cores)
is reproduced by the concurrency simulator and by the Spark harness.
"""
from __future__ import annotations

from repro.core.bplus_tree import BPlusTree
from repro.core.window_index import WindowIndex


class RoundRobinIndex(WindowIndex):
    """P local B+-Trees over an arrival-order-partitioned window."""

    def __init__(self, window: int, n_partitions: int, fanout: int = 16) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.window = window
        self.n_partitions = n_partitions
        self.locals = [BPlusTree(fanout) for _ in range(n_partitions)]

    def __len__(self) -> int:
        return sum(len(t) for t in self.locals)

    def _home(self, pos: int) -> int:
        return pos % self.n_partitions

    def insert(self, key: int, pos: int) -> None:
        self.locals[self._home(pos)].insert(key, pos)

    def delete(self, key: int, pos: int) -> bool:
        """Expired tuple removal — lands on the same local index that
        inserted it (pos and pos - w are congruent only when P | w; we key
        the home partition on pos, so the deleter recomputes it)."""
        return self.locals[self._home(pos)].delete(key, pos)

    retire = delete

    def probe(self, lo: int, hi: int, min_pos: int = -1) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for t in self.locals:
            out.extend(t.search_range(lo, hi, min_pos))
        return out

    def memory_bytes(self) -> int:
        return sum(t.memory_bytes() for t in self.locals)
