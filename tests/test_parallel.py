"""Correctness tests for the §4 multithreaded join: no duplicated or
missing results under real thread interleaving, ordered propagation,
edge-tuple and nonblocking-merge safety."""
import itertools
import threading

import pytest

from repro.core.pim_tree import PIMTree
from repro.join.parallel import ParallelIBWJ
from repro.join.streams import (
    diff_for_match_rate,
    gen_stream,
    reference_pairs,
)


def _check(seq, w_r, w_s, diff, *, self_join=False, **kw):
    j = ParallelIBWJ(seq, w_r, w_s, diff, self_join=self_join, **kw)
    res = j.run()
    ref = reference_pairs(seq, w_r, w_s, diff, self_join=self_join)
    got = set(res.pairs)
    assert got == ref, (
        f"missing={list(ref - got)[:4]} extra={list(got - ref)[:4]}"
    )
    assert len(res.pairs) == len(ref), "duplicate results propagated"
    laters = [a for a, _ in res.pairs]
    assert laters == sorted(laters), "ordered propagation violated"
    return res


@pytest.mark.parametrize("n_threads", [1, 2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_two_way_parallel_matches_oracle(n_threads, seed):
    w = 128
    seq = gen_stream(2500, seed=seed)
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=n_threads, task_size=4, merge_ratio=0.5)


@pytest.mark.parametrize("n_threads", [1, 2, 4, 8])
def test_self_join_parallel_matches_oracle(n_threads):
    w = 128
    seq = gen_stream(2200, seed=2, self_join=True)
    diff = diff_for_match_rate(2.0, w)
    _check(
        seq, w, w, diff,
        self_join=True, n_threads=n_threads, task_size=4, merge_ratio=0.5,
    )


@pytest.mark.parametrize("task_size", [1, 2, 8, 16])
def test_task_size_sweep(task_size):
    w = 96
    seq = gen_stream(1600, seed=3)
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=4, task_size=task_size)


@pytest.mark.parametrize("blocking", [False, True])
@pytest.mark.parametrize("merge_ratio", [0.25, 1.0])
def test_merge_variants(blocking, merge_ratio):
    w = 128
    seq = gen_stream(3000, seed=4)
    diff = diff_for_match_rate(2.0, w)
    res = _check(
        seq, w, w, diff,
        n_threads=4, task_size=4,
        merge_ratio=merge_ratio, blocking_merge=blocking,
    )
    assert res.n_merges > 0  # the merge path was actually exercised


def test_asymmetric_windows_parallel():
    seq = gen_stream(2000, seed=5)
    diff = diff_for_match_rate(2.0, 256)
    _check(seq, 64, 256, diff, n_threads=4, task_size=4)


def test_asymmetric_rates_parallel():
    w = 96
    seq = gen_stream(1800, seed=6, rate_r=3, rate_s=1)
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=4, task_size=4)


def test_skewed_distribution_parallel():
    w = 128
    seq = gen_stream(1800, seed=7, dist="gaussian")
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=4, task_size=4)


def test_insertion_depth_variants():
    w = 256
    seq = gen_stream(2200, seed=8)
    diff = diff_for_match_rate(2.0, w)
    for d_i in (1, 3):
        _check(
            seq, w, w, diff,
            n_threads=4, task_size=4, insertion_depth=d_i, merge_ratio=0.5,
        )


def test_single_thread_equals_sequential_semantics():
    """n_threads=1 must produce the oracle set in exact arrival order."""
    w = 64
    seq = gen_stream(900, seed=9)
    diff = diff_for_match_rate(2.0, w)
    res = _check(seq, w, w, diff, n_threads=1, task_size=8)
    assert res.n_processed == 900


def test_edge_never_passes_unindexed(monkeypatch):
    """After the run, every position below each stream's edge is indexed."""
    w = 64
    seq = gen_stream(1000, seed=10)
    diff = diff_for_match_rate(2.0, w)
    j = ParallelIBWJ(seq, w, w, diff, n_threads=4, task_size=4)
    j.run()
    for side in ("R", "S"):
        st = j.state[side]
        for p in range(1, st.edge):
            assert st.indexed[p]


def test_throughput_and_counts_reported():
    w = 64
    seq = gen_stream(600, seed=11)
    diff = diff_for_match_rate(2.0, w)
    j = ParallelIBWJ(seq, w, w, diff, n_threads=2, task_size=4)
    res = j.run()
    assert res.n_processed == 600
    assert res.throughput > 0
    assert res.n_matches == len(res.pairs)


def test_cost_is_linear_in_stream_length():
    """Per-tuple cost must not grow with the stream: a 4x longer stream
    may cost at most 2x per tuple (margin for timing noise)."""
    w = 128
    diff = diff_for_match_rate(2.0, w)

    def us_per_tuple(n):
        seq = gen_stream(n, seed=12)
        best = min(
            ParallelIBWJ(seq, w, w, diff, n_threads=1).run().elapsed
            for _ in range(3)
        )
        return best / n * 1e6

    small, large = us_per_tuple(2000), us_per_tuple(8000)
    assert large <= 2 * small, f"{small:.1f} -> {large:.1f} us/tuple"


def test_worker_exception_is_reraised(monkeypatch):
    """An exception in one worker ends run() with that exception, and the
    remaining workers do not hang."""
    calls = itertools.count()
    insert = PIMTree.insert

    def failing_insert(self, key, pos):
        if next(calls) == 200:
            raise RuntimeError("insert failed")
        insert(self, key, pos)

    monkeypatch.setattr(PIMTree, "insert", failing_insert)
    w = 64
    seq = gen_stream(1000, seed=13)
    j = ParallelIBWJ(
        seq, w, w, diff_for_match_rate(2.0, w), n_threads=4, task_size=4
    )
    raised = []

    def run():
        try:
            j.run()
        except RuntimeError as e:
            raised.append(e)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=60)
    assert not th.is_alive(), "run() hung after a worker raised"
    assert [str(e) for e in raised] == ["insert failed"]


@pytest.mark.parametrize(
    "kw",
    [{"w_r": 0}, {"w_s": 0}, {"diff": -1}, {"n_threads": 0}, {"task_size": 0}],
    ids=lambda kw: next(iter(kw)),
)
def test_rejects_bad_inputs(kw):
    args = {"w_r": 16, "w_s": 16, "diff": 100, **kw}
    seq = gen_stream(50, seed=14)
    with pytest.raises(ValueError):
        ParallelIBWJ(seq, **args)
