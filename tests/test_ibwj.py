"""Oracle-equivalence tests for the single-threaded IBWJ driver across
every index adapter and workload shape the paper evaluates."""
import gc

import pytest

from repro.join import ibwj
from repro.join.streams import (
    diff_for_match_rate,
    gen_stream,
    reference_pairs,
)

FACTORIES = {
    "bplus": lambda w: ibwj.BPlusAdapter(w),
    "chain2_b": lambda w: ibwj.ChainAdapter(w, 2, False),
    "chain2_ib": lambda w: ibwj.ChainAdapter(w, 2, True),
    "chain5_b": lambda w: ibwj.ChainAdapter(w, 5, False),
    "chain5_ib": lambda w: ibwj.ChainAdapter(w, 5, True),
    "rr1": lambda w: ibwj.RoundRobinAdapter(w, 1),
    "rr4": lambda w: ibwj.RoundRobinAdapter(w, 4),
    "bw": lambda w: ibwj.BwAdapter(w),
    "nlwj": lambda w: ibwj.NLWJAdapter(w),
    "im_m125": lambda w: ibwj.IMAdapter(w, 0.125),
    "im_m1": lambda w: ibwj.IMAdapter(w, 1.0),
    "pim_d1": lambda w: ibwj.PIMAdapter(w, 0.25, 1),
    "pim_d2": lambda w: ibwj.PIMAdapter(w, 0.25, 2),
    "pim_d3": lambda w: ibwj.PIMAdapter(w, 1.0, 3),
    "pim_nocc": lambda w: ibwj.PIMAdapter(w, 0.25, 2, use_locks=False),
}


def _run_and_check(seq, w_r, w_s, diff, factory, self_join=False):
    res = ibwj.run_ibwj(seq, w_r, w_s, diff, factory, self_join=self_join)
    ref = reference_pairs(seq, w_r, w_s, diff, self_join=self_join)
    got = set(res.pairs)
    assert got == ref
    assert len(res.pairs) == len(ref)  # no duplicate results either
    return res


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_two_way_join_matches_oracle(name):
    w = 192
    seq = gen_stream(2500, seed=11)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_self_join_matches_oracle(name):
    w = 160
    seq = gen_stream(2000, seed=12, self_join=True)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name], self_join=True)


@pytest.mark.parametrize("name", ["bplus", "pim_d2", "im_m125", "bw"])
@pytest.mark.parametrize("w_r,w_s", [(64, 512), (512, 64)])
def test_asymmetric_windows(name, w_r, w_s):
    seq = gen_stream(2500, seed=13)
    diff = diff_for_match_rate(2.0, max(w_r, w_s))
    _run_and_check(seq, w_r, w_s, diff, FACTORIES[name])


@pytest.mark.parametrize("name", ["bplus", "pim_d2", "chain2_ib", "rr4"])
@pytest.mark.parametrize("rate_r,rate_s", [(4, 1), (1, 4)])
def test_asymmetric_rates(name, rate_r, rate_s):
    w = 128
    seq = gen_stream(2200, seed=14, rate_r=rate_r, rate_s=rate_s)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


@pytest.mark.parametrize("name", ["bplus", "pim_d2", "im_m125"])
@pytest.mark.parametrize("dist", ["gaussian", "gamma_k3", "gamma_k1"])
def test_skewed_distributions(name, dist):
    w = 128
    seq = gen_stream(2000, seed=15, dist=dist)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


@pytest.mark.parametrize("name", ["pim_d2", "bplus"])
@pytest.mark.parametrize("rate", [0.25, 16.0])
def test_extreme_match_rates(name, rate):
    w = 256
    seq = gen_stream(2000, seed=16)
    diff = diff_for_match_rate(rate, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


def test_zero_diff_equijoin():
    w = 128
    seq = gen_stream(1500, seed=17, key_space=50)  # force duplicates
    _run_and_check(seq, w, w, 0, FACTORIES["pim_d2"])


def test_warmup_excludes_pairs_and_time():
    w = 64
    seq = gen_stream(1200, seed=18)
    diff = diff_for_match_rate(2.0, w)
    res = ibwj.run_ibwj(
        seq, w, w, diff, FACTORIES["bplus"], warmup=600
    )
    ref = reference_pairs(seq, w, w, diff)
    expect = {p for p in ref if p[0] > 600}
    assert set(res.pairs) == expect
    assert res.n_processed == 600


def test_skipping_warmup_probes_leaves_results_unchanged():
    """probe_during_warmup=False must not change post-warmup results:
    probes are read-only, so the index state after warmup is identical."""
    w = 64
    seq = gen_stream(1200, seed=18)
    diff = diff_for_match_rate(2.0, w)
    a = ibwj.run_ibwj(
        seq, w, w, diff, FACTORIES["pim_d2"], warmup=600
    )
    b = ibwj.run_ibwj(
        seq, w, w, diff, FACTORIES["pim_d2"], warmup=600,
        probe_during_warmup=False,
    )
    assert set(a.pairs) == set(b.pairs)


def test_measure_mode_collects_step_costs():
    w = 256
    seq = gen_stream(3000, seed=19)
    diff = diff_for_match_rate(2.0, w)
    res = ibwj.run_ibwj(
        seq, w, w, diff,
        lambda win: ibwj.PIMAdapter(win, 0.125, 2),
        collect_pairs=False, measure=True,
    )
    c = res.costs
    assert c.search > 0 and c.scan >= 0 and c.insert > 0
    assert c.merge > 0 and c.n_merges > 0
    assert c.total() <= res.elapsed * 1.2
    per = c.per_tuple_us()
    assert set(per) == {"search", "scan", "insert", "delete", "merge"}


def test_measure_mode_same_results_as_fast_mode():
    w = 96
    seq = gen_stream(1500, seed=20)
    diff = diff_for_match_rate(2.0, w)
    r1 = ibwj.run_ibwj(seq, w, w, diff, FACTORIES["im_m125"], measure=True)
    r2 = ibwj.run_ibwj(seq, w, w, diff, FACTORIES["im_m125"], measure=False)
    assert set(r1.pairs) == set(r2.pairs)


def test_pairs_df_schema():
    df = ibwj.pairs_df([(3, 1), (5, 2)])
    assert list(df.columns) == ["later_gpos", "earlier_gpos"]
    assert df.dtypes.astype(str).tolist() == ["int64", "int64"]


def test_throughput_positive():
    w = 64
    seq = gen_stream(800, seed=21)
    res = ibwj.run_ibwj(seq, w, w, 100, FACTORIES["bplus"], collect_pairs=False)
    assert res.throughput > 0
    assert res.n_processed == 800


class _RaisingAdapter(ibwj.BPlusAdapter):
    def insert(self, key, pos):
        raise RuntimeError("insert failed")


def test_gc_reenabled_after_adapter_raises():
    """run_ibwj defers GC for its loop; an exception must not leave it off."""
    assert gc.isenabled()
    seq = gen_stream(50, seed=22)
    with pytest.raises(RuntimeError, match="insert failed"):
        ibwj.run_ibwj(seq, 16, 16, 100, _RaisingAdapter)
    assert gc.isenabled()


@pytest.mark.parametrize(
    "w_r, w_s, diff", [(0, 16, 100), (16, 0, 100), (16, 16, -1)]
)
def test_rejects_bad_inputs(w_r, w_s, diff):
    seq = gen_stream(50, seed=23)
    with pytest.raises(ValueError):
        ibwj.run_ibwj(seq, w_r, w_s, diff, FACTORIES["bplus"])
