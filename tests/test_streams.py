"""Tests for the stream workload generators and the oracle SQL."""
import numpy as np
import pytest

from repro.join.streams import (
    KEY_SPACE,
    band_join_sql,
    diff_for_match_rate,
    gen_stream,
    gpos_by_side,
    reference_pairs,
    shifting_gaussian_stream,
)


def _brute_force(seq, w_r, w_s, diff, self_join=False):
    rows = list(
        zip(seq["gpos"], seq["side"], seq["spos"], seq["x"], seq["opp_seen"])
    )
    out = set()
    win = {"R": w_r, "S": w_s}
    for gl, sl, pl, xl, ol in rows:
        for ge, se, pe, xe, _ in rows:
            if ge >= gl or abs(xe - xl) > diff:
                continue
            if self_join:
                if pe >= pl - w_r:
                    out.add((gl, ge))
            elif se != sl and pe > ol - win[se]:
                out.add((gl, ge))
    return out


@pytest.mark.parametrize("self_join", [False, True])
@pytest.mark.parametrize("w", [3, 10, 50])
def test_oracle_sql_matches_bruteforce(self_join, w):
    seq = gen_stream(120, seed=0, key_space=100, self_join=self_join)
    diff = 5
    ref = reference_pairs(seq, w, w, diff, self_join=self_join)
    assert ref == _brute_force(seq, w, w, diff, self_join)


def test_oracle_sql_asymmetric_windows():
    seq = gen_stream(100, seed=1, key_space=64)
    ref = reference_pairs(seq, 5, 30, 4)
    assert ref == _brute_force(seq, 5, 30, 4)


@pytest.mark.parametrize("rate_r,rate_s", [(1, 1), (2, 1), (5, 1), (1, 3)])
def test_gen_stream_rates_and_positions(rate_r, rate_s):
    seq = gen_stream(300, seed=2, rate_r=rate_r, rate_s=rate_s)
    n_r = (seq["side"] == "R").sum()
    n_s = (seq["side"] == "S").sum()
    assert abs(n_r / max(n_s, 1) - rate_r / rate_s) < 0.2 + rate_r / rate_s * 0.1
    for side in "RS":
        sposs = seq.loc[seq["side"] == side, "spos"].tolist()
        assert sposs == list(range(1, len(sposs) + 1))


def test_gen_stream_opp_seen_consistent():
    seq = gen_stream(200, seed=3)
    seen = {"R": 0, "S": 0}
    for _, row in seq.iterrows():
        opp = "S" if row["side"] == "R" else "R"
        assert row["opp_seen"] == seen[opp]
        seen[row["side"]] += 1


def test_gen_stream_self_join_layout():
    seq = gen_stream(50, seed=4, self_join=True)
    assert (seq["side"] == "R").all()
    assert (seq["spos"] == seq["gpos"]).all()
    assert (seq["opp_seen"] == seq["spos"] - 1).all()


@pytest.mark.parametrize("dist", ["uniform", "gaussian", "gamma_k3", "gamma_k1"])
def test_distributions_stay_in_key_space(dist):
    seq = gen_stream(2000, seed=5, dist=dist)
    assert seq["x"].between(0, KEY_SPACE - 1).all()


def test_gaussian_is_centered():
    seq = gen_stream(5000, seed=6, dist="gaussian")
    assert abs(seq["x"].mean() / KEY_SPACE - 0.5) < 0.02


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        gen_stream(10, dist="cauchy")


@pytest.mark.parametrize("w", [1 << 10, 1 << 16, 1 << 20])
def test_diff_for_match_rate_inverts(w):
    """E[matches] = w*(2*diff+1)/K should land near the target rate."""
    diff = diff_for_match_rate(2.0, w)
    achieved = w * (2 * diff + 1) / KEY_SPACE
    assert 0.5 <= achieved <= 3.5


def test_diff_scales_inversely_with_window():
    assert diff_for_match_rate(2.0, 1 << 10) > diff_for_match_rate(2.0, 1 << 20)


def test_empirical_match_rate_close_to_target():
    w = 1 << 12
    seq = gen_stream(3 * w, seed=7)
    diff = diff_for_match_rate(2.0, w)
    ref = reference_pairs(seq, w, w, diff)
    steady = [p for p in ref if p[0] > 2 * w]
    per_tuple = len(steady) / w
    assert 1.0 < per_tuple < 4.0


def test_shifting_gaussian_phases():
    s = shifting_gaussian_stream(1000, 2000, 1000, r=1.0, seed=8)
    assert len(s) == 4000
    m1 = s["x"][:1000].mean()
    m3 = s["x"][3000:].mean()
    assert m3 > m1 * 1.5  # mean moved up by ~r
    assert (s["side"] == "R").all()


def test_shifting_gaussian_r0_is_stationary():
    s = shifting_gaussian_stream(1000, 1000, 1000, r=0.0, seed=9)
    assert abs(s["x"][:1000].mean() - s["x"][2000:].mean()) < 0.05 * KEY_SPACE


def test_band_join_sql_table_name():
    sql = band_join_sql(10, 10, 5, table="foo")
    assert "FROM foo e JOIN foo l" in sql


def test_gpos_by_side_maps_spos_to_gpos():
    seq = gen_stream(40, seed=3, rate_r=3, rate_s=1)
    by_side = gpos_by_side(seq)
    for g, side, spos in zip(seq["gpos"], seq["side"], seq["spos"]):
        assert by_side[side][spos - 1] == g
    selfj = gpos_by_side(gen_stream(10, self_join=True), self_join=True)
    assert selfj["S"] is selfj["R"] and selfj["R"] == list(range(1, 11))
