"""Correctness check of every join result against the DuckDB oracle.

``streams.band_join_sql`` writes the band predicate as
``ABS(e.x - l.x) <= diff``, which DuckDB can only run as a nested-loop
join: at ~430k tuples it had not finished after 600 s. The same
predicate written as ``e.x BETWEEN l.x - diff AND l.x + diff`` is a range
join and takes about a second. The checker uses that range form, and on
every run cross-checks it against ``band_join_sql`` itself on a short
prefix of the stream. The oracle runs in a child process, before any
timed region, so neither its time nor its memory reaches a metric.

Run as a script, ``python3 check.py IN OUT`` reads the pickled
``_oracle`` arguments from IN and writes its pickled result to OUT.
"""
from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np
import pandas as pd

CROSS_CHECK_PREFIX = 3000


def encode(later, earlier) -> np.ndarray:
    """Pairs as one int64 each, ``later_gpos << 32 | earlier_gpos``."""
    later = np.asarray(later, np.int64)
    earlier = np.asarray(earlier, np.int64)
    return (later << 32) | earlier


def range_join_sql(w_r: int, w_s: int, diff: int, self_join: bool, table: str) -> str:
    """``band_join_sql`` with the band predicate in range form."""
    from repro.join.streams import band_join_sql

    sql = band_join_sql(w_r, w_s, diff, self_join=self_join, table=table)
    band = f"ABS(e.x - l.x) <= {diff}"
    if band not in sql:
        raise RuntimeError(f"band predicate {band!r} not found in {sql!r}")
    return sql.replace(band, f"e.x BETWEEN l.x - {diff} AND l.x + {diff}")


def _oracle(seq: pd.DataFrame, w_r: int, w_s: int, diff: int, self_join: bool):
    """(sorted encoded oracle pairs, range form == band_join_sql on the
    prefix). Runs in the child process."""
    import duckdb

    from repro.join.streams import band_join_sql

    def pairs(con, sql) -> np.ndarray:
        got = con.execute(sql).fetchnumpy()
        return np.sort(encode(got["later_gpos"], got["earlier_gpos"]))

    con = duckdb.connect()
    try:
        con.execute("SET enable_progress_bar = false")
        con.register("stream", seq)
        con.register("prefix", seq.iloc[:CROSS_CHECK_PREFIX])
        full = pairs(con, range_join_sql(w_r, w_s, diff, self_join, "stream"))
        ranged = pairs(con, range_join_sql(w_r, w_s, diff, self_join, "prefix"))
        band = pairs(
            con, band_join_sql(w_r, w_s, diff, self_join=self_join, table="prefix")
        )
    finally:
        con.close()
    return full, bool(np.array_equal(ranged, band))


def oracle_pairs(seq, w_r, w_s, diff, self_join) -> tuple[np.ndarray, bool]:
    """Run ``_oracle`` in a child Python process and wait for it to end.
    A plain subprocess, not ``multiprocessing``, so no helper process
    (such as the resource tracker) outlives the call."""
    with tempfile.TemporaryDirectory(
        prefix="oracle-", dir=os.environ.get("TMPDIR")
    ) as d:
        inp, out = os.path.join(d, "in.pkl"), os.path.join(d, "out.pkl")
        with open(inp, "wb") as f:
            pickle.dump((seq, w_r, w_s, diff, self_join), f)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), inp, out],
            check=True, timeout=150,
        )
        with open(out, "rb") as f:
            return pickle.load(f)


def errors(got: np.ndarray, expected: np.ndarray) -> int:
    """Missing plus extra pairs of ``got`` against the unique sorted
    ``expected``; a pair reported twice counts once as extra."""
    common = np.intersect1d(got, expected).size
    return (expected.size - common) + (got.size - common)


def self_test(expected: np.ndarray) -> bool:
    """The checker must count one error when a pair is dropped from a
    correct result and one when a pair is added to it."""
    dropped = expected[1:]
    added = np.append(expected, encode(1, 1))  # earlier == later: never a pair
    return errors(dropped, expected) == 1 and errors(added, expected) == 1


if __name__ == "__main__":
    with open(sys.argv[1], "rb") as f:
        args = pickle.load(f)
    result = _oracle(*args)
    with open(sys.argv[2], "wb") as f:
        pickle.dump(result, f)
