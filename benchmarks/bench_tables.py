"""Smoke-scale run of every table generator in ``repro.bench.registry``;
the full-scale numbers recorded in EXPERIMENTS.md come from
``jobs/run_all.py``."""
import pytest

from repro.bench.registry import TABLES


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_table(benchmark, request, table):
    args = (request.getfixturevalue("spark"),) if table.needs_spark else ()
    df = benchmark.pedantic(
        lambda: table.generator(*args, "smoke"),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert len(df) > 0
