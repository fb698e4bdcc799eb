"""The table registry drives ``jobs/run_all.py``, the smoke bench and
DESIGN.md §4; these tests keep the three and ``results/`` in step."""
import importlib.util
import re
from pathlib import Path

import pytest

from repro.bench.registry import TABLES

ROOT = Path(__file__).resolve().parents[1]
NAMES = [t.name for t in TABLES]


def _run_all(monkeypatch, get_spark):
    """``jobs/run_all.py``'s ``main``, starting sessions with ``get_spark``."""
    spec = importlib.util.spec_from_file_location(
        "run_all", ROOT / "jobs" / "run_all.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "get_spark", get_spark)
    return mod.main


def _panels(title: str) -> set[str]:
    """Figure panels a title names: "Fig 10c/d: ..." -> {"10c", "10d"}."""
    num, letters = re.match(r"Fig (\d+)([a-d](?:/[a-d])*)?", title).groups()
    return {num + x for x in letters.split("/")} if letters else {num}


def test_names_unique_and_match_results():
    assert len(set(NAMES)) == len(NAMES) == 25
    stems = sorted(p.stem for p in (ROOT / "results").glob("table*.md"))
    assert stems == sorted(NAMES)


def test_design_table_names_registry_entries():
    """Every name in the last column of DESIGN.md §4 is a registry entry
    (or an existing path) covering that row's figure panel, and every
    registry entry appears there."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design[design.index("## 4.") : design.index("## 5.")]
    rows = [ln for ln in section.splitlines() if re.match(r"\| T\d", ln)]
    assert rows
    by_name = {t.name: t for t in TABLES}
    seen = set()
    for row in rows:
        cells = row.split("|")
        fig = re.match(r"\s*(\d+[a-d]?)", cells[2]).group(1)
        for ref in re.findall(r"`([^`]+)`", cells[-2]):
            if ref in by_name:
                assert fig in _panels(by_name[ref].title), (row, ref)
                seen.add(ref)
            else:
                assert (ROOT / ref).exists(), (row, ref)
    assert seen == set(NAMES)


def test_needs_spark_follows_generator_signature():
    spark_tables = {t.name for t in TABLES if t.needs_spark}
    assert spark_tables == {
        "table14_asym_rates",
        "table15_asym_windows",
        "table18_spark_scalability",
        "table19_distributions",
    }


def test_smoke_run_leaves_committed_results_alone(spark, monkeypatch):
    """A smoke run writes to results/smoke/, never over the full-scale
    tables or ALL.md."""
    committed = ["table25_merge_cost.md", "ALL.md"]
    before = {f: (ROOT / "results" / f).read_bytes() for f in committed}
    smoke = ROOT / "results" / "smoke" / "table25_merge_cost.md"
    smoke.unlink(missing_ok=True)
    _run_all(monkeypatch, lambda app: spark)(
        ["--smoke", "--only", "table25_merge_cost"]
    )
    for f in committed:
        assert (ROOT / "results" / f).read_bytes() == before[f], f
    assert smoke.read_text(encoding="utf-8").startswith(
        "## table25_merge_cost — Fig 14: merge cost vs element count"
    )


@pytest.mark.parametrize("only", ["foo", "table1", "table25_merge_cost,foo"])
def test_only_rejects_unknown_names(only, monkeypatch):
    """--only matches exact names and exits non-zero, listing the valid
    ones, before any table runs."""

    def no_spark(app):
        raise AssertionError("no session should start")

    with pytest.raises(SystemExit) as exc:
        _run_all(monkeypatch, no_spark)(["--only", only])
    msg = str(exc.value.code)
    assert msg.startswith("unknown table(s)")
    assert all(name in msg for name in NAMES)
