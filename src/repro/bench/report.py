"""Runner for the evaluation tables of ``repro.bench.registry``.

``run_job`` runs one table's generator, prints the rows as a markdown
table (the same rows EXPERIMENTS.md records next to the paper's numbers)
and writes it to ``results_dir(scale)/<name>.md``. Full-scale tables go
to ``results/``, which is committed; smoke-scale ones go to the
git-ignored ``results/smoke/``, so a smoke run never overwrites
full-scale numbers.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Session for standalone job runs — mirrors the conftest fixture
    settings (broadcast joins off, Arrow on)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def to_markdown(pdf: pd.DataFrame) -> str:
    """Minimal GitHub-markdown table renderer (``tabulate`` is not in the
    offline environment); floats are rounded to readable precision."""

    def fmt(v) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000:
                return f"{v:,.0f}"
            return f"{v:.4g}"
        return str(v)

    cols = list(pdf.columns)
    lines = [
        "| " + " | ".join(cols) + " |",
        "| " + " | ".join("---" for _ in cols) + " |",
    ]
    for _, row in pdf.iterrows():
        lines.append("| " + " | ".join(fmt(row[c]) for c in cols) + " |")
    return "\n".join(lines)


def results_dir(scale: str) -> Path:
    """``results/`` for full-scale tables, ``results/<scale>/`` otherwise."""
    root = Path(__file__).resolve().parents[3] / "results"
    return root if scale == "full" else root / scale


def run_job(table, spark: SparkSession, scale: str = "full") -> pd.DataFrame:
    """Run one registry table, print + persist its markdown, return its
    rows."""
    t0 = time.perf_counter()
    args = (spark, scale) if table.needs_spark else (scale,)
    pdf: pd.DataFrame = table.generator(*args)
    dt = time.perf_counter() - t0
    md = (
        f"## {table.name} — {table.title}\n\n{to_markdown(pdf)}\n\n"
        f"_generated in {dt:.1f}s_\n"
    )
    print(md)
    out_dir = results_dir(scale)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{table.name}.md").write_text(md, encoding="utf-8")
    return pdf
