"""Run the evaluation tables of ``repro.bench.registry``.

Usage: ``spark-submit jobs/run_all.py [--smoke] [--only name[,name...]]``
(or ``python jobs/run_all.py ...``). Writes one ``<name>.md`` per table
plus ``ALL.md``, all tables in registry order, to ``results/`` at full
scale (EXPERIMENTS.md quotes these numbers next to the paper's) and to
the git-ignored ``results/smoke/`` with ``--smoke``, which shrinks the
sweeps. ``--only`` takes exact table names.
"""
import sys
import time

from repro.bench.registry import TABLES
from repro.bench.report import get_spark, results_dir, run_job


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    scale = "smoke" if "--smoke" in argv else "full"
    tables = TABLES
    if "--only" in argv:
        names = argv[argv.index("--only") + 1].split(",")
        valid = [t.name for t in TABLES]
        unknown = [n for n in names if n not in valid]
        if unknown:
            sys.exit(
                f"unknown table(s): {', '.join(unknown)}\n"
                f"valid names: {', '.join(valid)}"
            )
        tables = [t for t in TABLES if t.name in names]
    spark = get_spark("run_all")
    t_all = time.perf_counter()
    for table in tables:
        t0 = time.perf_counter()
        run_job(table, spark, scale)
        print(
            f"[run_all] {table.name} done in {time.perf_counter() - t0:.1f}s",
            file=sys.stderr, flush=True,
        )
    out = results_dir(scale)
    parts = [
        (out / f"{t.name}.md").read_text(encoding="utf-8")
        for t in TABLES
        if (out / f"{t.name}.md").exists()
    ]
    (out / "ALL.md").write_text("\n".join(parts), encoding="utf-8")
    print(
        f"[run_all] all tables in {time.perf_counter() - t_all:.1f}s",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
