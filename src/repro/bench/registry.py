"""The evaluation tables: one ``(name, title, generator)`` entry each.

``jobs/run_all.py`` runs them (``--only <name>`` picks some) and writes
``results/<name>.md``; ``benchmarks/bench_tables.py`` smoke-runs every
entry. A generator takes ``(scale)``, or ``(spark, scale)`` when it runs
Spark jobs.
"""
from __future__ import annotations

import inspect
from functools import partial
from typing import Callable, NamedTuple

from repro.bench import tables_parallel as par
from repro.bench import tables_single as single


class Table(NamedTuple):
    name: str
    title: str
    generator: Callable

    @property
    def needs_spark(self) -> bool:
        return "spark" in inspect.signature(self.generator).parameters


TABLES = [
    Table("table01_existing_approaches", "Fig 8a: window join via NLWJ / B+-Tree / round-robin / Bw-Tree", par.table_existing_approaches),
    Table("table02_chained", "Fig 8b: chained index (B-chain vs IB-chain) vs chain length", single.table_chained_index),
    Table("table03_insertion_depth", "Fig 8c: single-threaded PIM vs insertion depth D_I", single.table_insertion_depth_single),
    Table("table04_insertion_depth_par", "Fig 8d: parallel PIM vs insertion depth D_I", par.table_insertion_depth_parallel),
    Table("table05_merge_ratio_par", "Fig 9a: parallel PIM vs merge ratio", par.table_merge_ratio_parallel),
    Table("table06_breakdown", "Fig 9b: per-tuple step cost breakdown (us)", single.table_cost_breakdown),
    Table("table07_merge_ratio_im", "Fig 9c: single-threaded IM-Tree vs merge ratio", partial(single.table_merge_ratio_single, "im")),
    Table("table08_merge_ratio_pim", "Fig 9d: single-threaded PIM-Tree vs merge ratio", partial(single.table_merge_ratio_single, "pim")),
    Table("table09_single_threaded", "Fig 10a: single-threaded B+ vs IM vs PIM", single.table_single_threaded_compare),
    Table("table10_match_rate", "Fig 10b: throughput vs match rate (single-threaded)", single.table_match_rate),
    Table("table11_match_rate_par", "Fig 10b: parallel PIM vs match rate", par.table_match_rate_parallel),
    Table("table12_task_size", "Fig 10c/d: throughput and latency vs task size", par.table_task_size),
    Table("table13_memory", "Fig 11a: memory footprint PIM vs B+", single.table_memory_footprint),
    Table("table14_asym_rates", "Fig 11b: asymmetric input rates (Spark wall-clock)", par.table_asymmetric_rates),
    Table("table15_asym_windows", "Fig 11c: asymmetric window sizes (Spark wall-clock)", par.table_asymmetric_windows),
    Table("table16_bandwidth", "Fig 11d: effective memory bandwidth proxy", par.table_memory_bandwidth),
    Table("table17_scalability", "Fig 12a: scalability and CC overhead", par.table_scalability),
    Table("table18_spark_scalability", "Fig 12a cross-check: real multicore speedup via Spark", par.table_spark_scalability),
    Table("table19_distributions", "Fig 12b: skewed key distributions (Spark wall-clock)", par.table_distributions),
    Table("table20_selfjoin", "Fig 12c: self-join single vs multithreaded", par.table_selfjoin),
    Table("table21_drift_inserts", "Fig 13a: insert distribution under drifting Gaussian", single.table_drift_insert_distribution),
    Table("table22_drift_throughput", "Fig 13b: throughput under distribution drift", par.table_drift_throughput),
    Table("table23_multithreading", "Fig 13c: multithreading efficiency", par.table_multithreading_efficiency),
    Table("table24_asym_windows_st", "Fig 11c companion: single-threaded asymmetric windows", single.table_asymmetric_windows_single),
    Table("table25_merge_cost", "Fig 14: merge cost vs element count (linearity)", single.table_merge_cost),
]
