"""The benchmark's workloads.

Each workload builds its input from the seed, calls one public join
entry point (the timed region is that call alone) and hands its pairs to
the checker encoded as ``check.encode`` does. ``traced_join`` makes the
same call with spans around the public functions of each layer it
crosses and turns them into that workload's per-layer metrics.

Sizes are fixed here, not derived from the run length, so two runs of a
workload always do the same work per join call.
"""
from __future__ import annotations

import contextlib
import glob
import os
import pstats
import shutil
import time

import numpy as np

from check import encode
from repro.core.bplus_tree import BPlusTree
from repro.core.immutable_btree import ImmutableBTree
from repro.core.pim_tree import PIMTree
from repro.join import ibwj
from repro.join.parallel import ParallelIBWJ
from repro.join.streams import (
    diff_for_match_rate,
    diff_for_match_rate_empirical,
    gen_stream,
    shifting_gaussian_stream,
)
from spans import percentile_us

# The sub-structure searches under a PIM-Tree probe: T_S and the T_I
# sub-indexes. Patched at class level in traced runs only.
_PROBE_PARTS = [
    (ImmutableBTree, "search_range", "core.probe.ts", None),
    (BPlusTree, "search_range", "core.probe.ti", None),
]
_CORE_TOP = ("core.insert", "core.probe", "core.merge")
_NO_SPANS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0,
             "durations": np.empty(0), "count": 0}


@contextlib.contextmanager
def _tracked_trees():
    """Every PIMTree built inside the block, so lock acquisitions of
    trees a merge replaced still count."""
    trees: list[PIMTree] = []
    orig = PIMTree.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        trees.append(self)

    PIMTree.__init__ = init
    try:
        yield trees
    finally:
        PIMTree.__init__ = orig


def _core_metrics(s: dict, trees: list[PIMTree]) -> dict[str, float]:
    ins = s.get("core.insert", _NO_SPANS)
    probe = s.get("core.probe", _NO_SPANS)
    merge = s.get("core.merge", _NO_SPANS)
    return {
        "core.insert.calls": ins["calls"],
        "core.insert.self_s": ins["self_s"],
        "core.insert.p50_us": percentile_us(ins["durations"], 50),
        "core.insert.p99_us": percentile_us(ins["durations"], 99),
        "core.probe.calls": probe["calls"],
        "core.probe.self_s": probe["self_s"],
        "core.probe.p50_us": percentile_us(probe["durations"], 50),
        "core.probe.p99_us": percentile_us(probe["durations"], 99),
        "core.probe.matches_per_call": probe["count"] / max(1, probe["calls"]),
        "core.probe.ts_s": s.get("core.probe.ts", _NO_SPANS)["total_s"],
        "core.probe.ti_s": s.get("core.probe.ti", _NO_SPANS)["total_s"],
        "core.merge.calls": merge["calls"],
        "core.merge.s": merge["total_s"],
        "core.merge.max_ms": float(merge["durations"].max(initial=0.0) * 1e3),
        "core.merge.elements": merge["count"],
        "core.merge.ns_per_element": merge["total_s"] / max(1, merge["count"]) * 1e9,
        "core.lock_acquisitions": sum(t.lock_acquisitions for t in trees),
    }


def _core_top_s(s: dict) -> float:
    """Time in core spans that no other traced span encloses."""
    return sum(s.get(n, _NO_SPANS)["top_s"] for n in _CORE_TOP)


class Workload:
    """One input and one join call; subclasses fill in the sizes."""

    clock = time.perf_counter  # span clock for traced runs
    tuples: int  # input tuples per join call

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self) -> None:
        """Start the service the join runs on (the Spark session)."""

    def prepare(self) -> None:
        """Build the input stream and band width from the seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed call that pays first-call costs."""
        self.join()

    def join(self):
        raise NotImplementedError

    def pairs(self, result) -> np.ndarray:
        a = np.asarray(result.pairs, np.int64).reshape(-1, 2)
        return encode(a[:, 0], a[:, 1])

    def oracle_args(self) -> tuple:
        """(stream, w_r, w_s, diff, self_join) for ``check.oracle_pairs``."""
        raise NotImplementedError

    def traced_join(self, tracer, untraced_tput: float):
        """(results to check, the traced call's result first; wall seconds
        of the traced call; per-layer metrics)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop what ``start`` started."""


class IbwjUniform(Workload):
    """``run_ibwj`` over the PIM-Tree adapter (m=1/8, D_I=2): the paper's
    headline single-threaded configuration."""

    W = 1 << 16
    tuples = 3 * W  # both windows fill, then w/2 per stream in steady state
    WARM_TUPLES = W // 2

    def prepare(self) -> None:
        self.seq = gen_stream(self.tuples, seed=self.seed)
        self.diff = diff_for_match_rate(2.0, self.W)

    def warm_up(self) -> None:
        ibwj.run_ibwj(
            self.seq.iloc[: self.WARM_TUPLES], self.W, self.W, self.diff,
            ibwj.PIMAdapter,
        )

    def join(self, factory=ibwj.PIMAdapter):
        return ibwj.run_ibwj(self.seq, self.W, self.W, self.diff, factory)

    def oracle_args(self) -> tuple:
        return self.seq, self.W, self.W, self.diff, False

    def traced_join(self, tracer, untraced_tput):
        # The adapter is wrapped through index_factory, so the driver runs
        # its plain probe path (measure=True would switch to probe_split).
        def factory(win):
            a = ibwj.PIMAdapter(win)
            a.insert = tracer.wrap("core.insert", a.insert)
            a.probe = tracer.wrap("core.probe", a.probe, len)
            return a

        merge = (PIMTree, "merge", "core.merge", int)
        with _tracked_trees() as trees, tracer.patched(_PROBE_PARTS + [merge]):
            t0 = time.perf_counter()
            res = self.join(factory)
            wall = time.perf_counter() - t0
        s = tracer.summary()
        m = _core_metrics(s, trees)
        m["ibwj.self_us_per_tuple"] = (wall - _core_top_s(s)) / self.tuples * 1e6
        m["ibwj.pairs"] = len(res.pairs)
        m.update(self._simulate(untraced_tput))
        return [res], wall, m

    def _simulate(self, measured_tput: float) -> dict[str, float]:
        """1-thread simulated throughput from calibrated service times,
        as a share of the measured throughput of this workload."""
        from repro.bench import calibrate
        from repro.concurrency.simulator import SimConfig, simulate

        cal = calibrate.measure("pim", self.W, seed=self.seed)
        st = calibrate.service_times_pim(cal)
        t0 = time.perf_counter()
        # at least three merge cycles, as the results tables simulate
        n = max(40_000, int(3.2 * st.merge_interval))
        sim = simulate(SimConfig(n_threads=1, n_tuples=n, mode="pim"), st)
        return {
            "sim.fidelity_1t": sim.throughput / measured_tput,
            "sim.s": time.perf_counter() - t0,
        }


class ParallelUniform(Workload):
    """``ParallelIBWJ.run``: 4 threads, task size 8, m=1, nonblocking
    merge, two-way (the self-join path skips the per-pair gpos lookup)."""

    clock = time.thread_time  # wall spans would include other threads' work
    W = 1 << 9
    tuples = 3 * W  # a per-pair O(n) gpos map makes one call cost O(n^2)
    THREADS = 4
    TASK_SIZE = 8

    def prepare(self) -> None:
        self.seq = gen_stream(self.tuples, seed=self.seed)
        self.diff = diff_for_match_rate(2.0, self.W)

    def warm_up(self) -> None:
        self._run(self.seq.iloc[: 2 * self.W])

    def _run(self, seq):
        return ParallelIBWJ(
            seq, self.W, self.W, self.diff, n_threads=self.THREADS,
            task_size=self.TASK_SIZE, merge_ratio=1.0,
        ).run()

    def join(self):
        return self._run(self.seq)

    def oracle_args(self) -> tuple:
        return self.seq, self.W, self.W, self.diff, False

    def traced_join(self, tracer, untraced_tput):
        core = _PROBE_PARTS + [
            (PIMTree, "insert", "core.insert", None),
            (PIMTree, "search_range", "core.probe", len),
            (PIMTree, "merged_copy", "core.merge", len),
        ]
        with _tracked_trees() as trees, tracer.patched(core):
            c0 = time.process_time()
            t0 = time.perf_counter()
            res = self.join()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        s = tracer.summary()
        m = _core_metrics(s, trees)
        m["parallel.cpu_per_wall"] = cpu / wall
        m["parallel.self_cpu_s"] = cpu - _core_top_s(s)
        m["parallel.merges"] = res.n_merges
        m["parallel.matches"] = res.n_matches
        return [res], wall, m


def _spark_session():
    """local[4] session with the repository's job settings; every file
    Spark writes stays under the checkout's ``.perfbench/tmp``."""
    tmp = os.environ["TMPDIR"]
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={tmp} "
        f"--conf \"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}\" "
        "pyspark-shell"
    )
    from repro.bench.report import get_spark

    return get_spark("perfbench")


def _buckets(x: np.ndarray, bounds: list[int]) -> np.ndarray:
    """Bucket of each key: the number of bounds below it, as
    ``spark_join._assign_partitions`` computes it."""
    return np.searchsorted(np.asarray(bounds, np.int64), x, side="left")


def _rows_per_bucket(lo: np.ndarray, hi: np.ndarray, n_buckets: int) -> np.ndarray:
    """Rows each bucket receives when tuple i goes to buckets lo[i]..hi[i]."""
    d = np.zeros(n_buckets + 1, np.int64)
    np.add.at(d, lo, 1)
    np.add.at(d, hi + 1, -1)
    return np.cumsum(d)[:n_buckets]


class SparkDrift(Workload):
    """``parallel_band_join`` (local[4], P=4 buckets) on the Fig. 13
    shifting-Gaussian self-join stream, r=1, collected with toPandas. The
    traced run also calls ``microbatch_band_join`` (B = w/2) once on the
    same stream."""

    W = 1 << 12
    P = 4
    B = W // 2
    tuples = 4 * W  # phases: stationary w, drifting 2w, shifted w
    spark = None

    def start(self) -> None:
        self.spark = _spark_session()

    def prepare(self) -> None:
        w = self.W
        self.seq = shifting_gaussian_stream(w, 2 * w, w, r=1.0, seed=self.seed)
        self.diff = diff_for_match_rate_empirical(self.seq["x"].to_numpy(), w, 2.0)

    def join(self):
        from repro.join.spark_join import parallel_band_join

        return parallel_band_join(
            self.spark, self.seq, self.W, self.W, self.diff,
            n_partitions=self.P, self_join=True,
        ).toPandas()

    def pairs(self, pdf) -> np.ndarray:
        return encode(pdf["later_gpos"].to_numpy(), pdf["earlier_gpos"].to_numpy())

    def oracle_args(self) -> tuple:
        return self.seq, self.W, self.W, self.diff, True

    def microbatch(self):
        from repro.join.spark_join import microbatch_band_join

        return microbatch_band_join(
            self.spark, self.seq, self.W, self.W, self.diff,
            n_partitions=self.P, batch_size=self.B, self_join=True,
        )

    def traced_join(self, tracer, untraced_tput):
        from repro.join import spark_join

        bounds: list[list[int]] = []

        def keep(b):
            bounds.append(b)
            return len(b)

        prof_dir = os.path.join(os.environ["TMPDIR"], "udf-profile")
        shutil.rmtree(prof_dir, ignore_errors=True)
        self.spark.profile.clear(type="perf")
        self.spark.conf.set("spark.sql.pyspark.udf.profiler", "perf")
        try:
            with tracer.patched([(spark_join, "key_bounds", "spark.key_bounds", keep)]):
                t0 = time.perf_counter()
                res = self.join()
                wall = time.perf_counter() - t0
        finally:
            self.spark.conf.unset("spark.sql.pyspark.udf.profiler")
        self.spark.profile.dump(prof_dir, type="perf")
        self.spark.profile.clear(type="perf")
        s = tracer.summary()
        m = {"spark.key_bounds_s": s.get("spark.key_bounds", _NO_SPANS)["total_s"]}
        m.update(self._partition_metrics(bounds[0]))
        m.update(_udf_profile(prof_dir))
        t0 = time.perf_counter()
        mb = self.microbatch()
        m["spark.microbatch.tuples_per_s"] = self.tuples / (time.perf_counter() - t0)
        return [res, mb], wall, m

    def _partition_metrics(self, bounds: list[int]) -> dict[str, float]:
        """Rows per bucket of the one-shot join and of each micro-batch
        trigger, from the ``key_bounds`` output."""
        x = self.seq["x"].to_numpy()
        n_buckets = len(bounds) + 1
        own = _buckets(x, bounds)
        lo, hi = _buckets(x - self.diff, bounds), _buckets(x + self.diff, bounds)
        rows = _rows_per_bucket(lo, hi, n_buckets)
        state_rows, skews = 0, []
        for start in range(0, self.tuples, self.B):
            end = min(start + self.B, self.tuples)
            # state = the live window before the batch, in its owner bucket
            first = max(0, start - self.W)
            batch = np.bincount(own[first:start], minlength=n_buckets)
            batch += _rows_per_bucket(lo[start:end], hi[start:end], n_buckets)
            state_rows += start - first
            skews.append(batch.max() / batch.mean())
        return {
            "spark.replication": float((hi - lo + 1).mean()),
            "spark.bucket_skew": float(rows.max() / rows.mean()),
            "spark.microbatch.batches": len(skews),
            "spark.microbatch.state_rows_per_tuple": state_rows / self.tuples,
            "spark.microbatch.batch_skew_max": float(max(skews)),
        }

    def close(self) -> None:
        """Stop the session and the JVM, and wait for the JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is not None:
            gateway.shutdown()
            gateway.proc.stdin.close()
            gateway.proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None


def _udf_profile(prof_dir: str) -> dict[str, float]:
    """Worker-side seconds from the pandas-UDF perf profiles: the whole
    per-bucket join (``_partition_join`` cumulative time) and the part
    spent in ``repro.core`` (cumulative time of core functions called
    from outside the core). The profiles name files without directory."""
    import repro.core

    core_dir = os.path.dirname(repro.core.__file__)
    core_files = {
        f for f in os.listdir(core_dir) if f.endswith(".py") and f != "__init__.py"
    }

    def in_core(func) -> bool:
        return os.path.basename(func[0]) in core_files

    udf_s = core_s = 0.0
    for path in glob.glob(os.path.join(prof_dir, "*.pstats")):
        for func, (_, _, _, ct, callers) in pstats.Stats(path).stats.items():
            if func[2] == "_partition_join":
                udf_s += ct
            if in_core(func):
                core_s += sum(c[3] for f, c in callers.items() if not in_core(f))
    return {"spark.udf_s": udf_s, "spark.udf.core_s": core_s}


WORKLOADS = {
    "ibwj_uniform": IbwjUniform,
    "parallel_uniform": ParallelUniform,
    "spark_drift": SparkDrift,
}
