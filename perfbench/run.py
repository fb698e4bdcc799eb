"""Stream-join benchmark: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload ibwj_uniform --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; the
layer each per-layer metric belongs to, and the known defects of the
measured code, in ``perfbench/README.md``.

A run imports the package and starts its service once (the Spark
session), then sets up ``SETUP_REPS`` times (input from the seed, one
untimed warm-up call); ``setup_s`` is the import and start time plus the
median set-up. It then computes the oracle pairs in a child process and
calls the join repeatedly for ``--seconds`` seconds (at least
``MIN_CALLS`` times), timing each call alone and checking every result.
``--trace 0`` reports medians over the calls of the end-to-end metrics.
``--trace 1`` spends half the time on untraced calls, then makes one
traced call and reports the per-layer metrics, plus ``trace_overhead``:
traced over untraced throughput. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (oracle pairs
checked, and missing plus extra pairs) and ``metrics``.

On every way out, SIGTERM included, the run stops the service and then
waits until every process it started, and every process those started
(the JVM, Spark's Python workers), has ended; one that outlives a grace
period is sent SIGTERM, then SIGKILL.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time
import traceback

IMPORT_START = time.perf_counter()  # setup_s counts the imports from here

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
MIN_CALLS = 3
STOP_GRACE_S = 30  # for descendants to end on their own, then TERM, then KILL


def _stat(pid: int) -> tuple[str, int, int] | None:
    """(state, parent pid, start time) of a process, None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return fields[0], int(fields[1]), int(fields[19])


def _descendants() -> dict[int, int]:
    """Every live process below this one, as pid -> start time."""
    children: dict[int, list[int]] = {}
    starts: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and (st := _stat(int(name))) and st[0] != "Z":
            children.setdefault(st[1], []).append(int(name))
            starts[int(name)] = st[2]
    found, todo = {}, [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), []):
            found[c] = starts[c]
            todo.append(c)
    return found


def _alive(pid: int, start: int) -> bool:
    """Whether that process (not a later one with its pid) still runs; a
    child of this process that has ended is reaped here."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    st = _stat(pid)
    return st is not None and st[2] == start and st[0] != "Z"


def _wait_ended(procs: dict[int, int]) -> None:
    """Wait until every process in ``procs`` has ended; after the grace
    period send the ones left SIGTERM, and five seconds later SIGKILL."""
    steps = [(STOP_GRACE_S, signal.SIGTERM), (5, signal.SIGKILL), (5, None)]
    for wait_s, sig in steps:
        deadline = time.monotonic() + wait_s
        while (live := [p for p, s in procs.items() if _alive(p, s)]):
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not live:
            return
        if sig is None:
            raise RuntimeError(f"processes {live} did not end")
        print(f"perfbench: sending {sig.name} to {live}", file=sys.stderr)
        for p in live:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass


def _on_term(signum, frame) -> None:
    raise SystemExit(128 + signum)  # so the clean-up in main still runs


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (VmHWM) for this process."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _args(spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Run:
    """Calls one workload's join, checks each result, keeps the figures."""

    def __init__(self, wl, expected) -> None:
        self.wl = wl
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.raised = False
        self.checker_ok = check.self_test(expected)
        self.tputs: list[float] = []
        self.rss: list[float] = []
        self.first_pairs = None

    def check(self, got) -> None:
        self.attempted += self.expected.size
        self.failed += check.errors(got, self.expected)
        if self.first_pairs is None:
            self.first_pairs = got

    def raised_in(self) -> None:
        """Count a join call that raised: all of its pairs fail."""
        traceback.print_exc()
        self.raised = True
        self.attempted += self.expected.size
        self.failed += self.expected.size

    def call(self) -> bool:
        """One timed join call; False once a call has raised."""
        gc.collect()
        _reset_peak_rss()
        try:
            t0 = time.perf_counter()
            res = self.wl.join()
            dt = time.perf_counter() - t0
        except Exception:
            self.raised_in()
            return False
        self.rss.append(_peak_rss_mb())
        self.tputs.append(self.wl.tuples / dt)
        self.check(self.wl.pairs(res))
        return True

    def repeat(self, seconds: float) -> None:
        t0 = time.perf_counter()
        while len(self.tputs) < MIN_CALLS or time.perf_counter() - t0 < seconds:
            if not self.call():
                return


def _setup(wl) -> tuple[float, list[float]]:
    """Seconds to start the service, and of each set-up: input from the
    seed and one warm-up call."""
    t0 = time.perf_counter()
    wl.start()
    start_s = time.perf_counter() - t0
    reps = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        wl.prepare()
        wl.warm_up()
        reps.append(time.perf_counter() - t0)
    return start_s, reps


def _traced(run: Run, args) -> tuple[dict, bool]:
    """One traced call: per-layer metrics, and whether its pairs equal
    the untraced ones."""
    tracer = spans.Tracer(run.wl.clock)
    untraced = statistics.median(run.tputs)
    gc.collect()
    results, wall, metrics = run.wl.traced_join(tracer, untraced)
    metrics["trace_overhead"] = run.wl.tuples / wall / untraced
    tracer.dump(os.path.join(OUT, "trace", f"{args.workload}.npz"))
    same = True
    for res in results:
        got = run.wl.pairs(res)
        run.check(got)
        same &= np.array_equal(np.sort(got), np.sort(run.first_pairs))
    return metrics, same


def main() -> int:
    signal.signal(signal.SIGTERM, _on_term)
    spec = _spec()
    args = _args(spec)
    # Everything the run writes, Spark's scratch files included, stays in
    # the checkout; Spark's Python workers find the package through
    # PYTHONPATH.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, src)

    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import the join package from {src}: {e}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    import_s = time.perf_counter() - IMPORT_START

    try:
        start_s, setup_reps = _setup(wl)
        expected, cross_ok = check.oracle_pairs(*wl.oracle_args())
        run = Run(wl, expected)
        layer, same = {}, False
        if not args.trace:
            run.repeat(args.seconds)
        else:
            run.repeat(args.seconds / 2)
            if not run.raised:
                try:
                    layer, same = _traced(run, args)
                except Exception:
                    run.raised_in()
    finally:
        # Descendants are listed before the service stops: once the JVM
        # ends, Spark's Python workers no longer hang below this process.
        started = _descendants()
        try:
            wl.close()
        finally:
            _wait_ended(started | _descendants())

    correct = (run.failed == 0 and not run.raised and cross_ok
               and run.checker_ok and (not args.trace or same))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.tputs)} timed calls of {wl.tuples} tuples")
    print("per call tuples_per_s:", " ".join(f"{t:.1f}" for t in run.tputs))
    print("per call peak_rss_mb:", " ".join(f"{r:.1f}" for r in run.rss))
    print(f"imports {import_s:.3f} s; start {start_s:.3f} s; set-ups:",
          " ".join(f"{r:.3f}" for r in setup_reps), "s")
    print(f"error_frac {run.failed / max(1, run.attempted):.6g} frac "
          f"(range-form oracle == band_join_sql on prefix: {cross_ok}; "
          f"checker self-test: {run.checker_ok})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not args.trace:
        values = {
            "tuples_per_s": statistics.median(run.tputs) if run.tputs else 0.0,
            "peak_rss_mb": statistics.median(run.rss) if run.rss else 0.0,
            "setup_s": import_s + start_s + statistics.median(setup_reps),
        }
        names = [m["name"] for m in spec["end_to_end"]]
        if args.workload.startswith("spark"):
            print("note: peak_rss_mb covers the Python driver process only")
    else:
        # A layer the workload does not reach reads 0.
        values = layer
        print(f"traced pairs == untraced pairs: {same}")
        names = [m["name"] for m in spec["per_layer"]]
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": units[n]}
               for n in names}
    for n, v in metrics.items():
        print(f"{n} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
