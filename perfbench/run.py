#!/usr/bin/env python3
"""The fgz benchmark.

    python3 perfbench/run.py --workload corpus-solve --seed 1 --seconds 24 --trace 0

Load model: a closed loop.  One single-threaded client in one process
makes one library call at a time; the next starts when the previous one
returns.  Each run is a fresh interpreter, so set-up time and peak memory
belong to its workload.  Workloads, their reasons and the layer map are in
``workloads.py`` and ``design.json``.

Set-up builds the input pool from ``--seed``, loads the reference digests
and fills the ball caches the ops walk.  The timed loop then sweeps the
pool until ``--seconds`` have passed, always ending at the end of a
sweep.  The clock covers only the library call; each output is serialized
and compared with the reference after the clock stops.  An op that raises
or whose output differs counts as failed.

``--trace 0`` reports the end-to-end metrics.  On a shared host the speed
of the same code swings by 1.5-2.5x, in phases that can outlast a run, so
every time it reports is divided by the host's slowdown, measured by a
fixed calibration kernel run between the ops (``hostspeed.py``): the
times are seconds at the kernel's reference speed.  An op's latency is
the median of its sweeps.

- ``ops_per_s``: pool size / summed op latencies;
- ``latency_p50_ms`` and ``latency_tail_ms``: the median and the highest
  percentile with at least 10 samples beyond it, over the pool's op
  latencies (the percentile and the sample count are on the detail line
  and depend only on the pool size);
- ``setup_s``: median of nine fresh interpreters, each timed from spawn
  to the point where the first op would start.  They run before the
  sweeps, and their time counts toward ``--seconds``;
- ``peak_rss_mb``: peak resident memory of the run.

``--trace 1`` wraps the library (see ``tracing.py``), runs untraced sweeps
for a third of the time and traced sweeps for the rest, and reports the
per-layer metrics: per name the calls and self seconds of one sweep, the
counts and ratios the hooks collect, ``cli.import_ms``, the tracing
overhead and the share of op time no traced call covers.  The spans of the
first traced sweep go to ``.bench_out/trace-<workload>-<seed>.json``.

The line before the last holds the details: provenance, sweep count, tail
percentile.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HASH_SEED = "0"
PROBES = 9
TAIL_BEYOND = 10
IMPORT_PROBE = "import time; t = time.perf_counter(); import fgz.cli; print(time.perf_counter() - t)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the library, draw the pool, load the reference, fill caches."""
    import workloads

    wl = workloads.WORKLOADS[name]
    lines = (HERE / "reference" / f"{name}.txt").read_text().split("\n")[:-1]
    expected = [line.split()[0] for line in lines]
    pool = wl.pool(seed, [int(line.split()[1]) for line in lines])
    for alphabet, radius in wl.balls:
        workloads.words.enumerate_ball(alphabet, radius)
    return wl, pool, expected


class Loop:
    """Sweeps of the pool, with every output checked against the reference."""

    def __init__(self, wl, pool, expected, tracer=None, meter=None):
        self.wl, self.pool, self.expected, self.tracer = wl, pool, expected, tracer
        self.meter = meter
        #: median host slowdown of each metered sweep
        self.slowdowns: list[float] = []
        self.attempted = 0
        self.failed = 0

    def sweep(self) -> list[float]:
        """Op latencies of one sweep; with a meter, divided by the host's slowdown."""
        clock = time.perf_counter
        tracer, meter = self.tracer, self.meter
        latencies = []
        for index, case in self.pool:
            self.attempted += 1
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            start = clock()
            try:
                result = self.wl.op(case)
            except Exception:
                latencies.append(clock() - start)
                if tracer is not None:
                    tracer.active = False
                self._fail(f"entry {index} raised:\n{traceback.format_exc()}")
            else:
                latencies.append(clock() - start)
                if tracer is not None:
                    tracer.active = False
                if self.wl.digest(result) != self.expected[index]:
                    self._fail(f"entry {index}: output differs from the reference")
            if meter is not None:
                meter.after_op(latencies[-1])
        if meter is not None:
            factors = meter.take()
            self.slowdowns.append(statistics.median(factors))
            latencies = [t / f for t, f in zip(latencies, factors)]
        return latencies

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"failed: {message}", file=sys.stderr)

    def run(self, seconds: float, on_sweep=None) -> list[list[float]]:
        """Sweep for ``seconds``, stopping at the sweep end nearest to it.

        Time spent in ``on_sweep`` between sweeps does not count.
        """
        sweeps: list[list[float]] = []
        spent = last = 0.0
        while not sweeps or spent + last / 2 < seconds:
            start = time.perf_counter()
            sweeps.append(self.sweep())
            last = time.perf_counter() - start
            spent += last
            if on_sweep is not None:
                on_sweep()
        return sweeps


def timed_probe(cmd, env=None) -> float:
    """Run one child to completion; it prints a duration as its last line."""
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for the first op.

    Divided by the host's slowdown, measured just before and just after.
    """
    before = hostspeed.slowdown(hostspeed.CHUNK_UNITS)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", repr(time.perf_counter())]
    seconds = timed_probe(cmd)
    return seconds / ((before + hostspeed.slowdown(hostspeed.CHUNK_UNITS)) / 2)


def import_ms() -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return 1e3 * statistics.median(
        timed_probe([sys.executable, "-c", IMPORT_PROBE], env) for _ in range(PROBES)
    )


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "fgz").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "interpreter_flags": repr(sys.flags),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def end_to_end(args, loop, details) -> dict:
    start = time.perf_counter()
    setups = [setup_probe(args) for _ in range(PROBES)]
    loop.meter = hostspeed.Meter()
    sweeps = loop.run(args.seconds - (time.perf_counter() - start))
    per_op = sorted(map(statistics.median, zip(*sweeps)))
    n = len(per_op)
    k = max(n - TAIL_BEYOND - 1, 0)
    p50, tail = statistics.median(per_op), per_op[k]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details.update(sweeps=len(sweeps), sweep_ops_per_s=[len(s) / sum(s) for s in sweeps],
                   slowdowns=loop.slowdowns,
                   tail_percentile=100.0 * (k + 1) / n, tail_samples=n)
    return {
        "ops_per_s": (n / sum(per_op), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(args, loop, details) -> dict:
    import tracing

    untraced = loop.run(args.seconds / 3)
    tracer = tracing.Tracer()
    tracer.install()
    loop.tracer = tracer
    snapshots = [tracer.snapshot()]

    def after_sweep():
        tracer.keep_spans = False
        snapshots.append(tracer.snapshot())

    tracer.keep_spans = True
    traced = loop.run(args.seconds - sum(map(sum, untraced)), after_sweep)
    n = len(traced)
    per_sweep = [{k: b[k] - a[k] for k in b} for a, b in zip(snapshots, snapshots[1:])]
    counts = per_sweep[0]
    op_s = sum(map(sum, traced)) / n
    top_s = tracer.top_s / n

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    metrics = {}
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (tracer.stats[name][1] / n, "s")
    metrics.update({
        "onevar.brute_solutions.ball_elements": (counts["ball_elements"], "count"),
        "onevar.brute_solutions.hit_ratio": (ratio("ball_solutions", "ball_elements"), "ratio"),
        "onevar.reduce_parametric.coset_ratio": (ratio("lines_vanishing", "lines_reduced"), "ratio"),
        "solver.pairs_tried": (counts["pairs_tried"], "count"),
        "solver.lines_per_pair": (ratio("lines_tried", "pairs_tried"), "ratio"),
        "solver.escalations": (counts["escalations"], "count"),
        "solver.escalation_ratio": (ratio("escalated_solves", "solves"), "ratio"),
        "cli.import_ms": (import_ms(), "ms"),
        "trace.overhead_ratio": (
            min(map(sum, traced)) / min(map(sum, untraced)), "ratio"),
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_ratio": ((op_s - top_s) / op_s, "ratio"),
    })
    self_times = sorted(((tracer.stats[k][1] / n, k) for k in tracing.LAYER_NAMES), reverse=True)
    details.update(
        untraced_sweeps=len(untraced),
        traced_sweeps=n,
        counts_repeat=all(d == per_sweep[0] for d in per_sweep),
        largest_self_s=[[k, v] for v, k in self_times[:4]],
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "details": details,
        "span_fields": ["op", "span", "parent", "name", "start_s", "duration_s"],
        "spans": tracer.spans,
        "stats": {k: {"calls": counts[f"{k}.calls"], "self_s": tracer.stats[k][1] / n}
                  for k in tracing.LAYER_NAMES},
        "counts_per_sweep": counts,
    }))
    details["trace_file"] = str(path.relative_to(ROOT))
    return metrics


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # pin string hashing so every run and every commit hashes alike
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if not (SRC / "fgz" / "__init__.py").is_file():
        print(f"error: the fgz sources are missing ({SRC / 'fgz'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        set_up(args.workload, args.seed)
        print(time.perf_counter() - args.setup_probe)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl, pool, expected = set_up(args.workload, args.seed)
    details = {"provenance": provenance(args), "pool": len(pool)}
    loop = Loop(wl, pool, expected)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, loop, details)
    print(json.dumps(details))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
