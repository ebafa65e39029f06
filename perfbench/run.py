#!/usr/bin/env python3
"""morsekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; morsekit is imported from
``src/``.  One client drives a closed loop on one thread: each op starts
when the previous one has finished.  Workloads: fuzz-exact, fuzz-float,
pde-ladder, cli-cold (see perfbench/README.md for why each exists).

--trace 0 measures the end-to-end metrics with no wrappers installed;
times are scaled to a reference host speed (hostspeed.py).
--trace 1 alternates an untraced and a traced pass over one fixed batch
of ops and reports per-layer call counts and self times from the traced
passes.  Every output is checked after its op's timer stops.

The output is a readable summary, then as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit code 1 means the
benchmark itself could not run (or a traced run broke the routing
table); 2 means no morsekit sources were found.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these when numpy loads, and every child inherits them: on a
# 2-core machine a dense eigh at n = 256 took 0.007 s with one BLAS thread
# and 0.77 s with the default threads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Scaler, pin_to_one_cpu  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fuzz-exact", "fuzz-float", "pde-ladder", "cli-cold")
# Seed kept out of tuning; a later performance claim must also hold on it.
HELD_OUT_SEED = 271828
SETUP_PROBES = 5
# one input, repeated untimed for this long before the timed ops
WARMUP_S = 1.0
_SETUP_CODE = "import time, morsekit; print(time.monotonic(), morsekit.__file__)"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def check_source(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise BenchError(f"morsekit was imported from {module_file}, not {SRC}")


def measure_setup(env: dict) -> tuple[float, float]:
    """Median seconds from starting a fresh interpreter to ``import
    morsekit`` done, at the reference speed and as timed; the first probe
    only warms caches."""
    timed = []
    scaler = Scaler("interpreter")
    for _ in range(SETUP_PROBES + 1):
        start, t0 = time.perf_counter(), time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode:
            raise BenchError(f"fresh interpreter failed to import morsekit:\n"
                             f"{done.stderr}")
        stamp, where = done.stdout.split(maxsplit=1)
        scaler.region(start, time.perf_counter())
        timed.append(float(stamp) - t0)
        check_source(where.strip())
    scaled = [t * k for t, k in zip(timed, scaler.factors())]
    return statistics.median(scaled[1:]), statistics.median(timed[1:])


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "held_out_seed": HELD_OUT_SEED,
    }


class Tally:
    """Attempted ops and the failure reason of each failed one."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(self, items, execute, scaler=None) -> list[float]:
        """Time execute(item) for each item, checking outputs untimed.
        A ``scaler`` probes the host's speed after each op."""
        times = []
        for item in items:
            t0 = time.perf_counter()
            out = execute(item)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if scaler:
                scaler.region(t0, t1)
            self.attempted += 1
            reason = self.wl.check(item, out)
            if reason:
                self.failures.append((item.kind, reason))
        return times


def end_to_end(wl, tally: Tally, seconds: float, setup: tuple[float, float]):
    """Fresh inputs, a fixed number of whole cycles set by ``seconds``.
    Times are reported at the reference speed; the notes give them as
    timed."""
    warm, deadline = wl.warmup_item(), time.perf_counter() + WARMUP_S
    while True:
        wl.execute(warm)
        if time.perf_counter() >= deadline:
            break
    items: list = []
    timed: list[float] = []
    scaler = Scaler(wl.probe)
    for _ in range(wl.cycles_for(seconds)):
        batch = wl.cycle()
        items += batch
        timed += tally.run(batch, wl.execute, scaler)
    scales = scaler.factors()

    def figures(lat):
        tail_s, which = wl.tail(items, lat)
        return (len(lat) / sum(lat), statistics.median(lat) * 1e3,
                tail_s * 1e3, which)

    ops_per_s, p50_ms, tail_ms, which = figures(
        [t * k for t, k in zip(timed, scales)])
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MiB"),
    }
    raw = figures(timed)
    notes = [f"op_tail_ms is {which}",
             f"host speed factor to reference: median {statistics.median(scales):.3f}, "
             f"range {min(scales):.3f}-{max(scales):.3f}",
             f"as timed: setup_s {setup[1]:.4f}  ops_per_s {raw[0]:.3f}  "
             f"op_p50_ms {raw[1]:.3f}  op_tail_ms {raw[2]:.3f}"]
    return metrics, notes


def _merge(rows) -> dict:
    out: dict = {}
    for row in rows:
        for layer, (calls, self_s) in row.items():
            acc = out.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    return out


def routing_problems(workload: str, calls: dict) -> list[str]:
    """Layers that must or must not run on each workload.  A wrapper that
    misses an import site reads zero; this makes that an error."""
    exact = [k for k in calls if k.startswith("exactla.")]
    bnd = [k for k in calls if k.startswith("boundary.")]
    bad = []
    if workload == "fuzz-exact":
        bad += [f"{k} never ran" for k in exact if calls[k] == 0]
        bad += ["bilinear._eigh ran"] if calls["bilinear._eigh"] else []
    if workload in ("fuzz-float", "pde-ladder"):
        bad += [f"{k} ran" for k in exact if calls[k]]
    if workload.startswith("fuzz-"):
        bad += [f"{k} ran" for k in bnd if calls[k]]
    return bad


def traced(wl, tally: Tally, seconds: float, workload: str):
    tracer = Tracer()

    def execute_traced(item):
        tracer.op_id += 1
        return wl.execute(item)

    batch = wl.trace_batch()
    wl.execute(wl.warmup_item())
    plain, spent, rows, cli = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(sum(tally.run(batch, wl.execute)))
        if wl.in_process:
            lo = len(tracer.spans)
            tracer.install()
            try:
                spent.append(sum(tally.run(batch, execute_traced)))
            finally:
                tracer.uninstall()
            rows.append(tracer.aggregate(lo))
        else:
            probes: list = []
            times = tally.run(batch, lambda item: wl.execute_probe(item, probes))
            spent.append(sum(times))
            rows.append(_merge(p["layers"] for p in probes))
            cli += [(p["import_s"], p["main_s"], t) for p, t in zip(probes, times)]
        if time.perf_counter() - start >= seconds:
            break

    calls = {layer: rows[0][layer][0] for layer in LAYERS}
    for row in rows[1:]:
        if {layer: row[layer][0] for layer in LAYERS} != calls:
            raise BenchError("call counts differ between traced passes over "
                             "the same batch")
    bad = routing_problems(workload, calls)
    if bad:
        raise BenchError(f"routing table broken on {workload}: " + "; ".join(bad))

    def per(num: str, den: str) -> float:
        return calls[num] / calls[den] if calls[den] else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (
            statistics.median(row[layer][1] for row in rows), "s")
    metrics["constraints.solve_dual.per_analyze"] = (
        per("constraints.solve_dual", "constraints.analyze"), "ratio")
    metrics["bilinear._eigh.per_analyze"] = (
        per("bilinear._eigh", "constraints.analyze"), "ratio")
    metrics["boundary.dirichlet_spectrum.per_verify"] = (
        per("boundary.dirichlet_spectrum", "boundary.verify_decomposition"), "ratio")
    for i, name in enumerate(("cli.import_s", "cli.main_s", "cli.process_s")):
        metrics[name] = (statistics.median(c[i] for c in cli) if cli else 0.0, "s")
    ops = len(batch) * len(rows)
    metrics["trace.untraced_ops_per_s"] = (ops / sum(plain), "1/s")
    metrics["trace.traced_ops_per_s"] = (ops / sum(spent), "1/s")
    notes = [f"per-layer figures are per traced pass of {len(batch)} ops; "
             f"{len(rows)} passes",
             f"tracing slowdown {sum(spent) / sum(plain):.3f}x"]
    notes += [f"{layer} wrapped in {', '.join(s)}"
              for layer, s in tracer.sites.items()]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "morsekit" / "__init__.py").is_file():
        print(f"error: no morsekit sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = pin_to_one_cpu()
    try:
        env = child_env()
        setup_s = None if args.trace else measure_setup(env)
        sys.path.insert(0, str(SRC))
        import morsekit
        check_source(morsekit.__file__)
        import workloads

        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            wl = workloads.make(args.workload, args.seed, Path(tmp), env)
            tally = Tally(wl)
            if args.trace:
                metrics, notes = traced(wl, tally, args.seconds, args.workload)
            else:
                metrics, notes = end_to_end(wl, tally, args.seconds, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(tally.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("environment " + json.dumps({**environment(), "pinned_cpu": cpu}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':44s} {failed / tally.attempted:14.6g} "
          f"({failed} of {tally.attempted} ops)")
    for note in notes:
        print(f"  {note}")
    for (kind, reason), count in collections.Counter(tally.failures).most_common(5):
        print(f"  failed x{count} [{kind}] {reason}")
    for reason, count in wl.unchecked.items():
        print(f"  unchecked x{count} {reason}")
    unexplained = [f for f in tally.failures if not workloads.known_defect(*f)]
    print(json.dumps({
        "correct": not unexplained,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
