"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same operations twice, untraced then traced, and
prints every per-layer metric.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
line before it records the provenance of the run.  An output that
differs from its reference exits with code 1 and prints no result; a
checkout without the compiler's sources exits with code 2.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from bisect import bisect_right  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``setup_s`` is the median of this many imports of the benchmark and
#: the compiler, each in a fresh process, plus the median of
#: ``SETUP_REPEATS`` set-ups of the workload's inputs (and store
#: pre-warm) in this process, each timed in steps scaled to the
#: reference speed
IMPORT_REPEATS = 7
SETUP_REPEATS = 3

#: the import a fresh process makes before it can set up a workload
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import speed, tracing, workloads\n"
    "print(time.perf_counter() - t0)\n"
)

WORKLOAD_NAMES = ("suite-cold", "pgo-sim", "service-zipf")

UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "sim_cycles": "count",
    "scalar_memops": "count",
    "save_restore_memops": "count",
    "code_words": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="a few small programs, for a run of seconds",
    )
    ap.add_argument(
        "--expected", type=Path, default=None,
        help="expected-output file (default: the committed one)",
    )
    return ap.parse_args(argv)


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the benchmark and,
    through it, the compiler.  Not scaled: the child may run on another
    CPU than the calibrations, and its import time did not follow them
    (correlation 0.01 over 25 samples, against 0.71 for a compile in
    this process)."""
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase, setup_s, rss_mb, exact, info) -> dict:
    from workloads import EXACT, percentile, tail_percentile

    p = tail_percentile(len(phase.op_ms))
    info["tail_percentile"] = p
    if phase.tail_ms:
        # the tail scaled as op_p50_ms is, for comparison
        info["op_tail_ms_median_scaled"] = percentile(phase.op_ms, p)
    info["raw"] = {
        "work_s": phase.raw_work_s,
        "op_p50_ms": statistics.median(phase.raw_ms),
        "op_tail_ms": percentile(phase.raw_ms, p),
        "scale": phase.scale,
    }
    values = {
        "setup_s": setup_s,
        "work_s": phase.work_s,
        "op_p50_ms": statistics.median(phase.op_ms),
        "op_tail_ms": percentile(phase.tail_ms or phase.op_ms, p),
        "peak_rss_mb": rss_mb,
        "ok_share": (phase.attempted - phase.failed) / phase.attempted,
        **{name: exact[name] for name in EXACT},
    }
    return {k: metric(v, UNITS[k]) for k, v in values.items()}


def pass_seconds(phase, npasses):
    """Summed operation seconds of each pass, in run order."""
    per = len(phase.samples_ms) // npasses
    return [sum(phase.samples_ms[i * per:(i + 1) * per]) / 1e3
            for i in range(npasses)]


def ratio(hits, lookups):
    return hits / lookups if lookups else 0.0


def per_layer(tracer, traced, untraced) -> dict:
    from tracing import SPAN_LAYERS

    scale = traced.scale
    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}_ms"] = metric(tracer.self_s[layer] * scale * 1e3, "ms")
    out["interproc.plan_calls"] = metric(
        tracer.calls["interproc.plan"], "count")
    out["target.codegen_calls"] = metric(
        tracer.calls["target.codegen"], "count")

    stages = {"frontend": [0, 0], "plan": [0, 0], "codegen": [0, 0]}
    invalidated = 0
    for stats in traced.engines:
        for record in stats.records:
            invalidated += record.invalidated
            for name, acc in stages.items():
                acc[0] += record.stages[name].hits
                acc[1] += record.stages[name].lookups
    for name, (hits, lookups) in stages.items():
        out[f"engine.{name}_hit_ratio"] = metric(ratio(hits, lookups), "ratio")
    out["engine.invalidated"] = metric(invalidated, "count")

    for layer in ("sim.jit_exec", "sim.interp"):
        seconds = tracer.self_s[layer] * scale
        mcps = tracer.cycles[layer] / seconds / 1e6 if seconds else 0.0
        out[f"{layer}_mcps"] = metric(mcps, "Mcycles/s")
    out["sim.jit3_inlined_calls"] = metric(tracer.jit3_inlined, "count")
    out["sim.jit3_bailouts"] = metric(tracer.jit3_bailouts, "count")

    hits = sum(s.stats.hits for s in traced.stores)
    lookups = hits + sum(s.stats.misses for s in traced.stores)
    out["store.hit_ratio"] = metric(ratio(hits, lookups), "ratio")
    out["store.bytes_written"] = metric(traced.store_bytes, "bytes")

    out.update(service_layer(tracer, traced, untraced))

    layers_s = tracer.total_self_s() * scale
    traced_s = traced.total_s * scale
    untraced_s = untraced.total_s * untraced.scale
    out["trace.overhead_ms"] = metric((traced_s - untraced_s) * 1e3, "ms")
    out["trace.unattributed_ms"] = metric((traced_s - layers_s) * 1e3, "ms")
    out["trace.accounted_share"] = metric(layers_s / untraced_s, "ratio")
    return out


def service_layer(tracer, traced, untraced) -> dict:
    """Queueing and batching of the service, in raw (not scaled) times;
    zero on the workloads that do not use it."""
    stats = traced.extra.get("service_stats")
    if stats is None:
        zero = {
            "service.queue_wait_ms": "ms", "service.batch_ms": "ms",
            "service.batch_size": "requests", "service.dedup_ratio": "ratio",
            "service.shed": "count", "service.gen_late_ms": "ms",
        }
        return {k: metric(0.0 if u != "count" else 0, u)
                for k, u in zero.items()}
    ends = [end for _, end, _ in tracer.batches]
    waits = []
    for _, latency, done_at in traced.passes[0]:
        i = bisect_right(ends, done_at) - 1
        if i >= 0:
            start, end, _ = tracer.batches[i]
            waits.append((latency - (end - start)) * 1e3)
    spans = [(end - start) * 1e3 for start, end, _ in tracer.batches]
    sizes = [n for _, _, n in tracer.batches]
    return {
        "service.queue_wait_ms":
            metric(statistics.median(waits) if waits else 0.0, "ms"),
        "service.batch_ms":
            metric(statistics.median(spans) if spans else 0.0, "ms"),
        "service.batch_size":
            metric(sum(sizes) / len(sizes) if sizes else 0.0, "requests"),
        "service.dedup_ratio":
            metric(ratio(stats.deduped, stats.requests), "ratio"),
        "service.shed": metric(stats.shed, "count"),
        "service.gen_late_ms":
            metric(statistics.median(untraced.extra["late_ms"]), "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no compiler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import EXPECTED_PATH, WORKLOADS, Mismatch, load_expected

    workdir = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        expected = load_expected(args.expected or EXPECTED_PATH)
        wl = WORKLOADS[args.workload](
            args.seed, args.seconds, args.smoke, expected, workdir)
        first_import_s = time.perf_counter() - T_START
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]

        timers = []
        for _ in range(SETUP_REPEATS):
            timers.append(speed.StepTimer())
            wl.prepare(timers[-1])
        prepare_s = statistics.median(t.scaled() for t in timers)
        setup_s = statistics.median(imports) + prepare_s

        untraced = wl.measure()
        # read before the checks, whose reference builds are not the
        # workload's
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        exact = wl.check(untraced)
        info = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "machine": machine(),
            "operations": wl.operations(),
            "setup": {
                "first_import_s": first_import_s, "import_s": imports,
                "prepare_s": [sum(t.raw) for t in timers],
                "prepare_scaled_s": [t.scaled() for t in timers],
                "raw_s": statistics.median(imports)
                + statistics.median(sum(t.raw) for t in timers),
            },
            "exact": exact,
        }
        if hasattr(wl, "npasses"):
            info["pass_s"] = pass_seconds(untraced, wl.npasses)
        if args.workload == "service-zipf":
            from workloads import SERVICE_RATE
            info["arrival_rate_per_s"] = SERVICE_RATE
            info["catalog"] = len(wl.catalog)
            info["request_paths"] = wl.request_paths()
            info["idle_calibrations"] = untraced.extra["idle_calibrations"]
        metrics = end_to_end(untraced, setup_s, rss_mb, exact, info)
        # free the untraced phase's programs before the traced phase
        untraced.passes.clear()
        untraced.engines.clear()
        phase = untraced
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = wl.measure(tracer)
            traced_exact = wl.check(traced)
            if traced_exact != exact:
                raise Mismatch(
                    f"traced counts {traced_exact} differ from {exact}")
            metrics = per_layer(tracer, traced, untraced)
            phase = traced
    except Mismatch as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": True,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
