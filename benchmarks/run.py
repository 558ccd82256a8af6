"""fawkit benchmark: run one workload in a closed loop and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports fawkit from ``src/`` there
and from nowhere else. With ``--trace 0`` it measures set-up time, then runs
passes of the workload while one more still fits in S seconds, and prints
the end-to-end metrics named in BENCHMARK.json; both times are normalised to
a nominal host speed by the reference kernels of reference.py, because the
host's speed drifts. With ``--trace 1`` it runs the per-layer
probes and then alternates untraced and traced passes, and prints the
per-layer metrics. The last line of stdout is the result object; the line
before it holds provenance and the full report, which is also written to
``.bench_out/`` with the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
SETUP_KERNELS = 3
SETUP_CODE = ("import time; start = time.perf_counter(); import fawkit.cli as cli; "
              "cli.build_parser(); print(time.perf_counter() - start)")


def import_fawkit():
    """Import fawkit from this tree's sources; exit if they are missing."""
    if not (SRC / "fawkit" / "__init__.py").is_file():
        sys.exit(f"error: no fawkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fawkit
    if Path(fawkit.__file__).resolve().parent != (SRC / "fawkit").resolve():
        sys.exit(f"error: imported fawkit from {fawkit.__file__}, not from {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def summary(values) -> dict:
    """Minimum, median, 90th percentile and sample count."""
    values = list(values)
    p90 = statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]
    return {"min": min(values), "median": statistics.median(values), "p90": p90,
            "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, workloads) -> dict:
    import numpy
    from fawkit import simulator
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sim_rounds": workloads.SIM_ROUNDS,
        "probe_rounds": workloads.PROBE_ROUNDS,
        "block_rounds": simulator.BLOCK_ROUNDS,
        "pools": {"table2": 4, "wide": workloads.WIDE_POOLS, "npool": list(workloads.NPOOL_SIZES)},
    }


def setup_seconds() -> tuple[list[float], list[float]]:
    """Fresh-process ``import fawkit.cli`` plus ``build_parser()``, SETUP_RUNS times.

    One untimed run first byte-compiles the sources and warms the page
    cache, which a user pays once, not on every start. Returns the times as
    measured and normalised: each divided by the median slowdown of the
    ``race`` kernel, run SETUP_KERNELS times before and after it. The import
    is mostly numpy loading its extension modules, and of the kernels the
    race kernel's speed tracks it most closely.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ref = reference.Sampler("race")

    def once() -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])

    once()
    raw, norm = [], []
    for _ in range(SETUP_RUNS):
        before = [ref.sample() for _ in range(SETUP_KERNELS)]
        raw.append(once())
        after = [ref.sample() for _ in range(SETUP_KERNELS)]
        norm.append(raw[-1] / statistics.median(before + after))
    return raw, norm


def fits(elapsed, deadline) -> bool:
    """Whether a pass of typical length would still end before the deadline."""
    return time.perf_counter() + statistics.median(elapsed) <= deadline


def run_passes(runner, workload, deadline, traced_every=0):
    """Run passes while one more fits, with the runner's sampler running;
    every ``traced_every``-th pass is traced.

    Returns ``{traced: [(wall_s, norm_s), ...]}``.
    """
    passes = {False: [], True: []}
    elapsed = []
    k = 0
    with runner.sampler.running():
        while k < (2 if traced_every else 1) or fits(elapsed, deadline):
            traced = bool(traced_every) and k % traced_every == traced_every - 1
            start = time.perf_counter()
            passes[traced].append(runner.run_pass(workload.ops(k), traced))
            elapsed.append(time.perf_counter() - start)
            k += 1
    return passes


def measure(args, workloads, tracer):
    """Run the workload; returns (metric samples, runners, report)."""
    kind = workloads.WORKLOADS[args.workload].REFERENCE
    runner = workloads.Runner(tracer, reference.Sampler(kind))
    deadline = time.perf_counter() + args.seconds
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, runner, OUT)
    if tracer is None:
        samples = {}
        setup_raw, samples["setup_s"] = setup_seconds()
        passes = run_passes(runner, workload, deadline)[False]
        samples["norm_wall_s"] = [norm for _, norm in passes]
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        return samples, [runner], {"setup_wall_s": summary(setup_raw),
                                   "passes_wall_s": summary(wall for wall, _ in passes),
                                   "passes_norm_s": summary(samples["norm_wall_s"]),
                                   "reference": reference_report(runner.sampler)}

    probe_runner = workloads.Runner()
    with tracer.span("probes"):
        samples = workloads.probes(args.seed, probe_runner, OUT)
    first = len(tracer.spans)
    passes = run_passes(runner, workload, deadline, traced_every=2)
    untraced, traced = (statistics.median(norm for _, norm in passes[flag])
                        for flag in (False, True))
    samples["trace_overhead_frac"] = [traced / untraced - 1.0]
    self_s = {layer: total / len(passes[True])
              for layer, total in sorted(tracer.self_times(first).items())}
    report = {"passes_wall_s": summary(wall for wall, _ in passes[False]),
              "traced_passes_wall_s": summary(wall for wall, _ in passes[True]),
              "passes_norm_s": summary(norm for _, norm in passes[False]),
              "traced_passes_norm_s": summary(norm for _, norm in passes[True]),
              "reference": reference_report(runner.sampler),
              "self_s_per_traced_pass": self_s,
              "probes": {name: summary(values) for name, values in samples.items()},
              "probe_ops_s": {name: summary(v) for name, v in probe_runner.times.items()}}
    return samples, [probe_runner, runner], report


def reference_report(sampler) -> dict:
    return {"kind": sampler.kind, "nominal_s": sampler.nominal_s,
            "slowdown": summary(sampler.samples)}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_fawkit()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    tracer = tracing.Tracer() if args.trace else None

    samples, runners, report = measure(args, workloads, tracer)
    names = [m["name"] for m in declared]
    if set(samples) != set(names):
        sys.exit(f"error: metrics {sorted(set(samples) ^ set(names))} "
                 "are measured but not declared in BENCHMARK.json, or the reverse")
    report["ops_s"] = {name: summary(times) for name, times in runners[-1].times.items()}
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    doc = {"provenance": provenance(args, workloads), "report": report}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(doc, result=result), indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json", doc)
    print(json.dumps(doc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
