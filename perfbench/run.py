"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 23 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to the
program.  ``--trace 1`` runs one untraced reference pass, then traced passes
that record spans around each layer (see ``perfbench/tracing.py``), and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries provenance and run details.  Spans, results and determinism
fingerprints are written under ``.perfbench/`` in the repository root.  The
exit code is 0 only when every correctness check passed.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench.stats import quantile  # noqa: E402

#: How many times set-up runs; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Metric names, units and bounds: the benchmark definition at the repository root.
SPEC_FILE = ROOT / "BENCHMARK.json"


def parse_args(argv):
    """Command-line arguments."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def tree_digest(directory: Path) -> str:
    """SHA-256 over the Python sources under ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    """Where the numbers come from: source revision, machine and seed."""
    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": tree_digest(SRC),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Wall time of ``import repro`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - started


def measure_setup(workload) -> float:
    """Median fresh-interpreter import plus median workload set-up."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    prepares = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.prepare()
        prepares.append(time.perf_counter() - started)
    return statistics.median(imports) + statistics.median(prepares)


def measure(workload, seconds: float, tally):
    """Whole passes with nothing attached, until ``seconds`` of busy time and enough samples.

    Busy time excludes the untimed work between items, such as verifying
    circuits, so every workload measures the same length of program time.

    Throughputs are totals over the whole run: the host's speed drifts over
    several seconds, and a run total averages those phases and the inputs of
    every pass, where a median over a few passes picks one of them.
    """
    samples = []
    block = 0
    while workload.busy_s < seconds or len(samples) < workload.min_samples:
        block += 1
        count_before = len(samples)
        samples.extend(workload.run_pass(block if workload.fresh_blocks else 1, tally))
        if len(samples) == count_before:
            break  # every item of the pass failed; the tally has them
    if not samples:
        raise SystemExit(f"perfbench: no item succeeded: {tally.errors[:3]}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [latency for latency, _ in samples]
    tail = quantile(latencies, workload.tail)
    metrics = {
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail,
        "vertices_per_s": sum(v for _, v in samples) / workload.busy_s,
        "requests_per_s": len(samples) / workload.busy_s,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "passes": block,
        "samples": len(samples),
        "tail_level": workload.tail,
        "tail_samples_beyond": sum(1 for x in latencies if x > tail),
        "busy_s": workload.busy_s,
    }
    return metrics, details


def measure_traced(workload, seconds: float, tally):
    """An untraced reference pass, then traced passes for ``seconds``.

    The first traced pass replays the reference block, so its busy time over
    the reference's is the tracing overhead and its counts are exact.
    """
    from perfbench.tracing import Tracer, child_coverage, install_layers, layer_metrics

    reference_items = sum(1 for _ in workload.run_pass(1, tally))
    reference_busy = workload.busy_s
    tracer = Tracer()
    install_layers(tracer)
    workload.trace_items(tracer)
    items = 0
    started = time.perf_counter()
    epoch = 0
    try:
        while epoch == 0 or time.perf_counter() - started < seconds:
            epoch += 1
            tracer.epoch = epoch
            before = workload.busy_s
            items += sum(1 for _ in workload.run_pass(epoch if workload.fresh_blocks else 1,
                                                      tally))
            if epoch == 1:
                first_busy = workload.busy_s - before
    finally:
        tracer.uninstall()
    if not items:
        raise SystemExit(f"perfbench: no item succeeded: {tally.errors[:3]}")
    metrics = layer_metrics(tracer.spans, items, count_epoch=1)
    coverage = min(child_coverage(tracer.spans), default=0.0)
    metrics["trace.overhead_ratio"] = first_busy / reference_busy
    metrics["trace.compile_coverage_min"] = coverage
    metrics["trace.spans"] = len(tracer.spans)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(span_file)
    details = {
        "reference_items": reference_items,
        "traced_passes": epoch,
        "traced_items": items,
        "span_file": str(span_file.relative_to(ROOT)),
    }
    if workload.name in ("compile_cold", "compile_warm") and coverage < 0.95:
        print(f"perfbench: child spans cover only {coverage:.1%} of a compile span",
              file=sys.stderr)
    return metrics, details


#: Per-layer counts that must repeat exactly for the same seed and source.
DETERMINISTIC_LAYER_COUNTS = (
    "core.strategies.greedy_reduce.calls",
    "core.plan_scoring.score_sequence.calls",
    "core.compile_cache.hits",
    "core.compile_cache.misses",
    "core.partition.stem_edges",
    "core.partition.lc_ops",
    "core.subgraph_compiler.leaves",
    "core.streaming.regions",
    "core.streaming.emitters",
    "pipeline.cache.hits",
    "pipeline.cache.misses",
)


def check_determinism(args, info: dict, fingerprint: dict, tally) -> list:
    """Compare ``fingerprint`` with earlier runs of the same seed, mode, program and benchmark."""
    version = f"{info['source_sha256'][:12]}-{info['bench_sha256'][:12]}"
    path = (OUT / "fingerprints"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}-{version}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differing = sorted(k for k in fingerprint if k in earlier and earlier[k] != fingerprint[k])
    for key in differing:
        tally.record(False, f"nondeterministic {key}: {earlier[key]} then {fingerprint[key]}")
    if not differing:
        tally.record(True)
    path.write_text(json.dumps({**earlier, **fingerprint}, sort_keys=True, indent=1))
    return differing


def main(argv=None) -> int:
    """Run the workload named on the command line; return the exit code."""
    args = parse_args(argv)
    spec = json.loads(SPEC_FILE.read_text())
    import_program()
    from perfbench.workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    info = provenance(args.seed)
    workload = WORKLOADS[args.workload](args.seed, OUT / "tmp")
    tally = Tally()
    if args.trace:
        workload.prepare()
        metrics, details = measure_traced(workload, args.seconds, tally)
    else:
        setup_s = measure_setup(workload)
        metrics, details = measure(workload, args.seconds, tally)
        metrics["setup_s"] = setup_s
    started = time.perf_counter()
    try:
        workload.check(tally)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
        tally.record(False, f"check raised {type(exc).__name__}: {exc}")
    details["check_s"] = time.perf_counter() - started
    fingerprint = {**workload.quality(), **workload.counts()}
    if args.trace:
        fingerprint.update({k: metrics[k] for k in DETERMINISTIC_LAYER_COUNTS})
    else:
        metrics.update(workload.quality())
    differing = check_determinism(args, info, fingerprint, tally)
    details.update({
        "workload": args.workload,
        "trace": args.trace,
        "provenance": info,
        "failed_frac": tally.failed_frac,
        "nondeterministic": differing,
        "errors": tally.errors[:10],
    })
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, **result}, indent=1))
    for error in tally.errors[:10]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
