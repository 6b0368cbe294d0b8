"""Benchmark of the vortex-align pipeline through its public harness runners.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, sequential, one BLAS thread.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` repeats the same chunks with every
layer's public functions wrapped and prints the per-layer metrics.  The
last line of standard output is one JSON object; a run record with the
provenance and the sha256 of every output file goes to
``.bench_work/records/``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import os

# Set before numpy loads: the benchmark runs one thread, whatever the box has.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from layers import Probe, per_layer  # noqa: E402
from provenance import provenance  # noqa: E402
from reference import make_reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_chunk,
    chunk_seed,
    make_spec,
    pose_grid,
    quality,
    run_chunk,
    write_config,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is timed in this process and in this many fresh ones; the median
# is reported.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "items_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "completed_share": "share",
    "within_tolerance_share": "share",
}
# Printed and recorded beside the metrics: wall-clock throughput, and the
# estimate quality numbers, most of which exist on one kind of workload only.
REPORTED_UNITS = {
    "items_per_s": "1/s",
    "within_tolerance_share": "share",
    "failed_share": "share",
    "mae_theta_deg": "deg",
    "mae_phi_deg": "deg",
    "twin_flip_share": "share",
    "sir_gain_db": "dB",
    "capacity_ratio": "ratio",
    "min_correlation": "1",
}
PER_LAYER_UNITS = {
    "geometry.ms_per_item": "ms",
    "channel.simulate_ms_per_item": "ms",
    "channel.exact_ms_per_item": "ms",
    "channel.field_calls_per_item": "count",
    "channel.exact_pairs_per_item": "count",
    "estimator.estimate_ms_p50": "ms",
    "estimator.estimate_ms_p95": "ms",
    "estimator.estimate_samples": "count",
    "estimator.delta_calls_per_item": "count",
    "estimator.refine_iterations_mean": "count",
    "estimator.phases_ms_per_item": "ms",
    "estimator.twin_margin_db_p05": "dB",
    "correction.imi_calls_per_item": "count",
    "correction.imi_ms_per_item": "ms",
    "correction.score_ms_per_item": "ms",
    "harness.output_bytes": "bytes",
    "harness.failed_share": "share",
    "estimator.estimate_share": "share",
    "estimator.phases_share": "share",
    "channel.simulate_share": "share",
    "channel.exact_share": "share",
    "correction.imi_share": "share",
    "trace.overhead_share": "share",
    "trace.spans_per_item": "count",
    "channel.self_ms_per_item": "ms",
    "estimator.self_ms_per_item": "ms",
    "correction.self_ms_per_item": "ms",
    "harness.self_ms_per_item": "ms",
    "geometry.self_share": "share",
    "channel.self_share": "share",
    "estimator.self_share": "share",
    "correction.self_share": "share",
    "harness.self_share": "share",
    "estimator.mae_theta_deg": "deg",
    "estimator.mae_phi_deg": "deg",
    "estimator.twin_flip_share": "share",
    "correction.sir_gain_db": "dB",
    "correction.capacity_ratio": "ratio",
    "channel.min_correlation": "1",
}


def set_up(workload, seed: int, work: Path):
    """Import, load the chunk specs and warm up on one item.

    The warm-up fills the estimator's grid tables and scipy's lazy imports.
    Returns the harness module, the chunk specs and the seconds it took.
    """
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import vortex_align.harness as harness
    from vortex_align.channel import FarfieldRangeWarning

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vortex_align was imported from {harness.__file__}, not {SRC}")
    warnings.simplefilter("ignore", FarfieldRangeWarning)
    grid = pose_grid(harness)
    n = workload.pose_slices
    configs = [write_config(workload, work / f"config{k}.json", grid[k::n]) for k in range(n)]
    specs = [
        make_spec(harness, workload, configs[i % n], work / f"chunk{i}", chunk_seed(seed, i))
        for i in range(workload.chunks)
    ]
    warm_config = write_config(workload, work / "warmup" / "config.json", grid[:1])
    warm = make_spec(harness, workload, warm_config, work / "warmup" / "out",
                     chunk_seed(seed, 0))
    run_chunk(harness, warm)
    return harness, specs, perf_counter() - start


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def check_outputs(chunks, specs):
    """Problems across the fixed chunks, and the items of the chunks that ran."""
    problems, rows = [], []
    for chunk, spec in zip(chunks, specs):
        found, chunk_rows = check_chunk(chunk, spec)
        problems += [f"chunk seed {chunk.seed}: {p}" for p in found]
        rows += chunk_rows
    if all(c.error is not None for c in chunks):
        problems.append("every chunk failed; no output to check")
    return problems, rows


def same_outputs(a, b) -> bool:
    return a.error is not None or b.error is not None or a.files == b.files


def rate(chunk) -> float:
    """Items completed per second; a chunk whose runner raised did none."""
    return chunk.completed / chunk.seconds if chunk.completed else 0.0


def measure(harness, specs, seconds: float, reference):
    """The fixed chunks, then repeats of the first one while time remains.

    The reference kernel runs before the first chunk and after every chunk.
    A repeat runs the same spec again, so its outputs must be byte-identical.
    """
    start = perf_counter()
    refs = [reference()]
    chunks = []
    for spec in specs:
        chunks.append(run_chunk(harness, spec))
        refs.append(reference())
    repeat_spec = dataclasses.replace(specs[0], out_dir=specs[0].out_dir.parent / "repeat")
    typical = statistics.median(c.seconds for c in chunks)
    repeats = []
    while perf_counter() - start + typical <= seconds:
        repeats.append(run_chunk(harness, repeat_spec))
        refs.append(reference())
    return chunks, repeats, refs


@dataclasses.dataclass
class Outcome:
    chunks: list  # the fixed chunks whose outputs were checked
    attempted: int  # items attempted in every measured chunk
    failed: int
    metrics: dict  # the metrics the JSON line carries
    reported: dict  # printed and recorded beside them
    problems: list
    extra: dict


def untraced_run(workload, seed, seconds, harness, specs, setup_s) -> Outcome:
    chunks, repeats, refs = measure(harness, specs, seconds, make_reference())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [setup_s] + [setup_probe(workload.name, seed) for _ in range(SETUP_PROBES)]
    problems, rows = check_outputs(chunks, specs)
    problems += [
        f"repeat {i} of chunk seed {chunks[0].seed} wrote different files"
        for i, r in enumerate(repeats) if not same_outputs(chunks[0], r)
    ]
    timed = chunks + repeats
    attempted = sum(c.attempted for c in timed)
    completed = sum(c.completed for c in timed)
    reported = quality(workload.kind, rows, sum(c.attempted for c in chunks))
    metrics = {
        "items_per_ref": statistics.median(
            rate(c) * (refs[i] + refs[i + 1]) / 2 for i, c in enumerate(timed)
        ),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": peak_rss_mib,
        "completed_share": completed / attempted,
        "within_tolerance_share": reported.pop("within_tolerance_share"),
    }
    reported["items_per_s"] = statistics.median(rate(c) for c in timed)
    reported["failed_share"] = 1.0 - completed / attempted
    extra = {"setup_samples_s": setup_samples, "reference_s": refs,
             "repeats": [r.record() for r in repeats]}
    return Outcome(chunks, attempted, attempted - completed, metrics, reported, problems, extra)


def traced_run(workload, seconds, harness, specs, spans_path: Path) -> Outcome:
    """Each fixed chunk untraced and then traced, in rounds while time remains.

    Running the twins back to back lets drift in the box's speed fall on
    both alike.  Every traced chunk must write the same files as its
    untraced twin.
    """
    probe = Probe()
    tracer = Tracer(probe.hooks())
    untraced, traced = [], []
    start = perf_counter()
    round_s = 0.0
    while not traced or perf_counter() - start + round_s <= seconds:
        round_start = perf_counter()
        for spec in specs:
            untraced.append(run_chunk(harness, spec))
            with tracer:
                traced.append(run_chunk(harness, spec))
        round_s = perf_counter() - round_start
    chunks = traced[: len(specs)]
    problems, rows = check_outputs(chunks, specs)
    problems += [
        f"chunk seed {c.seed} wrote different files when traced"
        for u, c in zip(untraced, traced) if not same_outputs(u, c)
    ]
    problems += [
        f"chunk seed {c.seed} wrote different files in round {i // len(specs)}"
        for i, c in enumerate(traced) if not same_outputs(chunks[i % len(specs)], c)
    ]
    attempted = sum(c.attempted for c in traced)
    completed = sum(c.completed for c in traced)
    reported = quality(workload.kind, rows, sum(c.attempted for c in chunks))
    reported["failed_share"] = 1.0 - completed / attempted
    metrics = per_layer(
        tracer, probe, completed,
        traced_s=sum(c.seconds for c in traced),
        untraced_s=sum(c.seconds for c in untraced),
        output_bytes=sum(c.output_bytes for c in chunks),
        quality=reported,
    )
    tracer.write_csv(spans_path)
    extra = {"spans": str(spans_path.relative_to(ROOT)), "spans_recorded": len(tracer),
             "rounds": len(traced) // len(specs),
             "untraced_chunks": [u.record() for u in untraced]}
    return Outcome(chunks, attempted, attempted - completed, metrics, reported, problems, extra)


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        worst = max(worst, proc.returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    loadavg_1m = os.getloadavg()[0]
    args = parse_args(argv)
    if not (SRC / "vortex_align" / "__init__.py").is_file():
        print(f"no vortex_align sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        _, _, setup_s = set_up(workload, args.seed, WORK / f"{workload.name}-probe")
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work = WORK / workload.name
    harness, specs, setup_s = set_up(workload, args.seed, work)
    if args.trace:
        outcome = traced_run(workload, args.seconds, harness, specs, work / "spans.csv")
        units = PER_LAYER_UNITS
    else:
        outcome = untraced_run(workload, args.seed, args.seconds, harness, specs, setup_s)
        units = END_TO_END_UNITS

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(ROOT, loadavg_1m),
        "chunks": [c.record() for c in outcome.chunks],
        "metrics": outcome.metrics,
        "reported": outcome.reported,
        "problems": outcome.problems,
        **outcome.extra,
    }
    record_path = WORK / "records" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"record {record_path.relative_to(ROOT)}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for c in outcome.chunks:
        files = " ".join(f"{name}={sha[:12]}" for name, sha in c.files.items())
        print(f"chunk seed {c.seed} spec_hash {c.spec_hash} {c.seconds:.3f} s "
              f"{c.completed}/{c.attempted} items"
              + (f" error {c.error}" if c.error else "") + f"  {files}")
    for name, value in outcome.metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    for name, value in outcome.reported.items():
        print(f"  also {name} = {value!r} {REPORTED_UNITS[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
