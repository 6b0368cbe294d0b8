"""The benchmark's workloads, one measured chunk at a time, and output checks.

A workload is one experiment kind with fixed settings.  A run measures a
fixed number of chunks, each a call of the kind's public harness runner on
its own seed, so the estimate-quality numbers of a run are the same for the
same workload seed.  The program receives only ``load_spec`` arguments:
the chunk seed goes in as ``seed=``.

Everything here is stdlib only, so that importing it costs nothing that
the set-up time should count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# A trial is within tolerance when both angle errors are at most this; one
# coarse-grid step (3 deg) plus a margin for the refine's one-cell box.
ANGLE_TOL_DEG = 4.0
# Oracle-vs-model comparisons must correlate above this, as in criterion 1.
MIN_CORRELATION = 0.99
# A phi error above this is the half-turn twin, not a fit error.
TWIN_FLIP_DEG = 90.0
# Relative agreement required between a summary and the CSV it summarises.
SUMMARY_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    config: dict
    chunks: int  # fixed chunks per run; the quality metrics cover these
    # Chunks cycle through this many interleaved slices of the pose grid,
    # which keeps a chunk short enough to be timed between two reference runs.
    pose_slices: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ccdf-farfield",
            kind="ccdf",
            why="paper headline experiment on built-in defaults; the estimator "
            "takes ~97% of it, so estimator changes show here",
            config={},
            chunks=20,
        ),
        Workload(
            name="angle-exact-p64",
            kind="angle-sweep",
            why="exact oracle, P=64, Q=12, 10 dB: channel simulation and phase "
            "extraction grow with P*Q while grid and refine do not",
            config={
                "model": "exact",
                "estimation": {"p": 64, "q": 12},
                "noise": {"snr_db": 10.0},
            },
            chunks=21,
            pose_slices=3,
        ),
        Workload(
            name="validate-model",
            kind="validate-model",
            why="315 oracle-vs-model comparisons and ~50k CSV rows, no estimator: "
            "oracle and output-writing changes show, estimator changes must not",
            config={},
            chunks=3,
            pose_slices=3,
        ),
    )
}


def chunk_seed(seed: int, chunk: int) -> int:
    """Seed of one chunk: distinct per chunk and per workload seed."""
    return seed * 1000 + chunk


def pose_grid(harness) -> list[tuple[float, float]]:
    """The 15-pose grid the estimation kinds default to."""
    return harness.load_spec("ccdf").poses


def write_config(workload: Workload, path: Path, poses) -> Path:
    """Write the workload's JSON config on the given poses."""
    cfg = json.loads(json.dumps(workload.config))
    cfg["poses"] = [{"rot_y_deg": ry, "rot_x_deg": rx} for ry, rx in poses]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, sort_keys=True))
    return path


def make_spec(harness, workload: Workload, config: Path, out_dir: Path, seed: int):
    """One chunk's spec: one trial per pose; chunks set a run's trial count."""
    return harness.load_spec(workload.kind, config_path=str(config), out_dir=str(out_dir),
                             seed=seed, trials=1)


def attempted_items(spec) -> int:
    """Items one runner call attempts: trials, or (pose, ring, mode) comparisons."""
    if spec.kind == "validate-model":
        return len(spec.poses) * len(spec.rings) * len(spec.validate_modes)
    return len(spec.poses) * spec.trials


@dataclass
class Chunk:
    seed: int
    spec_hash: str
    seconds: float
    attempted: int
    completed: int
    error: str | None
    files: dict[str, str] = field(default_factory=dict)  # name -> sha256
    output_bytes: int = 0
    summary: dict | None = None

    def record(self) -> dict:
        return {
            "seed": self.seed,
            "spec_hash": self.spec_hash,
            "seconds": self.seconds,
            "attempted": self.attempted,
            "completed": self.completed,
            "error": self.error,
            "files": self.files,
            "output_bytes": self.output_bytes,
        }


def fingerprints(out_dir: Path) -> tuple[dict[str, str], int]:
    files, size = {}, 0
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            files[path.name] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return files, size


def run_chunk(harness, spec) -> Chunk:
    """One timed runner call on a fresh output directory.

    A runner that raises fails its whole chunk: every attempted item counts
    as failed and the exception class is kept.
    """
    shutil.rmtree(spec.out_dir, ignore_errors=True)
    # Looked up on the module at call time, so a traced run gets the wrapper.
    runner = getattr(harness, harness.RUNNERS[spec.kind].__name__)
    attempted = attempted_items(spec)
    start = perf_counter()
    try:
        summary = runner(spec)
        error = None
    except Exception as exc:  # noqa: BLE001 - recorded, the run keeps reporting
        summary, error = None, type(exc).__name__
    seconds = perf_counter() - start
    if summary is None:
        completed = 0
    elif "trials" in summary:
        completed = int(summary["trials"])
    else:
        completed = attempted
    files, size = fingerprints(Path(spec.out_dir))
    return Chunk(spec.master_seed, spec.config_hash, seconds, attempted, completed,
                 error, files, size, summary)


def read_rows(path: Path) -> list[dict]:
    """The rows of a harness CSV file, under its ``# spec_hash=`` line."""
    with open(path, newline="") as fh:
        fh.readline()
        return list(csv.DictReader(fh))


def _non_finite(value, where: str) -> list[str]:
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [f"{where} is {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SUMMARY_RTOL * max(abs(a), abs(b), 1e-300)


def check_chunk(chunk: Chunk, spec) -> tuple[list[str], list[dict]]:
    """Problems with one chunk's outputs, and its per-item rows."""
    if chunk.error is not None:
        return [], []
    out = Path(spec.out_dir)
    problems = _non_finite(chunk.summary, "summary")
    written = json.loads((out / "summary.json").read_text())
    if written.get("spec_hash") != spec.config_hash:
        problems.append("summary.json spec_hash does not match the spec")
    for name in chunk.files:
        if name.endswith(".csv"):
            with open(out / name) as fh:
                if fh.readline().strip() != f"# spec_hash={spec.config_hash}":
                    problems.append(f"{name} does not start with the spec hash")

    if spec.kind == "validate-model":
        rows = read_rows(out / "validate_correlations.csv")
        corr = [float(r["correlation"]) for r in rows]
        problems += _non_finite(corr, "correlation")
        if len(rows) != chunk.attempted:
            problems.append(f"{len(rows)} correlation rows for {chunk.attempted} items")
        min_corr = chunk.summary["min_correlation"]
        if not min_corr > MIN_CORRELATION:
            problems.append(f"min_correlation {min_corr} <= {MIN_CORRELATION}")
        if corr and not _close(min(corr), min_corr):
            problems.append("min_correlation disagrees with validate_correlations.csv")
        return problems, rows

    rows = read_rows(out / "results.csv")
    if len(rows) != chunk.completed:
        problems.append(f"{len(rows)} result rows for {chunk.completed} trials")
    if chunk.completed + chunk.summary.get("failed_trials", 0) != chunk.attempted:
        problems.append("trials plus failed_trials is not the attempted count")
    for column, key in (("theta_err_deg", "mae_theta_deg"), ("phi_err_deg", "mae_phi_deg")):
        values = [float(r[column]) for r in rows]
        problems += _non_finite(values, column)
        if values and not _close(statistics.fmean(values), chunk.summary[key]):
            problems.append(f"summary {key} disagrees with results.csv")
    return problems, rows


def quality(kind: str, rows: list[dict], attempted: int) -> dict[str, float]:
    """Estimate or model quality over every item of a run's fixed chunks.

    Failed items count against ``within_tolerance_share``, whose base is the
    attempted items.
    """
    if kind == "validate-model":
        corr = [float(r["correlation"]) for r in rows]
        return {
            "within_tolerance_share": sum(c > MIN_CORRELATION for c in corr) / attempted,
            "min_correlation": min(corr) if corr else 0.0,
        }
    if not rows:
        return {"within_tolerance_share": 0.0}
    theta = [float(r["theta_err_deg"]) for r in rows]
    phi = [float(r["phi_err_deg"]) for r in rows]
    good = sum(t <= ANGLE_TOL_DEG and p <= ANGLE_TOL_DEG for t, p in zip(theta, phi))
    return {
        "within_tolerance_share": good / attempted,
        "mae_theta_deg": statistics.fmean(theta),
        "mae_phi_deg": statistics.fmean(phi),
        "twin_flip_share": sum(p > TWIN_FLIP_DEG for p in phi) / len(phi),
        "sir_gain_db": statistics.fmean(float(r["sir_gain_db"]) for r in rows),
        "capacity_ratio": statistics.fmean(float(r["capacity_ratio"]) for r in rows),
    }
