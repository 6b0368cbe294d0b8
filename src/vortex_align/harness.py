"""Experiment harness and CLI for the OAM alignment simulator.

Experiment kinds:

* ``angle-sweep``       estimation accuracy over a pose grid
* ``ccdf``              SIR-gain and capacity-gain distributions
* ``subcarrier-sweep``  accuracy and gain versus frequency diversity P
* ``antenna-sweep``     accuracy and gain versus antenna count Q
* ``imi-demo``          inter-modal power matrices: aligned / tilted / corrected
* ``validate-model``    exact oracle versus far-field model phase maps

All randomness is driven by a master seed; per-trial seeds derive from
(master seed, point index, trial index), so identical specs produce
byte-identical output files.  The two sweeps seed from (master seed, axis
value, point index, trial index), so each count draws its own noise while
``point_index`` stays the pose index.

A trial that a noise draw can defeat (no usable power, or a zero decoded
signal) is counted in ``failed_trials``, and per exception class in
``failed_by_error``, and left out of ``results.csv``; any other error ends
the run, and so does a pose grid on which no trial succeeds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import FARFIELD_HARD_FACTOR, FARFIELD_WARN_FACTOR, pose_angles
from .channel import simulate_trials, trial_signals, wavenumber
from .correction import ZeroSignalError, check_decodable, imi_matrices, sir, sir_capacity
from .estimator import (
    EstimationConfig,
    MisalignmentEstimate,
    estimate_trials,
    select_antennas,
)
from .geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    misalignment_angles,
    tilt_for_angles,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _pose_for_targets(theta_deg: float, phi_deg: float) -> dict:
    ry, rx = tilt_for_angles(np.deg2rad(theta_deg), np.deg2rad(phi_deg))
    return {"rot_y_deg": float(np.rad2deg(ry)), "rot_x_deg": float(np.rad2deg(rx))}


def _default_pose_grid() -> list[dict]:
    """Fifteen poses spanning elevations 14..75.7 deg, azimuths -170..-100 deg.

    Elevations below the well-conditioned range are excluded by default:
    azimuth becomes unidentifiable as the elevation approaches zero.
    """
    thetas = np.linspace(14.0, 75.7, 15)
    phis = np.linspace(-170.0, -100.0, 15)
    return [_pose_for_targets(th, ph) for th, ph in zip(thetas, phis)]


# Every setting and its default, whose type is the setting's type (``_typed``).
BASE_DEFAULTS: dict = {
    "scenario": {
        "tx": {"n": 160, "radius_m": 0.03},
        "rx": {"n": 20, "radius_m": 0.008},
        "distance_m": 0.4,
        "carrier_hz": 120e9,
        "subcarriers": {"start_hz": 119.5e9, "step_hz": 10e6, "count": 71},
    },
    "poses": _default_pose_grid(),
    "estimation": {
        "modes": [-1, 1],
        "q": 6,
        "p": 1,
    },
    "noise": {"snr_db": 25.0},
    "trials": 50,
    "seed": 42,
    "model": "farfield",
    # Kind-specific knobs, accepted (and ignored) everywhere so one config
    # file can drive several experiment kinds.
    "subcarrier_counts": [1, 2, 4, 8, 16, 32, 64],
    "antenna_counts": list(range(3, 13)),
    "demo_tilt_deg": 10.0,
    "demo_modes": [-2, -1, 0, 1, 2],
    "rings": [],
    "validate_modes": [-2, -1, 0, 1, 2],
}

# Only what differs from BASE_DEFAULTS; nested dicts merge into it, and
# every value takes the type of the default that it replaces.
KIND_DEFAULTS: dict = {
    "imi-demo": {
        "scenario": {
            "rx": {"radius_m": 0.02},
            "distance_m": 4.0,
            "subcarriers": {"start_hz": 120e9, "count": 1},
        },
        "model": "exact",
        "trials": 1,
    },
    "validate-model": {
        "scenario": {
            "rx": {"n": 160, "radius_m": 0.03},  # placeholder; rings below
            "distance_m": 100.0,
            "subcarriers": {"start_hz": 120e9, "count": 1},
        },
        "rings": [
            {"radius_m": 0.02, "n": 120},
            {"radius_m": 0.03, "n": 160},
            {"radius_m": 0.04, "n": 200},
        ],
        "validate_modes": [-3, -2, -1, 0, 1, 2, 3],
        "poses": [
            {"rot_y_deg": 0.0, "rot_x_deg": 0.0},
            _pose_for_targets(17.9, -34.2),
        ],
        "trials": 1,
    },
}


@dataclass
class ExperimentSpec:
    """Fully resolved description of one experiment run."""

    kind: str
    scenario: Scenario
    poses: list[tuple[float, float]]  # (rot_y_deg, rot_x_deg)
    trials: int
    master_seed: int
    out_dir: Path
    model: str
    snr_db: float | None
    modes: tuple[int, ...]
    q: int
    p: int
    subcarrier_counts: tuple[int, ...]
    antenna_counts: tuple[int, ...]
    demo_tilt_deg: float
    demo_modes: tuple[int, ...]
    rings: tuple[UcaGeometry, ...]
    validate_modes: tuple[int, ...]
    config_hash: str


def load_spec(
    kind: str,
    config_path: str | None = None,
    out_dir: str = "vortex_results",
    seed: int | None = None,
    trials: int | None = None,
    snr_db: float | None = None,
    model: str | None = None,
) -> ExperimentSpec:
    """Build an ExperimentSpec from defaults, a JSON config, and overrides:
    each layer is typed against the one before it (``_typed``), and the spec
    hash is taken over the result, so equal settings share a hash."""
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    user = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    flags = {"seed": seed, "trials": trials, "model": model}
    flags = {key: value for key, value in flags.items() if value is not None}
    if snr_db is not None:
        flags["noise"] = {"snr_db": snr_db}
    cfg = BASE_DEFAULTS
    for layer in (KIND_DEFAULTS.get(kind, {}), user, flags):
        cfg = _typed(cfg, layer)
    return _spec_from_dict({**cfg, "kind": kind}, out_dir)


# The keys of each entry of a list of objects; every other list holds ints.
_ENTRY_KEYS = {
    "poses": {"rot_y_deg": 0.0, "rot_x_deg": 0.0},
    "rings": {"n": 0, "radius_m": 0.0},
}


def _typed(default, value, key: str = "", entry: bool = False):
    """``value``, the setting at config ``key``, checked against and converted
    to the type of its ``default``.

    An object merges into its default and holds no other key; a list
    ``entry`` holds exactly its keys. A list replaces its default and holds
    the objects of ``_ENTRY_KEYS[key]``, or else ints. A float default takes
    a finite number (``_real``), an int default a whole one (``_integer``),
    a str default a str; ``noise.snr_db`` may also be None (no noise)."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        prefix = key + "." if key else ""
        for name in value:
            if name not in default:
                raise ConfigError(f"unknown config key {prefix + name!r}")
        missing = [name for name in default if name not in value] if entry else []
        if missing:
            raise ConfigError(f"{key} is missing {missing[0]!r}")
        return {name: _typed(d, value.get(name, d), prefix + name)
                for name, d in default.items()}
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        item = _ENTRY_KEYS.get(key, 0)
        return [_typed(item, v, f"{key}[{i}]", entry=True) for i, v in enumerate(value)]
    if key == "noise.snr_db":
        return None if value is None else _real(value, key)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    return _real(value, key) if isinstance(default, float) else _integer(value, key)


def _spec_from_dict(cfg: dict, out_dir: str) -> ExperimentSpec:
    """The spec of typed config ``cfg``; each constructor's ValueError is a
    ConfigError that names the key it read."""
    sc, est, sub = cfg["scenario"], cfg["estimation"], cfg["scenario"]["subcarriers"]
    try:
        # np.arange(2**63) is empty, not refused: a count beyond intp is refused here.
        if sub["count"] > np.iinfo(np.intp).max:
            raise ValueError("more tones than an array can hold")
        tones = sub["start_hz"] + sub["step_hz"] * np.arange(sub["count"])
    except (ValueError, MemoryError) as exc:  # more tones than an array or memory holds
        raise ConfigError(f"scenario.subcarriers.count={sub['count']}: {exc}") from exc
    tx, rx = _uca(sc["tx"], "scenario.tx"), _uca(sc["rx"], "scenario.rx")
    try:
        # The nominal pose carries the link distance; each trial's tilt is its own.
        scenario = Scenario(tx, rx, RxPose(sc["distance_m"]), sc["carrier_hz"], tones)
    except ValueError as exc:  # its message opens with the scenario key at fault
        raise ConfigError(f"scenario.{exc}") from exc
    poses = [(pose["rot_y_deg"], pose["rot_x_deg"]) for pose in cfg["poses"]]
    if not poses:
        raise ConfigError("poses must be nonempty")
    if cfg["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    if cfg["model"] not in ("exact", "farfield"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    spec = ExperimentSpec(
        kind=cfg["kind"],
        scenario=scenario,
        poses=poses,
        trials=cfg["trials"],
        master_seed=cfg["seed"],
        out_dir=Path(out_dir),
        model=cfg["model"],
        snr_db=cfg["noise"]["snr_db"],
        modes=tuple(est["modes"]),
        q=est["q"],
        p=est["p"],
        subcarrier_counts=tuple(cfg["subcarrier_counts"]),
        antenna_counts=tuple(cfg["antenna_counts"]),
        demo_tilt_deg=cfg["demo_tilt_deg"],
        demo_modes=tuple(cfg["demo_modes"]),
        rings=tuple(_uca(ring, f"rings[{i}]") for i, ring in enumerate(cfg["rings"])),
        validate_modes=tuple(cfg["validate_modes"]),
        config_hash=hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16],
    )
    _validate_spec(spec)
    return spec


def _integer(value, key: str) -> int:
    """``value`` as an int; anything but an int or a whole float (a bool, a
    str, None, a list) is an error naming ``key``."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """``value`` as a float; anything but an int or a float (a bool, a str,
    None, a list), NaN or an infinity is an error naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int beyond it
        raise ConfigError(f"{key} must be finite, got {value}")
    return float(value)


def _uca(ring: dict, key: str) -> UcaGeometry:
    """The typed ring ``{"n": ..., "radius_m": ...}`` at config ``key``."""
    try:
        return UcaGeometry(ring["n"], ring["radius_m"])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _validate_spec(spec: ExperimentSpec) -> None:
    tilts = [(f"poses[{i}] (rot_y_deg={ry}, rot_x_deg={rx_deg})", ry, rx_deg)
             for i, (ry, rx_deg) in enumerate(spec.poses)]
    if spec.kind == "imi-demo":
        tilts.append((f"demo_tilt_deg={spec.demo_tilt_deg}", spec.demo_tilt_deg, 0.0))
    for name, ry, rx_deg in tilts:
        pose = RxPose.from_tilt(spec.scenario.pose.distance_m, *np.deg2rad([ry, rx_deg]))
        theta, _ = misalignment_angles(pose)
        if theta >= np.pi / 2:
            raise ConfigError(f"{name} turns the receiver away from the transmitter")
    n_sub = len(spec.scenario.subcarriers_hz)
    reads_p = spec.kind in ("angle-sweep", "ccdf", "antenna-sweep")
    if reads_p and not 1 <= spec.p <= n_sub:
        raise ConfigError(f"estimation.p must lie in 1..{n_sub}, got {spec.p}")
    # The lists a kind runs over.
    lists = {"imi-demo": ["demo_modes"], "validate-model": ["validate_modes", "rings"],
             "subcarrier-sweep": ["subcarrier_counts"], "antenna-sweep": ["antenna_counts"]}
    for key in lists.get(spec.kind, []):
        values = getattr(spec, key)
        if not values or len(set(values)) < len(values):
            raise ConfigError(f"{key} must be nonempty and distinct, got {list(values)}")
    ps = spec.subcarrier_counts
    if spec.kind == "subcarrier-sweep" and (min(ps) < 1 or max(ps) > n_sub):
        raise ConfigError(f"subcarrier_counts must lie in 1..{n_sub}, got {ps}")
    if spec.master_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {spec.master_seed}")
    r, tx = spec.scenario.pose.distance_m, spec.scenario.tx
    links = [("scenario.rx", spec.scenario.rx)] if spec.model == "farfield" else []
    if spec.kind == "validate-model":  # it runs both models on every ring
        links = [(f"rings[{i}]", ring) for i, ring in enumerate(spec.rings)]
    for key, rx in links:  # the far-field model's hard limit
        radius, name = max((tx.radius_m, "scenario.tx"), (rx.radius_m, key))
        if r <= FARFIELD_HARD_FACTOR * radius:
            raise ConfigError(f"scenario.distance_m={r} is within {FARFIELD_HARD_FACTOR}x "
                              f"{name}.radius_m={radius}, too short for the far-field model")
    try:
        if spec.kind == "imi-demo":
            check_decodable(spec.demo_modes, spec.scenario.rx.n_elements)
        elif spec.kind != "validate-model":
            if len(spec.modes) < 2:
                raise ConfigError("needs at least two modes")
            check_decodable(spec.modes, spec.scenario.rx.n_elements)
            for q in spec.antenna_counts if spec.kind == "antenna-sweep" else (spec.q,):
                _estimation_config(spec, q)
    except ValueError as exc:
        key = "demo_modes" if spec.kind == "imi-demo" else "estimation"
        raise ConfigError(f"{key}: {exc}") from exc


def _estimation_config(spec: ExperimentSpec, q: int) -> EstimationConfig:
    """The estimator settings of ``spec`` for ``q`` antennas."""
    return EstimationConfig(
        modes=spec.modes,
        antennas=tuple(select_antennas(spec.scenario.rx.n_elements, q)),
    )


def trial_seed(master_seed: int, *indices: int) -> int:
    """Deterministic per-trial seed over (master seed, *indices).

    Distinct index tuples of one length give distinct seeds; ``SeedSequence``
    pads with zeros, so ``(a, b)`` and ``(a, b, 0)`` give the same seed.
    """
    seq = np.random.SeedSequence([int(master_seed), *(int(i) for i in indices)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _score_trials(spec: ExperimentSpec, batch: list, truths: list, results: list) -> list:
    """The ``results.csv`` row of each trial of ``batch``, (point index, trial
    index, seed), of pose and ``pose_angles`` ``truths`` and estimate ``results``:
    ground truth, estimate, errors and gains.  A noise failure in ``results``
    keeps its place, and so does a ZeroSignalError.  One ``imi_matrices``
    call at the carrier scores every trial's true pose under its three aims:
    (0, 0) (no mask), the estimate, the truth."""
    scenario, results = spec.scenario, list(results)
    live = [n for n, est in enumerate(results) if isinstance(est, MisalignmentEstimate)]
    if not live:
        return results
    poses, truth = zip(*(truths[n] for n in live))
    aims = [[(0.0, 0.0), (results[n].theta, results[n].phi), t[:2]]
            for n, t in zip(live, truth)]
    power = imi_matrices(scenario, poses, truth, spec.modes, aims, spec.model)
    kept = np.diagonal(power, axis1=-2, axis2=-1).all(axis=(1, 2))
    for n in np.compress(~kept, live):
        results[n] = ZeroSignalError("zero decoded signal power")
    per_mode, sirs = sir(power[kept], spec.modes)
    caps = sir_capacity(per_mode[:, :2])
    live, truth = np.compress(kept, live), np.compress(kept, truth, axis=0)
    for j, n in enumerate(live):
        est, (point_index, trial_index, seed) = results[n], batch[n]
        (theta_t, phi_t, _), (sir_before, sir_after, sir_true) = truth[j], sirs[j]
        cap_before, cap_after = caps[j]
        phi_true, phi_est = float(np.rad2deg(phi_t)), float(np.rad2deg(est.phi))
        results[n] = {
            "kind": spec.kind,
            "point_index": point_index,
            "trial_index": trial_index,
            "trial_seed": seed,
            "p": spec.p,
            "q": spec.q,
            "u": len(spec.modes),
            "theta_true_deg": float(np.rad2deg(theta_t)),
            "phi_true_deg": phi_true,
            "theta_est_deg": float(np.rad2deg(est.theta)),
            "phi_est_deg": phi_est,
            "theta_err_deg": abs(float(np.rad2deg(est.theta - theta_t))),
            "phi_err_deg": abs(float(np.rad2deg(np.angle(np.exp(1j * np.deg2rad(
                phi_est - phi_true)))))),
            "residual": est.residual,
            "sir_before_db": sir_before,
            "sir_after_db": sir_after,
            "sir_gain_db": sir_after - sir_before,
            "sir_gain_true_db": sir_true - sir_before,
            "capacity_before": cap_before,
            "capacity_after": cap_after,
            "capacity_ratio": cap_after / cap_before,
        }
    return results


def _write_csv(path: Path, rows: Iterable[dict], spec_hash: str) -> None:
    """Write dict ``rows`` under a spec-hash line; the first row's keys are the
    header.  Raises ValueError when there is no row.

    One %-template built from the first row's values writes every row: a
    float (numpy's float64 too) as ``%.12g``, anything else as ``str``, so
    each column keeps the kind of its first row's value.  No cell is quoted:
    the one str column, ``results.csv``'s ``kind``, holds a ``RUNNERS`` key.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError(f"no rows to write to {path}")
    line = ",".join("%.12g" if isinstance(v, float) else "%s" for v in first.values()) + "\r\n"
    cells = (tuple(row.values()) for row in itertools.chain([first], rows))
    _write_lines(path, first, (line % c for c in cells), spec_hash)


def _write_lines(path: Path, header: Iterable, lines: Iterable[str], spec_hash: str) -> None:
    """Write the spec-hash line, the csv ``header`` row, then ``lines`` as they are."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# spec_hash={spec_hash}\n")
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


def _write_summary(spec: ExperimentSpec, summary: dict) -> None:
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"kind": spec.kind, "spec_hash": spec.config_hash, **summary}
    with open(spec.out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Trials simulated, estimated and scored together: a batch's per-trial cost is
# near its floor from a few dozen trials on, and its memory grows with it.
_BATCH_TRIALS = 128


def _trial_rows(spec: ExperimentSpec, value: int | None = None) -> tuple[list[dict], Counter]:
    """Every pose x trial of ``spec``; a sweep's axis ``value`` joins the seed.

    Returns the completed rows and the failed trials per exception class.
    """
    axis_value = () if value is None else (value,)
    scenario = spec.scenario
    config = _estimation_config(spec, spec.q)
    pool = scenario.subcarriers_hz
    poses = [RxPose.from_tilt(scenario.pose.distance_m, *np.deg2rad(tilt))
             for tilt in spec.poses]
    angles = [pose_angles(pose) for pose in poses]
    items = [(point, t, trial_seed(spec.master_seed, *axis_value, point, t))
             for point in range(len(poses)) for t in range(spec.trials)]
    rows: list[dict] = []
    failures: Counter = Counter()
    for start in range(0, len(items), _BATCH_TRIALS):
        # Simulate a batch of trials, estimate it and score it, one call each.
        batch = items[start : start + _BATCH_TRIALS]
        truths = [(poses[point], angles[point]) for point, _t, _seed in batch]
        tones = [np.sort(np.random.default_rng(seed).choice(pool, size=spec.p, replace=False))
                 for *_, seed in batch]
        tensor = simulate_trials(scenario, *zip(*truths), spec.modes, tones, spec.snr_db,
                                 [seed for *_, seed in batch], spec.model)
        estimates = estimate_trials(tensor, scenario, config)
        for result in _score_trials(spec, batch, truths, estimates):
            if isinstance(result, dict):
                rows.append(result)
            else:
                failures[type(result).__name__] += 1
                last = result
    if not rows:
        total = failures.total()
        raise RuntimeError(f"all {total} trials failed; last: {last!r}") from last
    return rows, failures


def _estimation_summary(rows: list[dict], failures: Counter) -> dict:
    """Accuracy, mean SIR gains and trial counts of completed ``rows``."""
    return {
        "mae_theta_deg": float(np.mean([r["theta_err_deg"] for r in rows])),
        "mae_phi_deg": float(np.mean([r["phi_err_deg"] for r in rows])),
        "mean_sir_gain_db": float(np.mean([r["sir_gain_db"] for r in rows])),
        "mean_sir_gain_true_db": float(np.mean([r["sir_gain_true_db"] for r in rows])),
        "trials": len(rows),
        "failed_trials": failures.total(),
        "failed_by_error": dict(failures),
    }


def run_angle_sweep(spec: ExperimentSpec) -> dict:
    """Estimate every pose; report per-pose statistics and overall MAEs."""
    rows, failures = _trial_rows(spec)
    per_pose = []
    for point in range(len(spec.poses)):
        sel = [r for r in rows if r["point_index"] == point]
        if not sel:
            continue
        per_pose.append({
            "point_index": point,
            "theta_true_deg": sel[0]["theta_true_deg"],
            "phi_true_deg": sel[0]["phi_true_deg"],
            "theta_est_mean_deg": float(np.mean([r["theta_est_deg"] for r in sel])),
            "theta_est_std_deg": float(np.std([r["theta_est_deg"] for r in sel])),
            "phi_est_mean_deg": float(np.mean([r["phi_est_deg"] for r in sel])),
            "phi_est_std_deg": float(np.std([r["phi_est_deg"] for r in sel])),
        })
    _write_csv(spec.out_dir / "results.csv", rows, spec.config_hash)
    _write_csv(spec.out_dir / "angle_sweep_curve.csv", per_pose, spec.config_hash)
    summary = _estimation_summary(rows, failures)
    _write_summary(spec, summary)
    return summary


def _ccdf_pairs(name: str, values: list[float]) -> list[dict]:
    """The empirical CCDF of ``values``: rows of the value, as ``name``, and
    the share of values above it."""
    ordered = sorted(values)
    n = len(ordered)
    return [{name: v, "ccdf": (n - i - 1) / n} for i, v in enumerate(ordered)]


def run_ccdf(spec: ExperimentSpec) -> dict:
    """Distributions of SIR gain and capacity gain using estimated angles."""
    rows, failures = _trial_rows(spec)
    gains = [r["sir_gain_db"] for r in rows]
    ratios = [r["capacity_ratio"] for r in rows]
    _write_csv(spec.out_dir / "results.csv", rows, spec.config_hash)
    _write_csv(spec.out_dir / "ccdf_sir_gain.csv", _ccdf_pairs("sir_gain_db", gains),
               spec.config_hash)
    _write_csv(spec.out_dir / "ccdf_capacity_gain.csv",
               _ccdf_pairs("capacity_ratio", ratios), spec.config_hash)
    summary = {
        **_estimation_summary(rows, failures),
        "mean_capacity_ratio": float(np.mean(ratios)),
    }
    _write_summary(spec, summary)
    return summary


def _sweep(spec: ExperimentSpec, axis: str, counts) -> dict:
    """Run every count of axis ``p`` or ``q``; write rows, table and summary."""
    rows: list[dict] = []
    table = []
    failed: Counter = Counter()
    for value in counts:
        sel, failures = _trial_rows(replace(spec, **{axis: value}), value)
        rows.extend(sel)
        failed += failures
        stats = _estimation_summary(sel, failures)
        root_n = np.sqrt(len(sel))
        table.append({
            axis: value,
            "trials": stats["trials"],
            "mae_theta_deg": stats["mae_theta_deg"],
            "se_theta_deg": float(np.std([r["theta_err_deg"] for r in sel]) / root_n),
            "mae_phi_deg": stats["mae_phi_deg"],
            "se_phi_deg": float(np.std([r["phi_err_deg"] for r in sel]) / root_n),
            "mean_sir_gain_db": stats["mean_sir_gain_db"],
        })
    _write_csv(spec.out_dir / "results.csv", rows, spec.config_hash)
    name = spec.kind.replace("-", "_") + ".csv"
    _write_csv(spec.out_dir / name, table, spec.config_hash)
    summary = {
        "counts": list(counts),
        **{c: [row[c] for row in table] for c in table[0] if c not in (axis, "trials")},
        "trials_per_count": [row["trials"] for row in table],
        "failed_trials": failed.total(),
        "failed_by_error": dict(failed),
    }
    _write_summary(spec, summary)
    return summary


def run_subcarrier_sweep(spec: ExperimentSpec) -> dict:
    """Accuracy and SIR gain versus the number of subcarriers P."""
    return _sweep(spec, "p", spec.subcarrier_counts)


def run_antenna_sweep(spec: ExperimentSpec) -> dict:
    """Accuracy and SIR gain versus the number of antennas Q."""
    return _sweep(spec, "q", spec.antenna_counts)


def run_imi_demo(spec: ExperimentSpec) -> dict:
    """Aligned / tilted / corrected inter-modal power matrices."""
    scenario = spec.scenario
    modes = spec.demo_modes
    r = scenario.pose.distance_m
    tilted = RxPose.from_tilt(r, np.deg2rad(spec.demo_tilt_deg), 0.0)
    poses = [RxPose.from_tilt(r, 0.0, 0.0), tilted, tilted]
    angles = [pose_angles(pose) for pose in poses]
    # Aligned and tilted aimed at (0, 0) (no mask), then tilted at its true angles.
    aims = [[(0.0, 0.0)], [(0.0, 0.0)], [angles[2][:2]]]
    power = imi_matrices(scenario, poses, angles, modes, aims, spec.model)[:, 0]
    dominance = sir(power, modes)[0].min(axis=-1)
    for label, matrix in zip(("aligned", "misaligned", "corrected"), power):
        # Rows are decoded modes, columns transmitted modes.
        _write_csv(
            spec.out_dir / f"imi_{label}.csv",
            ({"decoded\\transmitted": l, **dict(zip(modes, row))}
             for l, row in zip(modes, matrix)),
            spec.config_hash,
        )

    diag_al, diag_ti, diag_co = 10.0 * np.log10(np.diagonal(power, axis1=-2, axis2=-1))
    summary = {
        "modes": list(modes),
        "tilt_deg": spec.demo_tilt_deg,
        "aligned_min_dominance_db": dominance[0],
        "misaligned_min_dominance_db": dominance[1],
        "corrected_min_dominance_db": dominance[2],
        "misaligned_max_diag_drop_db": float(np.max(diag_al - diag_ti)),
        "corrected_max_diag_gap_db": float(np.max(np.abs(diag_al - diag_co))),
    }
    _write_summary(spec, summary)
    return summary


def validate_model(spec: ExperimentSpec) -> dict:
    """Exact oracle versus far-field model across rings, modes, and poses."""
    scenario = spec.scenario
    k = wavenumber(scenario.carrier_hz)
    r = scenario.pose.distance_m
    modes = spec.validate_modes
    corr_rows = []
    phase_lists = []  # (pose, ring, interleaved exact and model phases by mode)
    for pose_idx, (ry, rx_deg) in enumerate(spec.poses):
        pose = RxPose.from_tilt(r, np.deg2rad(ry), np.deg2rad(rx_deg))
        angles = pose_angles(pose)
        theta_t, phi_t, _ = angles
        for ring_idx, ring in enumerate(spec.rings):
            ring_scenario = replace(scenario, rx=ring)
            exact_all, model_all = (
                trial_signals(ring_scenario, [pose], [angles], modes, [[k]], name)[0, ..., 0].T
                for name in ("exact", "farfield")
            )
            phases = np.stack([np.angle(exact_all), np.angle(model_all)], axis=-1)
            phase_lists.append((pose_idx, ring_idx, phases.reshape(len(modes), -1).tolist()))
            for mode, exact, model in zip(modes, exact_all, model_all):
                # A mode that the model or the oracle gives no power matches nothing.
                norms = np.linalg.norm(exact) * np.linalg.norm(model)
                corr = abs(np.vdot(exact, model)) / norms if norms > 0 else 0.0
                # Phase error after removing the common (bulk) offset.
                cross = exact * np.conj(model)
                phase_err = np.angle(np.exp(1j * (np.angle(cross) - np.angle(np.sum(cross)))))
                corr_rows.append({
                    "pose_index": pose_idx,
                    "theta_true_deg": float(np.rad2deg(theta_t)),
                    "phi_true_deg": float(np.rad2deg(phi_t)),
                    "ring_index": ring_idx,
                    "ring_radius_m": ring.radius_m,
                    "ring_elements": ring.n_elements,
                    "mode": mode,
                    "correlation": float(corr),
                    "max_centered_phase_err_rad": float(np.max(np.abs(phase_err))),
                })
    _write_csv(spec.out_dir / "validate_correlations.csv", corr_rows, spec.config_hash)
    header = ("pose_index", "ring_index", "mode", "antenna", "azimuth_deg",
              "exact_phase_rad", "model_phase_rad")
    _write_lines(spec.out_dir / "validate_phases.csv", header,
                 _phase_blocks(spec.rings, modes, phase_lists), spec.config_hash)
    aperture = max(scenario.tx.radius_m, *(ring.radius_m for ring in spec.rings))
    summary = {
        "min_correlation": min(row["correlation"] for row in corr_rows),
        "farfield_marginal": bool(r < FARFIELD_WARN_FACTOR * aperture),
        "rings": [[ring.radius_m, ring.n_elements] for ring in spec.rings],
        "modes": list(modes),
    }
    _write_summary(spec, summary)
    return summary


def _phase_blocks(rings, modes, phase_lists):
    """``validate_phases.csv``'s rows as one string per (pose, ring, mode) block.

    A block is one %-template, with its ring's ``antenna,azimuth_deg,`` cells
    formatted once, filled with its (exact, model) phase pairs; floats are
    ``%.12g``, as ``_write_csv`` writes them."""
    ring_rows = [["%d,%.12g,%%.12g,%%.12g\r\n" % cell
                  for cell in enumerate(np.rad2deg(ring.element_azimuths).tolist())]
                 for ring in rings]
    for pose_idx, ring_idx, pairs_by_mode in phase_lists:
        for mode, pairs in zip(modes, pairs_by_mode):
            prefix = f"{pose_idx},{ring_idx},{mode},"
            # The prefix opens the block and every row after its first.
            yield (prefix + prefix.join(ring_rows[ring_idx])) % tuple(pairs)


RUNNERS = {
    "angle-sweep": run_angle_sweep,
    "ccdf": run_ccdf,
    "subcarrier-sweep": run_subcarrier_sweep,
    "antenna-sweep": run_antenna_sweep,
    "imi-demo": run_imi_demo,
    "validate-model": validate_model,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vortex-align", description="Misaligned OAM link "
                                     "simulator and alignment experiments")
    parser.add_argument("kind", choices=RUNNERS, help="experiment to run")
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", default="vortex_results", help="output directory")
    parser.add_argument("--trials", type=int, help="trials per pose/point")
    parser.add_argument("--snr-db", type=float, help="per-sample SNR in dB")
    parser.add_argument("--model", choices=["exact", "farfield"], help="channel model")
    args = parser.parse_args(argv)

    try:
        spec = load_spec(args.kind, config_path=args.config, out_dir=args.out, seed=args.seed,
                         trials=args.trials, snr_db=args.snr_db, model=args.model)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = RUNNERS[spec.kind](spec)
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(json.dumps({"kind": spec.kind, "out": str(spec.out_dir), **summary},
                     sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
