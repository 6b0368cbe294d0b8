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
import json
import sys
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import NoiseSpec, received_signals, simulate_measurement, wavenumber
from .correction import (
    ImiMatrix,
    ZeroSignalError,
    capacity,
    check_decodable,
    imi_matrices,
    phase_mask,
    sir,
)
from .estimator import (
    EstimationConfig,
    NoPowerError,
    ZeroPowerError,
    estimate,
    select_antennas,
)
from .geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    misalignment_angles,
    tilt_for_angles,
)

EXPERIMENT_KINDS = (
    "angle-sweep",
    "ccdf",
    "subcarrier-sweep",
    "antenna-sweep",
    "imi-demo",
    "validate-model",
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


BASE_DEFAULTS: dict = {
    "scenario": {
        "tx": {"n": 160, "radius_m": 0.03},
        "rx": {"n": 20, "radius_m": 0.008},
        "distance_m": 0.4,
        "carrier_hz": 120e9,
        "subcarriers": {"start_hz": 119.5e9, "step_hz": 10e6, "count": 71},
    },
    "poses": None,  # filled per kind
    "estimation": {
        "modes": [-1, 1],
        "q": 6,
        "p": 1,
        "weighting": "amplitude",
        "grid_deg": [3.0, 3.0],
        "tol": 1e-10,
        "max_iter": 200,
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

# Only what differs from BASE_DEFAULTS; nested dicts merge into it.
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
    weighting: str
    grid_deg: tuple[float, float]
    refine_tol: float
    refine_max_iter: int
    subcarrier_counts: tuple[int, ...]
    antenna_counts: tuple[int, ...]
    demo_tilt_deg: float
    demo_modes: tuple[int, ...]
    rings: tuple[tuple[float, int], ...]
    validate_modes: tuple[int, ...]
    config_hash: str


@dataclass
class ResultRow:
    """One estimation trial: ground truth, estimate, errors, and gains."""

    kind: str
    point_index: int
    trial_index: int
    trial_seed: int
    p: int
    q: int
    u: int
    theta_true_deg: float
    phi_true_deg: float
    theta_est_deg: float
    phi_est_deg: float
    theta_err_deg: float
    phi_err_deg: float
    residual: float
    sir_before_db: float
    sir_after_db: float
    sir_gain_db: float
    sir_gain_true_db: float
    capacity_before: float
    capacity_after: float
    capacity_ratio: float

    def as_list(self) -> list:
        return [getattr(self, name) for name in self.FIELDS]


ResultRow.FIELDS = tuple(f.name for f in fields(ResultRow))


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def _resolve_config(kind: str, user: dict | None, overrides: dict) -> dict:
    defaults = json.loads(json.dumps(BASE_DEFAULTS))
    for key, value in KIND_DEFAULTS.get(kind, {}).items():
        if isinstance(value, dict) and isinstance(defaults.get(key), dict):
            defaults[key] = _merge(defaults[key], value)
        else:
            defaults[key] = json.loads(json.dumps(value))
    if defaults.get("poses") is None:
        defaults["poses"] = _default_pose_grid()
    merged = _merge(defaults, user or {})
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "snr_db":
            merged["noise"]["snr_db"] = value
        else:
            merged[key] = value
    merged["kind"] = kind
    return merged


def load_spec(
    kind: str,
    config_path: str | None = None,
    out_dir: str = "vortex_results",
    seed: int | None = None,
    trials: int | None = None,
    snr_db: float | None = None,
    model: str | None = None,
) -> ExperimentSpec:
    """Build an ExperimentSpec from defaults, a JSON config, and overrides."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    user = None
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
    merged = _resolve_config(
        kind, user, {"seed": seed, "trials": trials, "snr_db": snr_db, "model": model}
    )
    return _spec_from_dict(merged, out_dir)


def _spec_from_dict(cfg: dict, out_dir: str) -> ExperimentSpec:
    kind = cfg["kind"]
    try:
        sc = cfg["scenario"]
        sub = sc["subcarriers"]
        subcarriers = sub["start_hz"] + sub["step_hz"] * np.arange(int(sub["count"]))
        tx = UcaGeometry(int(sc["tx"]["n"]), float(sc["tx"]["radius_m"]))
        rx = UcaGeometry(int(sc["rx"]["n"]), float(sc["rx"]["radius_m"]))
        poses = [
            (float(p["rot_y_deg"]), float(p["rot_x_deg"])) for p in cfg["poses"]
        ]
        if not poses:
            raise ConfigError("pose grid must be nonempty")
        first_pose = RxPose.from_tilt(
            float(sc["distance_m"]),
            np.deg2rad(poses[0][0]),
            np.deg2rad(poses[0][1]),
        )
        scenario = Scenario(
            tx=tx,
            rx=rx,
            pose=first_pose,
            carrier_hz=float(sc["carrier_hz"]),
            subcarriers_hz=subcarriers,
        )
        est = cfg["estimation"]
        trials = int(cfg["trials"])
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        noise = cfg["noise"]
        snr_db = None if noise["snr_db"] is None else float(noise["snr_db"])
        if cfg["model"] not in ("exact", "farfield"):
            raise ConfigError(f"unknown model {cfg['model']!r}")
        spec = ExperimentSpec(
            kind=kind,
            scenario=scenario,
            poses=poses,
            trials=trials,
            master_seed=int(cfg["seed"]),
            out_dir=Path(out_dir),
            model=cfg["model"],
            snr_db=snr_db,
            modes=tuple(int(l) for l in est["modes"]),
            q=int(est["q"]),
            p=int(est["p"]),
            weighting=str(est["weighting"]),
            grid_deg=tuple(float(g) for g in est["grid_deg"]),
            refine_tol=float(est["tol"]),
            refine_max_iter=int(est["max_iter"]),
            subcarrier_counts=tuple(int(x) for x in cfg["subcarrier_counts"]),
            antenna_counts=tuple(int(x) for x in cfg["antenna_counts"]),
            demo_tilt_deg=float(cfg["demo_tilt_deg"]),
            demo_modes=tuple(int(l) for l in cfg["demo_modes"]),
            rings=tuple(
                (float(r["radius_m"]), int(r["n"])) for r in cfg["rings"]
            ),
            validate_modes=tuple(int(l) for l in cfg["validate_modes"]),
            config_hash=hashlib.sha256(
                json.dumps(cfg, sort_keys=True).encode()
            ).hexdigest()[:16],
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    _validate_spec(spec)
    return spec


def _validate_spec(spec: ExperimentSpec) -> None:
    for ry, rx_deg in spec.poses:
        pose = RxPose.from_tilt(
            spec.scenario.pose.distance_m, np.deg2rad(ry), np.deg2rad(rx_deg)
        )
        theta, _ = misalignment_angles(pose)
        if theta >= np.pi / 2:
            raise ConfigError(
                f"pose (rot_y={ry} deg, rot_x={rx_deg} deg) turns the receiver "
                "away from the transmitter"
            )
    if spec.p > len(spec.scenario.subcarriers_hz):
        raise ConfigError("p exceeds the scenario subcarrier count")
    if len(spec.modes) < 2:
        raise ConfigError("estimation needs at least two modes")
    try:
        if spec.kind == "imi-demo":
            check_decodable(spec.demo_modes, spec.scenario.rx.n_elements)
        elif spec.kind != "validate-model":
            qs = spec.antenna_counts if spec.kind == "antenna-sweep" else (spec.q,)
            for q in qs:
                _estimation_config(spec, q, spec.scenario.subcarriers_hz)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _estimation_config(spec: ExperimentSpec, q: int, subcarriers) -> EstimationConfig:
    """The estimator settings of ``spec`` for ``q`` antennas and ``subcarriers``."""
    return EstimationConfig(
        modes=spec.modes,
        antennas=tuple(select_antennas(spec.scenario.rx.n_elements, q)),
        subcarriers_hz=tuple(subcarriers),
        weighting=spec.weighting,
        grid_deg=spec.grid_deg,
        refine_tol=spec.refine_tol,
        refine_max_iter=spec.refine_max_iter,
    )


def trial_seed(master_seed: int, *indices: int) -> int:
    """Deterministic per-trial seed over (master seed, *indices).

    Distinct index tuples of one length give distinct seeds; ``SeedSequence``
    pads with zeros, so ``(a, b)`` and ``(a, b, 0)`` give the same seed.
    """
    seq = np.random.SeedSequence([int(master_seed), *(int(i) for i in indices)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _circular_err_deg(a_deg: float, b_deg: float) -> float:
    return abs(
        float(np.rad2deg(np.angle(np.exp(1j * np.deg2rad(a_deg - b_deg)))))
    )


def _run_trial(
    spec: ExperimentSpec,
    pose: RxPose,
    point_index: int,
    trial_index: int,
    seed: int,
    p: int,
    q: int,
) -> ResultRow:
    scenario = spec.scenario
    rng = np.random.default_rng(seed)
    pool = scenario.subcarriers_hz
    if p >= len(pool):
        subcarriers = np.asarray(pool, dtype=float)
    else:
        subcarriers = np.sort(rng.choice(pool, size=p, replace=False))
    noise = NoiseSpec(snr_db=spec.snr_db, seed=seed)
    tensor = simulate_measurement(
        scenario, pose, spec.modes, subcarriers, noise, spec.model
    )
    est = estimate(tensor, scenario, _estimation_config(spec, q, subcarriers))
    theta_t, phi_t = misalignment_angles(pose)

    k_c = wavenumber(scenario.carrier_hz)
    masks = [
        None,
        phase_mask(est.theta, est.phi, k_c, scenario.rx),
        phase_mask(theta_t, phi_t, k_c, scenario.rx),
    ]
    before, after, after_true = imi_matrices(
        scenario, pose, spec.modes, spec.modes, masks, spec.model, k_c
    )
    sir_before = sir(before)[1]
    sir_after = sir(after)[1]
    cap_before = capacity(before)
    cap_after = capacity(after)
    return ResultRow(
        kind=spec.kind,
        point_index=point_index,
        trial_index=trial_index,
        trial_seed=seed,
        p=p,
        q=q,
        u=len(spec.modes),
        theta_true_deg=float(np.rad2deg(theta_t)),
        phi_true_deg=float(np.rad2deg(phi_t)),
        theta_est_deg=float(np.rad2deg(est.theta)),
        phi_est_deg=float(np.rad2deg(est.phi)),
        theta_err_deg=abs(float(np.rad2deg(est.theta - theta_t))),
        phi_err_deg=_circular_err_deg(
            float(np.rad2deg(est.phi)), float(np.rad2deg(phi_t))
        ),
        residual=est.residual,
        sir_before_db=sir_before,
        sir_after_db=sir_after,
        sir_gain_db=sir_after - sir_before,
        sir_gain_true_db=sir(after_true)[1] - sir_before,
        capacity_before=cap_before,
        capacity_after=cap_after,
        capacity_ratio=cap_after / cap_before,
    )


def _pose_from_grid(spec: ExperimentSpec, index: int) -> RxPose:
    ry, rx_deg = spec.poses[index]
    return RxPose.from_tilt(
        spec.scenario.pose.distance_m, np.deg2rad(ry), np.deg2rad(rx_deg)
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list], spec_hash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# spec_hash={spec_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_results(spec: ExperimentSpec, rows: list[ResultRow]) -> None:
    _write_csv(
        spec.out_dir / "results.csv",
        list(ResultRow.FIELDS),
        [r.as_list() for r in rows],
        spec.config_hash,
    )


def _write_summary(spec: ExperimentSpec, summary: dict) -> None:
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"kind": spec.kind, "spec_hash": spec.config_hash, **summary}
    with open(spec.out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The failures a noise draw can cause; any other error is a fault of the
# setup or the code, and ends the run.
NOISE_FAILURES = (ZeroPowerError, NoPowerError, ZeroSignalError)


def _trial_rows(
    spec: ExperimentSpec, p: int, q: int, value: int | None = None
) -> tuple[list[ResultRow], Counter]:
    """Every pose x trial at (p, q); a sweep's axis ``value`` joins the seed.

    Returns the completed rows and the failed trials per exception class.
    """
    axis_value = () if value is None else (value,)
    rows: list[ResultRow] = []
    failures: Counter = Counter()
    for point in range(len(spec.poses)):
        pose = _pose_from_grid(spec, point)
        for t in range(spec.trials):
            seed = trial_seed(spec.master_seed, *axis_value, point, t)
            try:
                rows.append(_run_trial(spec, pose, point, t, seed, p, q))
            except NOISE_FAILURES as exc:
                failures[type(exc).__name__] += 1
                last = exc
    if not rows:
        total = failures.total()
        raise RuntimeError(f"all {total} trials failed; last: {last!r}") from last
    return rows, failures


def _estimation_summary(rows: list[ResultRow], failures: Counter) -> dict:
    """Accuracy, mean SIR gains and trial counts of completed ``rows``."""
    return {
        "mae_theta_deg": float(np.mean([r.theta_err_deg for r in rows])),
        "mae_phi_deg": float(np.mean([r.phi_err_deg for r in rows])),
        "mean_sir_gain_db": float(np.mean([r.sir_gain_db for r in rows])),
        "mean_sir_gain_true_db": float(np.mean([r.sir_gain_true_db for r in rows])),
        "trials": len(rows),
        "failed_trials": failures.total(),
        "failed_by_error": dict(failures),
    }


def run_angle_sweep(spec: ExperimentSpec) -> dict:
    """Estimate every pose; report per-pose statistics and overall MAEs."""
    rows, failures = _trial_rows(spec, spec.p, spec.q)
    per_pose = []
    for point in range(len(spec.poses)):
        sel = [r for r in rows if r.point_index == point]
        if not sel:
            continue
        per_pose.append(
            [
                point,
                sel[0].theta_true_deg,
                sel[0].phi_true_deg,
                float(np.mean([r.theta_est_deg for r in sel])),
                float(np.std([r.theta_est_deg for r in sel])),
                float(np.mean([r.phi_est_deg for r in sel])),
                float(np.std([r.phi_est_deg for r in sel])),
            ]
        )
    _write_results(spec, rows)
    _write_csv(
        spec.out_dir / "angle_sweep_curve.csv",
        [
            "point_index",
            "theta_true_deg",
            "phi_true_deg",
            "theta_est_mean_deg",
            "theta_est_std_deg",
            "phi_est_mean_deg",
            "phi_est_std_deg",
        ],
        per_pose,
        spec.config_hash,
    )
    summary = _estimation_summary(rows, failures)
    _write_summary(spec, summary)
    return summary


def _ccdf_pairs(values: list[float]) -> list[list[float]]:
    ordered = sorted(values)
    n = len(ordered)
    return [[v, (n - i - 1) / n] for i, v in enumerate(ordered)]


def run_ccdf(spec: ExperimentSpec) -> dict:
    """Distributions of SIR gain and capacity gain using estimated angles."""
    rows, failures = _trial_rows(spec, spec.p, spec.q)
    gains = [r.sir_gain_db for r in rows]
    ratios = [r.capacity_ratio for r in rows]
    _write_results(spec, rows)
    _write_csv(
        spec.out_dir / "ccdf_sir_gain.csv",
        ["sir_gain_db", "ccdf"],
        _ccdf_pairs(gains),
        spec.config_hash,
    )
    _write_csv(
        spec.out_dir / "ccdf_capacity_gain.csv",
        ["capacity_ratio", "ccdf"],
        _ccdf_pairs(ratios),
        spec.config_hash,
    )
    summary = {
        **_estimation_summary(rows, failures),
        "mean_capacity_ratio": float(np.mean(ratios)),
    }
    _write_summary(spec, summary)
    return summary


def _sweep(spec: ExperimentSpec, axis: str, counts, limit: int) -> dict:
    """Run every count of axis ``p`` or ``q``; write rows, table and summary."""
    if not counts or min(counts) < 1 or max(counts) > limit:
        raise ConfigError(f"{spec.kind} counts must lie in 1..{limit}, got {counts}")
    rows: list[ResultRow] = []
    table = []
    failed: Counter = Counter()
    for value in counts:
        p = value if axis == "p" else spec.p
        q = value if axis == "q" else spec.q
        sel, failures = _trial_rows(spec, p, q, value)
        rows.extend(sel)
        failed += failures
        n = len(sel)
        eth = [r.theta_err_deg for r in sel]
        eph = [r.phi_err_deg for r in sel]
        table.append(
            [
                value,
                n,
                float(np.mean(eth)),
                float(np.std(eth) / np.sqrt(n)),
                float(np.mean(eph)),
                float(np.std(eph) / np.sqrt(n)),
                float(np.mean([r.sir_gain_db for r in sel])),
            ]
        )
    _write_results(spec, rows)
    header = [
        axis,
        "trials",
        "mae_theta_deg",
        "se_theta_deg",
        "mae_phi_deg",
        "se_phi_deg",
        "mean_sir_gain_db",
    ]
    name = spec.kind.replace("-", "_") + ".csv"
    _write_csv(spec.out_dir / name, header, table, spec.config_hash)
    summary = {
        "counts": list(counts),
        "mae_theta_deg": [row[2] for row in table],
        "se_theta_deg": [row[3] for row in table],
        "mae_phi_deg": [row[4] for row in table],
        "se_phi_deg": [row[5] for row in table],
        "mean_sir_gain_db": [row[6] for row in table],
        "trials_per_count": [row[1] for row in table],
        "failed_trials": failed.total(),
        "failed_by_error": dict(failed),
    }
    _write_summary(spec, summary)
    return summary


def run_subcarrier_sweep(spec: ExperimentSpec) -> dict:
    """Accuracy and SIR gain versus the number of subcarriers P."""
    return _sweep(spec, "p", spec.subcarrier_counts, len(spec.scenario.subcarriers_hz))


def run_antenna_sweep(spec: ExperimentSpec) -> dict:
    """Accuracy and SIR gain versus the number of antennas Q."""
    return _sweep(spec, "q", spec.antenna_counts, spec.scenario.rx.n_elements)


def _diag_db(imi: ImiMatrix) -> dict[int, float]:
    return {
        l: 10.0 * np.log10(imi.entry(l, l)) for l in imi.transmitted_modes
    }


def run_imi_demo(spec: ExperimentSpec) -> dict:
    """Aligned / tilted / corrected inter-modal power matrices."""
    scenario = spec.scenario
    modes = spec.demo_modes
    k = wavenumber(scenario.carrier_hz)
    r = scenario.pose.distance_m
    aligned_pose = RxPose.from_tilt(r, 0.0, 0.0)
    tilted_pose = RxPose.from_tilt(r, np.deg2rad(spec.demo_tilt_deg), 0.0)
    theta_t, phi_t = misalignment_angles(tilted_pose)

    aligned = imi_matrices(
        scenario, aligned_pose, modes, modes, [None], spec.model, k
    )[0]
    tilted, corrected = imi_matrices(
        scenario,
        tilted_pose,
        modes,
        modes,
        [None, phase_mask(theta_t, phi_t, k, scenario.rx)],
        spec.model,
        k,
    )
    matrices = {"aligned": aligned, "misaligned": tilted, "corrected": corrected}
    for label, imi in matrices.items():
        # Rows are decoded modes, columns transmitted modes.
        _write_csv(
            spec.out_dir / f"imi_{label}.csv",
            ["decoded\\transmitted", *imi.transmitted_modes],
            [[l, *row] for l, row in zip(imi.decoded_modes, imi.power)],
            spec.config_hash,
        )

    diag_al = _diag_db(aligned)
    diag_ti = _diag_db(tilted)
    diag_co = _diag_db(corrected)
    dominance = {label: sir(m)[0] for label, m in matrices.items()}
    summary = {
        "modes": list(modes),
        "tilt_deg": spec.demo_tilt_deg,
        "aligned_min_dominance_db": min(dominance["aligned"].values()),
        "misaligned_min_dominance_db": min(dominance["misaligned"].values()),
        "corrected_min_dominance_db": min(dominance["corrected"].values()),
        "misaligned_max_diag_drop_db": max(
            diag_al[l] - diag_ti[l] for l in modes
        ),
        "corrected_max_diag_gap_db": max(
            abs(diag_al[l] - diag_co[l]) for l in modes
        ),
    }
    _write_summary(spec, summary)
    return summary


def validate_model(spec: ExperimentSpec) -> dict:
    """Exact oracle versus far-field model across rings, modes, and poses."""
    scenario = spec.scenario
    k = wavenumber(scenario.carrier_hz)
    r = scenario.pose.distance_m
    modes = spec.validate_modes
    if not modes:
        raise ConfigError("validate_modes must be nonempty")
    rings = spec.rings or ((scenario.rx.radius_m, scenario.rx.n_elements),)
    corr_rows = []
    phase_rows = []
    min_corr = 1.0
    for pose_idx, (ry, rx_deg) in enumerate(spec.poses):
        pose = RxPose.from_tilt(r, np.deg2rad(ry), np.deg2rad(rx_deg))
        theta_t, phi_t = misalignment_angles(pose)
        for ring_idx, (radius, count) in enumerate(rings):
            ring = UcaGeometry(count, radius)
            ring_scenario = Scenario(
                tx=scenario.tx,
                rx=ring,
                pose=pose,
                carrier_hz=scenario.carrier_hz,
                subcarriers_hz=np.array([scenario.carrier_hz]),
            )
            exact_fields = received_signals(ring_scenario, pose, modes, [k], "exact")
            model_fields = received_signals(ring_scenario, pose, modes, [k], "farfield")
            for mode, exact, model in zip(
                modes, exact_fields[:, :, 0].T, model_fields[:, :, 0].T
            ):
                corr = abs(np.vdot(exact, model)) / (
                    np.linalg.norm(exact) * np.linalg.norm(model)
                )
                min_corr = min(min_corr, float(corr))
                # Phase error after removing the common (bulk) offset.
                phase_err = np.angle(exact * np.conj(model))
                phase_err -= np.angle(np.sum(exact * np.conj(model)))
                phase_err = np.angle(np.exp(1j * phase_err))
                corr_rows.append(
                    [
                        pose_idx,
                        float(np.rad2deg(theta_t)),
                        float(np.rad2deg(phi_t)),
                        ring_idx,
                        radius,
                        count,
                        mode,
                        float(corr),
                        float(np.max(np.abs(phase_err))),
                    ]
                )
                az = ring.element_azimuths
                for m_idx in range(count):
                    phase_rows.append(
                        [
                            pose_idx,
                            ring_idx,
                            mode,
                            m_idx,
                            float(np.rad2deg(az[m_idx])),
                            float(np.angle(exact[m_idx])),
                            float(np.angle(model[m_idx])),
                        ]
                    )
    _write_csv(
        spec.out_dir / "validate_correlations.csv",
        [
            "pose_index",
            "theta_true_deg",
            "phi_true_deg",
            "ring_index",
            "ring_radius_m",
            "ring_elements",
            "mode",
            "correlation",
            "max_centered_phase_err_rad",
        ],
        corr_rows,
        spec.config_hash,
    )
    _write_csv(
        spec.out_dir / "validate_phases.csv",
        [
            "pose_index",
            "ring_index",
            "mode",
            "antenna",
            "azimuth_deg",
            "exact_phase_rad",
            "model_phase_rad",
        ],
        phase_rows,
        spec.config_hash,
    )
    aperture = max(
        scenario.tx.radius_m, max(radius for radius, _count in rings)
    )
    summary = {
        "min_correlation": min_corr,
        "farfield_marginal": bool(r < 100.0 * aperture),
        "rings": [[radius, count] for radius, count in rings],
        "modes": list(modes),
    }
    _write_summary(spec, summary)
    return summary


RUNNERS = {
    "angle-sweep": run_angle_sweep,
    "ccdf": run_ccdf,
    "subcarrier-sweep": run_subcarrier_sweep,
    "antenna-sweep": run_antenna_sweep,
    "imi-demo": run_imi_demo,
    "validate-model": validate_model,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortex-align",
        description="Misaligned OAM link simulator and alignment experiments",
    )
    parser.add_argument("kind", choices=EXPERIMENT_KINDS, help="experiment to run")
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", default="vortex_results", help="output directory")
    parser.add_argument("--trials", type=int, help="trials per pose/point")
    parser.add_argument("--snr-db", type=float, help="per-sample SNR in dB")
    parser.add_argument("--model", choices=["exact", "farfield"], help="channel model")
    args = parser.parse_args(argv)

    try:
        spec = load_spec(
            args.kind,
            config_path=args.config,
            out_dir=args.out,
            seed=args.seed,
            trials=args.trials,
            snr_db=args.snr_db,
            model=args.model,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = RUNNERS[spec.kind](spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(json.dumps({"kind": spec.kind, "out": str(spec.out_dir), **summary},
                     sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
