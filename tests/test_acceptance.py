"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion (prints are captured without ``-s``).
"""

import json
import time

import numpy as np
import pytest

from vortex_align.channel import (
    _bessel,
    delta,
    simulate_measurement,
)
from vortex_align.correction import phase_mask
from vortex_align.estimator import EstimationConfig, estimate, select_antennas
from vortex_align.geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    misalignment_angles,
    tilt_for_angles,
)
from vortex_align.harness import (
    load_spec,
    run_angle_sweep,
    run_antenna_sweep,
    run_ccdf,
    run_imi_demo,
    run_subcarrier_sweep,
    validate_model,
)

F_CARRIER = 120e9


def _report(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail}) [{elapsed:.1f}s]")


def _poses_json(theta_deg, phi_deg):
    out = []
    for th, ph in zip(theta_deg, phi_deg):
        ry, rx = tilt_for_angles(np.deg2rad(th), np.deg2rad(ph))
        out.append({"rot_y_deg": float(np.rad2deg(ry)),
                    "rot_x_deg": float(np.rad2deg(rx))})
    return out


@pytest.fixture(scope="session")
def ensemble_run(tmp_path_factory):
    """Shared default-ensemble run used by criteria 3, 5, and 6."""
    out = tmp_path_factory.mktemp("ccdf")
    spec = load_spec("ccdf", out_dir=str(out))
    start = time.time()
    summary = run_ccdf(spec)
    summary["_elapsed"] = time.time() - start
    return summary


def test_criterion_1_model_validation(tmp_path):
    start = time.time()
    spec = load_spec("validate-model", out_dir=str(tmp_path / "vm"))
    summary = validate_model(spec)
    elapsed = time.time() - start
    ok = summary["min_correlation"] > 0.99 and elapsed < 30.0
    _report(1, "model validation", ok,
            f"min correlation {summary['min_correlation']:.6f}", elapsed)
    assert summary["min_correlation"] > 0.99
    assert elapsed < 30.0


def test_criterion_2_noiseless_recovery(tmp_path):
    start = time.time()
    cfg = {
        "poses": _poses_json(np.linspace(5.0, 70.0, 15),
                             np.linspace(-180.0, -90.0, 15)),
        "trials": 1,
        "noise": {"snr_db": None},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    spec = load_spec("angle-sweep", config_path=str(path),
                     out_dir=str(tmp_path / "out"))
    run_angle_sweep(spec)
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[2:]
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[1].split(",")
    i_th = header.index("theta_err_deg")
    i_ph = header.index("phi_err_deg")
    errors = [(float(r.split(",")[i_th]), float(r.split(",")[i_ph])) for r in rows]
    elapsed = time.time() - start
    worst = max(max(e) for e in errors)
    ok = len(errors) == 15 and worst < 0.1 and elapsed < 120.0
    _report(2, "noiseless recovery", ok, f"worst error {worst:.2e} deg", elapsed)
    assert len(errors) == 15
    assert worst < 0.1
    assert elapsed < 120.0


def test_criterion_3_accuracy_band(ensemble_run):
    mae_theta = ensemble_run["mae_theta_deg"]
    mae_phi = ensemble_run["mae_phi_deg"]
    elapsed = ensemble_run["_elapsed"]
    ok = (0.5 <= mae_theta <= 8.0 and 0.1 <= mae_phi <= 3.0
          and ensemble_run["trials"] == 750 and elapsed < 600.0)
    _report(3, "accuracy band", ok,
            f"MAE theta {mae_theta:.2f} deg, MAE phi {mae_phi:.2f} deg", elapsed)
    assert ensemble_run["trials"] == 750
    assert 0.5 <= mae_theta <= 8.0
    assert 0.1 <= mae_phi <= 3.0
    assert elapsed < 600.0


def test_criterion_4_orthogonality_restoration(tmp_path):
    start = time.time()
    spec = load_spec("imi-demo", out_dir=str(tmp_path / "imi"))
    summary = run_imi_demo(spec)
    elapsed = time.time() - start
    ok = (summary["aligned_min_dominance_db"] >= 30.0
          and summary["corrected_max_diag_gap_db"] <= 3.0
          and summary["misaligned_max_diag_drop_db"] >= 10.0
          and elapsed < 60.0)
    _report(4, "orthogonality restoration", ok,
            f"corrected gap {summary['corrected_max_diag_gap_db']:.2f} dB, "
            f"uncorrected drop {summary['misaligned_max_diag_drop_db']:.1f} dB",
            elapsed)
    assert summary["aligned_min_dominance_db"] >= 30.0
    assert summary["misaligned_max_diag_drop_db"] >= 10.0
    assert summary["corrected_max_diag_gap_db"] <= 3.0
    assert elapsed < 60.0


def test_criterion_5_sir_gain(ensemble_run):
    est_gain = ensemble_run["mean_sir_gain_db"]
    true_gain = ensemble_run["mean_sir_gain_true_db"]
    ok = est_gain >= 10.0 and true_gain >= 12.0
    _report(5, "SIR gain", ok,
            f"estimated {est_gain:.2f} dB, true {true_gain:.2f} dB",
            ensemble_run["_elapsed"])
    assert est_gain >= 10.0
    assert true_gain >= 12.0


def test_criterion_6_capacity_gain(ensemble_run):
    ratio = ensemble_run["mean_capacity_ratio"]
    ok = ratio >= 4.0
    _report(6, "capacity gain", ok, f"mean ratio {ratio:.2f}x",
            ensemble_run["_elapsed"])
    assert ratio >= 4.0


def test_criterion_7_subcarrier_trend(tmp_path):
    start = time.time()
    cfg = {
        "poses": _poses_json([20.0, 35.0, 50.0, 65.0],
                             [-160.0, -140.0, -120.0, -100.0]),
        "trials": 50,
        "noise": {"snr_db": 10.0},
        "subcarrier_counts": [1, 4, 16, 64],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    spec = load_spec("subcarrier-sweep", config_path=str(path),
                     out_dir=str(tmp_path / "out"))
    summary = run_subcarrier_sweep(spec)
    elapsed = time.time() - start
    th, se_th = summary["mae_theta_deg"], summary["se_theta_deg"]
    ph, se_ph = summary["mae_phi_deg"], summary["se_phi_deg"]
    strictly_lower = th[-1] < th[0] and ph[-1] < ph[0]
    non_increasing = all(
        th[i + 1] <= th[i] + se_th[i] and ph[i + 1] <= ph[i] + se_ph[i]
        for i in range(len(th) - 1)
    )
    ok = strictly_lower and non_increasing and elapsed < 600.0
    _report(7, "subcarrier trend", ok,
            f"MAE theta {th[0]:.2f}->{th[-1]:.2f}, phi {ph[0]:.2f}->{ph[-1]:.2f}",
            elapsed)
    assert summary["trials_per_count"][0] == 200
    assert strictly_lower
    assert non_increasing
    assert elapsed < 600.0


def test_criterion_8_antenna_trend(tmp_path):
    start = time.time()
    cfg = {
        "poses": _poses_json([20.0, 35.0, 50.0, 65.0],
                             [-160.0, -140.0, -120.0, -100.0]),
        "trials": 50,
        "noise": {"snr_db": 10.0},
        "antenna_counts": [3, 6, 9, 12],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    spec = load_spec("antenna-sweep", config_path=str(path),
                     out_dir=str(tmp_path / "out"))
    summary = run_antenna_sweep(spec)
    elapsed = time.time() - start
    th = summary["mae_theta_deg"]
    ph = summary["mae_phi_deg"]
    gains = summary["mean_sir_gain_db"]
    q12_better = th[-1] <= th[0] and ph[-1] <= ph[0]
    saturating = (th[0] - th[1]) > (th[1] - th[-1]) and (
        ph[0] - ph[1]) > (ph[1] - ph[-1])
    ok = q12_better and saturating and gains[-1] >= gains[0] and elapsed < 600.0
    _report(8, "antenna trend", ok,
            f"MAE theta {th[0]:.2f}/{th[1]:.2f}/{th[-1]:.2f} for Q=3/6/12",
            elapsed)
    assert q12_better
    assert saturating
    assert gains[-1] >= gains[0]
    assert elapsed < 600.0


def test_criterion_9_property_suite(tmp_path):
    start = time.time()

    # Bessel parity identity.
    for x in (0.5, 1.0, 5.0):
        j_m2, j_2, j_m3, j_3 = _bessel((-2, 2, -3, 3), x)
        assert np.isclose(j_m2, j_2, rtol=1e-12)
        assert np.isclose(j_m3, -j_3, rtol=1e-12)

    # Mode-phase angle trivial cases.
    assert delta(0.0, 0.7, 0.2) == pytest.approx(0.5, abs=1e-12)
    assert delta(1.0, 0.4, 0.4) == 0.0
    assert delta(np.deg2rad(60), np.deg2rad(45), 0.0) == pytest.approx(
        np.arctan(2.0))

    # Zero mask at zero elevation.
    mask = phase_mask(0.0, 1.0, 2513.0, UcaGeometry(20, 0.008))
    assert np.allclose(mask, 0.0)

    # Global-scale invariance of the estimate.
    ry, rx_tilt = tilt_for_angles(np.deg2rad(33.0), np.deg2rad(-140.0))
    pose = RxPose.from_tilt(0.4, ry, rx_tilt)
    subs = 119.5e9 + 1e7 * np.arange(71)
    scen = Scenario(UcaGeometry(160, 0.03), UcaGeometry(20, 0.008), pose,
                    F_CARRIER, subs)
    tensor = simulate_measurement(scen, pose, (-1, 1), [F_CARRIER])
    config = EstimationConfig(modes=(-1, 1),
                              antennas=tuple(select_antennas(20, 6)))
    est_a = estimate(tensor, scen, config)
    tensor.values = tensor.values * (0.3 + 2.2j)
    est_b = estimate(tensor, scen, config)
    assert abs(est_a.theta - est_b.theta) < 1e-9
    assert abs(np.angle(np.exp(1j * (est_a.phi - est_b.phi)))) < 1e-9

    # Cross-modal frequency invariance (noiseless, all subcarriers).
    full = simulate_measurement(scen, pose, (-1, 1), subs)
    prod = (full.values[:, 1, :] * np.conj(full.values[:, 0, :])) ** 2
    phases = np.angle(prod)
    spread = np.angle(np.exp(1j * (phases - phases[:, :1])))
    assert np.max(np.abs(spread)) < 1e-9

    # Determinism: same seed, byte-identical files.
    cfg = {
        "poses": _poses_json([25.0, 55.0], [-150.0, -110.0]),
        "trials": 2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("d1", "d2"):
        spec = load_spec("angle-sweep", config_path=str(path),
                         out_dir=str(tmp_path / name), seed=9)
        run_angle_sweep(spec)
        blobs.append({
            f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())
        })
    assert blobs[0] == blobs[1]

    elapsed = time.time() - start
    ok = elapsed < 60.0
    _report(9, "property suite", ok, "parity/trivials/invariance/determinism",
            elapsed)
    assert elapsed < 60.0


def test_criterion_10_near_field(tmp_path):
    start = time.time()
    thetas = [10.0, 17.0, 24.0, 31.0, 38.0, 45.0]
    phis = [-170.0, -155.0, -140.0, -125.0, -110.0, -95.0]
    cfg = {
        "poses": _poses_json(thetas, phis),
        "trials": 1,
        "noise": {"snr_db": None},
        "model": "exact",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    spec = load_spec("angle-sweep", config_path=str(path),
                     out_dir=str(tmp_path / "out"))
    assert spec.scenario.pose.distance_m == 0.4
    assert spec.scenario.rx.n_elements == 20
    assert spec.scenario.rx.radius_m == 0.008
    run_angle_sweep(spec)
    text = (tmp_path / "out" / "results.csv").read_text().splitlines()
    header = text[1].split(",")
    i_th = header.index("theta_err_deg")
    i_ph = header.index("phi_err_deg")
    errors = [(float(r.split(",")[i_th]), float(r.split(",")[i_ph]))
              for r in text[2:]]
    elapsed = time.time() - start
    worst = max(max(e) for e in errors)
    ok = worst < 2.0 and elapsed < 120.0
    _report(10, "near-field robustness", ok, f"worst error {worst:.2e} deg",
            elapsed)
    assert len(errors) == len(thetas)
    assert worst < 2.0
    assert elapsed < 120.0
