import csv
import json

import numpy as np
import pytest

from vortex_align import harness
from vortex_align.channel import wavenumber
from vortex_align.correction import imi_matrices
from vortex_align.estimator import NoPowerError, ZeroPowerError
from vortex_align.geometry import RxPose
from vortex_align.harness import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ResultRow,
    _ccdf_pairs,
    load_spec,
    main,
    run_angle_sweep,
    run_ccdf,
    run_imi_demo,
    run_subcarrier_sweep,
    trial_seed,
    validate_model,
)


def tiny_config(tmp_path, **extra):
    cfg = {
        "poses": [{"rot_y_deg": 25.0, "rot_x_deg": 18.0}],
        "trials": 1,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def failing_every_other_call():
    """An ``estimate`` stand-in whose even calls raise a noise failure.

    The failures alternate between ``NoPowerError`` and ``ZeroPowerError``.
    """
    calls = []
    real_estimate = harness.estimate

    def estimate(*args):
        calls.append(None)
        if len(calls) % 4 == 2:
            raise NoPowerError("all selected antennas are below the power floor")
        if len(calls) % 4 == 0:
            raise ZeroPowerError("cross-modal accumulator vanished")
        return real_estimate(*args)

    return estimate


class TestLoadSpec:
    def test_defaults(self, tmp_path):
        spec = load_spec("angle-sweep", out_dir=str(tmp_path))
        assert spec.scenario.tx.n_elements == 160
        assert spec.scenario.rx.n_elements == 20
        assert len(spec.poses) == 15
        assert spec.trials == 50
        assert spec.snr_db == 25.0
        assert spec.modes == (-1, 1)
        assert len(spec.config_hash) == 16

    def test_config_overrides(self, tmp_path):
        path = tiny_config(tmp_path, trials=3, noise={"snr_db": 12.0})
        spec = load_spec("angle-sweep", config_path=path, out_dir=str(tmp_path))
        assert spec.trials == 3
        assert spec.snr_db == 12.0
        assert len(spec.poses) == 1

    def test_cli_overrides_win(self, tmp_path):
        path = tiny_config(tmp_path, trials=3)
        spec = load_spec("angle-sweep", config_path=path, out_dir=str(tmp_path),
                         trials=9, snr_db=None, seed=123)
        assert spec.trials == 9
        assert spec.master_seed == 123

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tyops": 1}))
        with pytest.raises(ConfigError):
            load_spec("angle-sweep", config_path=str(path))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_spec("beam-scan")

    def test_rejects_back_facing_pose(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg["poses"] = [{"rot_y_deg": 120.0, "rot_x_deg": 0.0}]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="away"):
            load_spec("angle-sweep", config_path=path)

    def test_rejects_bad_trials(self, tmp_path):
        path = tiny_config(tmp_path, trials=0)
        with pytest.raises(ConfigError):
            load_spec("angle-sweep", config_path=path)

    def test_rejects_p_beyond_grid(self, tmp_path):
        path = tiny_config(tmp_path, estimation={"p": 100})
        with pytest.raises(ConfigError):
            load_spec("angle-sweep", config_path=path)

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = load_spec("angle-sweep", out_dir=str(tmp_path))
        b = load_spec("angle-sweep", out_dir=str(tmp_path / "elsewhere"))
        c = load_spec("angle-sweep", out_dir=str(tmp_path), seed=1)
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash


class TestSeeds:
    def test_deterministic(self):
        assert trial_seed(42, 3, 7) == trial_seed(42, 3, 7)

    def test_no_collisions(self):
        seeds = {
            trial_seed(42, point, t)
            for point in range(40)
            for t in range(60)
        }
        assert len(seeds) == 40 * 60

    def test_sweep_seeds_and_point_index(self, tmp_path):
        poses = [{"rot_y_deg": 25.0, "rot_x_deg": 18.0},
                 {"rot_y_deg": 10.0, "rot_x_deg": -30.0}]
        path = tiny_config(tmp_path, poses=poses, trials=2, subcarrier_counts=[1, 2])
        spec = load_spec("subcarrier-sweep", config_path=path,
                         out_dir=str(tmp_path / "out"), seed=7)
        run_subcarrier_sweep(spec)
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(poses) * 2
        assert {int(r["point_index"]) for r in rows} <= set(range(len(poses)))
        assert len({r["trial_seed"] for r in rows}) == len(rows)
        for r in rows:
            assert int(r["trial_seed"]) == trial_seed(
                7, int(r["p"]), int(r["point_index"]), int(r["trial_index"])
            )


class TestCcdf:
    def test_step_function_on_identical_values(self):
        pairs = _ccdf_pairs([5.0, 5.0, 5.0])
        assert pairs == [[5.0, 2 / 3], [5.0, 1 / 3], [5.0, 0.0]]

    def test_sorted_output(self):
        pairs = _ccdf_pairs([3.0, 1.0, 2.0])
        assert [p[0] for p in pairs] == [1.0, 2.0, 3.0]
        assert [p[1] for p in pairs] == [2 / 3, 1 / 3, 0.0]


class TestRunners:
    def test_angle_sweep_outputs(self, tmp_path):
        path = tiny_config(tmp_path, noise={"snr_db": None})
        spec = load_spec("angle-sweep", config_path=path,
                         out_dir=str(tmp_path / "out"), seed=3)
        summary = run_angle_sweep(spec)
        assert summary["mae_theta_deg"] < 0.1
        assert summary["mae_phi_deg"] < 0.1
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results[0] == f"# spec_hash={spec.config_hash}"
        assert results[1].split(",") == list(ResultRow.FIELDS)
        assert len(results) == 3
        assert (tmp_path / "out" / "angle_sweep_curve.csv").exists()
        saved = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert saved["spec_hash"] == spec.config_hash

    def test_determinism_byte_identical(self, tmp_path):
        path = tiny_config(tmp_path, noise={"snr_db": 15.0})
        outputs = []
        for name in ("a", "b"):
            spec = load_spec("angle-sweep", config_path=path,
                             out_dir=str(tmp_path / name), seed=11)
            run_angle_sweep(spec)
            outputs.append({
                f.name: f.read_bytes()
                for f in sorted((tmp_path / name).iterdir())
            })
        assert outputs[0] == outputs[1]

    def test_imi_demo_summary(self, tmp_path):
        spec = load_spec("imi-demo", out_dir=str(tmp_path / "imi"))
        summary = run_imi_demo(spec)
        assert summary["aligned_min_dominance_db"] >= 30.0
        assert summary["misaligned_max_diag_drop_db"] >= 10.0
        assert summary["corrected_max_diag_gap_db"] <= 3.0
        header = "decoded\\transmitted," + ",".join(map(str, spec.demo_modes))
        for name in ("imi_aligned.csv", "imi_misaligned.csv", "imi_corrected.csv"):
            lines = (tmp_path / "imi" / name).read_text().splitlines()
            assert lines[0] == f"# spec_hash={spec.config_hash}"
            assert lines[1] == header
        # Rows are decoded modes, columns transmitted modes.
        tilted = RxPose.from_tilt(spec.scenario.pose.distance_m,
                                  np.deg2rad(spec.demo_tilt_deg), 0.0)
        [expected] = imi_matrices(spec.scenario, tilted, spec.demo_modes,
                                  spec.demo_modes, [None], spec.model,
                                  wavenumber(spec.scenario.carrier_hz))
        with open(tmp_path / "imi" / "imi_misaligned.csv", newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        assert [int(row[0]) for row in rows] == list(spec.demo_modes)
        np.testing.assert_allclose([[float(v) for v in row[1:]] for row in rows],
                                   expected.power, rtol=1e-11, atol=0.0)

    def test_subcarrier_sweep_noiseless_invariance(self, tmp_path):
        from vortex_align.harness import run_subcarrier_sweep

        cfg = {
            "poses": [{"rot_y_deg": 30.0, "rot_x_deg": 20.0}],
            "trials": 1,
            "noise": {"snr_db": None},
            "subcarrier_counts": [1, 8, 64],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        spec = load_spec("subcarrier-sweep", config_path=str(path),
                         out_dir=str(tmp_path / "out"), seed=2)
        summary = run_subcarrier_sweep(spec)
        # Cross-modal phases carry no frequency dependence, so noiseless
        # accuracy is independent of how many subcarriers are pooled.
        assert max(summary["mae_theta_deg"]) - min(summary["mae_theta_deg"]) < 1e-6
        assert max(summary["mae_phi_deg"]) - min(summary["mae_phi_deg"]) < 1e-6
        table = (tmp_path / "out" / "subcarrier_sweep.csv").read_text().splitlines()
        assert len(table) == 2 + 3  # hash line, header, one row per count
        assert [int(r.split(",")[0]) for r in table[2:]] == [1, 8, 64]

    def test_validate_model_near_field_flag(self, tmp_path):
        far = load_spec("validate-model", out_dir=str(tmp_path / "far"))
        far_summary = validate_model(far)
        cfg = {
            "scenario": {"distance_m": 1.0},
            "rings": [{"radius_m": 0.04, "n": 200}],
        }
        path = tmp_path / "near.json"
        path.write_text(json.dumps(cfg))
        near = load_spec("validate-model", config_path=str(path),
                         out_dir=str(tmp_path / "near"))
        near_summary = validate_model(near)
        assert far_summary["farfield_marginal"] is False
        assert near_summary["farfield_marginal"] is True
        assert near_summary["min_correlation"] < far_summary["min_correlation"]


class TestFailures:
    def test_farfield_violation_exits_runtime(self, tmp_path, capsys):
        # Every trial breaks the far-field bound: the run fails loudly
        # instead of exiting 0 with NaN in its summary.
        path = tiny_config(tmp_path, scenario={"distance_m": 0.2})
        code = main(["angle-sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert "aperture" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_noise_failures_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "estimate", failing_every_other_call())
        path = tiny_config(tmp_path, trials=4)
        spec = load_spec("ccdf", config_path=path, out_dir=str(tmp_path / "out"))
        summary = run_ccdf(spec)
        assert summary["trials"] == 2
        assert summary["failed_trials"] == 2
        by_error = {"NoPowerError": 1, "ZeroPowerError": 1}
        assert summary["failed_by_error"] == by_error
        written = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert written["failed_by_error"] == by_error
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(results) == 2 + 2  # hash line, header, completed trials

    # Four trials per sweep count; every second call fails, alternating
    # between the two noise failures.
    @pytest.mark.parametrize("kind, runner, failed", [
        ("angle-sweep", run_angle_sweep, 2),
        ("subcarrier-sweep", run_subcarrier_sweep, 4),
    ])
    def test_failures_counted_per_error_class(self, tmp_path, monkeypatch, kind,
                                              runner, failed):
        monkeypatch.setattr(harness, "estimate", failing_every_other_call())
        path = tiny_config(tmp_path, trials=4, subcarrier_counts=[1, 2])
        spec = load_spec(kind, config_path=path, out_dir=str(tmp_path / "out"))
        summary = runner(spec)
        assert summary["failed_trials"] == failed
        assert summary["failed_by_error"] == {
            "NoPowerError": failed // 2,
            "ZeroPowerError": failed // 2,
        }

    def test_no_failures_counted_as_empty_map(self, tmp_path):
        path = tiny_config(tmp_path, trials=1)
        spec = load_spec("ccdf", config_path=path, out_dir=str(tmp_path / "out"))
        summary = run_ccdf(spec)
        assert summary["failed_trials"] == 0
        assert summary["failed_by_error"] == {}

    def test_refine_at_theta_bound_does_not_end_run(self, tmp_path):
        # Uniform weights at 0 dB drive a cell onto the theta = 0 bound, where
        # the refine's normal matrix is singular without its damping floor
        # (default seed: point 3, trial 5).
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"estimation": {"p": 2, "weighting": "uniform"},
                                    "noise": {"snr_db": 0}}))
        out = tmp_path / "out"
        code = main(["ccdf", "--config", str(path), "--trials", "6", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] + summary["failed_trials"] == 15 * 6

    def test_no_successful_trial_exits_runtime(self, tmp_path, monkeypatch, capsys):
        def no_power(*args):
            raise NoPowerError("all selected antennas are below the power floor")

        monkeypatch.setattr(harness, "estimate", no_power)
        path = tiny_config(tmp_path, trials=2)
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert "NoPowerError" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key", [("subcarrier-sweep", "subcarrier_counts"),
                                           ("antenna-sweep", "antenna_counts"),
                                           ("validate-model", "validate_modes")])
    def test_empty_kind_list_exit_config(self, tmp_path, kind, key):
        path = tiny_config(tmp_path, **{key: []})
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind, cfg", [
        ("ccdf", {"estimation": {"q": 2}}),
        ("ccdf", {"estimation": {"q": 30}}),
        ("ccdf", {"estimation": {"weighting": "magic"}}),
        ("ccdf", {"estimation": {"grid_deg": [3]}}),
        ("ccdf", {"estimation": {"modes": [1, 1]}}),
        ("antenna-sweep", {"antenna_counts": [2, 6]}),
        ("imi-demo", {"demo_modes": [-12, 12]}),
    ])
    def test_invalid_setup_exit_config(self, tmp_path, capsys, kind, cfg):
        # Settings the estimator or the decoder would reject fail at load.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_gamma_grid_exit_config(self, tmp_path, capsys):
        # gamma is solved at every point, so a third grid step is an error.
        path = tiny_config(tmp_path, estimation={"grid_deg": [3, 3, 3]})
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "gamma is solved, no longer gridded" in capsys.readouterr().err


class TestCli:
    def test_ok_run(self, tmp_path, capsys):
        path = tiny_config(tmp_path, noise={"snr_db": None})
        code = main(["angle-sweep", "--config", path,
                     "--out", str(tmp_path / "cli"), "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out.strip())["kind"] == "angle-sweep"

    def test_config_error_exit(self, tmp_path):
        assert main(["angle-sweep", "--config", str(tmp_path / "missing.json")
                     ]) == EXIT_CONFIG

    def test_runtime_error_exit(self, tmp_path):
        # The far-field model refuses a 20 cm link: a simulation error.
        cfg = {"scenario": {"distance_m": 0.2}, "model": "farfield"}
        path = tmp_path / "farfield.json"
        path.write_text(json.dumps(cfg))
        code = main(["imi-demo", "--config", str(path),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
