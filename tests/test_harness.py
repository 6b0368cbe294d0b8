import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from vortex_align import harness
from vortex_align.channel import (
    exact_received_signals,
    farfield_received_signal,
    pose_angles,
    wavenumber,
)
from vortex_align.correction import imi_matrices, phase_mask
from vortex_align.estimator import NoPowerError, ZeroPowerError
from vortex_align.geometry import RxPose, Scenario, UcaGeometry
from vortex_align.harness import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _ccdf_pairs,
    _write_csv,
    load_spec,
    main,
    run_angle_sweep,
    run_ccdf,
    run_imi_demo,
    run_subcarrier_sweep,
    trial_seed,
    validate_model,
)

NAN, INF = float("nan"), float("inf")


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
    """An ``estimate_trials`` stand-in that fails every even trial by noise.

    Trials count across calls; the failures alternate between
    ``NoPowerError`` and ``ZeroPowerError``.
    """
    calls = []
    real_estimate_trials = harness.estimate_trials

    def estimate_trials(tensor, scenario, config):
        out = real_estimate_trials(tensor, scenario, config)
        for i in range(len(out)):
            calls.append(None)
            if len(calls) % 4 == 2:
                out[i] = NoPowerError("all selected antennas are below the power floor")
            if len(calls) % 4 == 0:
                out[i] = ZeroPowerError("cross-modal accumulator vanished")
        return out

    return estimate_trials


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

    @pytest.mark.parametrize("cfg, flags, key", [
        ({"noise": None}, ["--snr-db", "10"], "noise"),
        ({"scenario": {"rx": 5}}, [], "scenario.rx"),
    ])
    def test_section_must_be_object(self, tmp_path, capsys, cfg, flags, key):
        # The first ended in a TypeError traceback (exit 1), the second named no key.
        path = tiny_config(tmp_path, **cfg)
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out"), *flags])
        assert code == EXIT_CONFIG
        assert f"config error: {key} must be an object" in capsys.readouterr().err

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

    @pytest.mark.parametrize("kind, cfg, flags, spec_hash", [
        ("ccdf", None, {}, "571164f74d4383b7"),
        ("angle-sweep", None, {}, "5cb432748b20b985"),
        ("imi-demo", None, {}, "72ece754782b9876"),
        ("validate-model", None, {}, "07eb52bf6bc1b1df"),
        ("subcarrier-sweep", None, {}, "249af3997d238f23"),
        ("antenna-sweep", None, {}, "e1e701bcc9e1dc66"),
        ("ccdf", {"estimation": {"modes": [-1, 0, 1]}}, {}, "1ffc76cad626103d"),
        ("angle-sweep", {"estimation": {"p": 64, "q": 12}},
         {"model": "exact", "snr_db": 10.0}, "68b5dac2b8b6333e"),
    ])
    def test_spec_hash_pinned(self, tmp_path, kind, cfg, flags, spec_hash):
        # Every CSV and summary carries this hash; a change to how a config
        # resolves, or hashes, moves it.
        path = None
        if cfg is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
        assert load_spec(kind, config_path=path, **flags).config_hash == spec_hash

    def test_hash_of_resolved_config(self, tmp_path):
        # The hash is taken over the typed config, so an int written for a
        # float setting resolves, and hashes, as that float.
        hashes = set()
        for distance in (1, 1.0):
            path = tmp_path / f"config{distance!r}.json"
            path.write_text(json.dumps({"scenario": {"distance_m": distance}}))
            hashes.add(load_spec("ccdf", config_path=str(path)).config_hash)
        assert len(hashes) == 1


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
        pairs = _ccdf_pairs("gain", [5.0, 5.0, 5.0])
        assert pairs == [{"gain": 5.0, "ccdf": 2 / 3}, {"gain": 5.0, "ccdf": 1 / 3},
                         {"gain": 5.0, "ccdf": 0.0}]

    def test_sorted_output(self):
        pairs = _ccdf_pairs("gain", [3.0, 1.0, 2.0])
        assert [p["gain"] for p in pairs] == [1.0, 2.0, 3.0]
        assert [p["ccdf"] for p in pairs] == [2 / 3, 1 / 3, 0.0]


RESULTS_HEADER = (
    "kind,point_index,trial_index,trial_seed,p,q,u,theta_true_deg,phi_true_deg,"
    "theta_est_deg,phi_est_deg,theta_err_deg,phi_err_deg,residual,sir_before_db,"
    "sir_after_db,sir_gain_db,sir_gain_true_db,capacity_before,capacity_after,"
    "capacity_ratio"
)
SWEEP_COLUMNS = "trials,mae_theta_deg,se_theta_deg,mae_phi_deg,se_phi_deg,mean_sir_gain_db"
IMI_HEADER = "decoded\\transmitted,-2,-1,0,1,2"

# Every CSV file each kind writes, with its header line, on a small config.
HEADERS = {
    "angle-sweep": ({}, {
        "results.csv": RESULTS_HEADER,
        "angle_sweep_curve.csv": "point_index,theta_true_deg,phi_true_deg,"
        "theta_est_mean_deg,theta_est_std_deg,phi_est_mean_deg,phi_est_std_deg",
    }),
    "ccdf": ({}, {
        "results.csv": RESULTS_HEADER,
        "ccdf_sir_gain.csv": "sir_gain_db,ccdf",
        "ccdf_capacity_gain.csv": "capacity_ratio,ccdf",
    }),
    "subcarrier-sweep": ({"subcarrier_counts": [1, 2]}, {
        "results.csv": RESULTS_HEADER,
        "subcarrier_sweep.csv": "p," + SWEEP_COLUMNS,
    }),
    "antenna-sweep": ({"antenna_counts": [4, 6]}, {
        "results.csv": RESULTS_HEADER,
        "antenna_sweep.csv": "q," + SWEEP_COLUMNS,
    }),
    "imi-demo": ({}, {
        "imi_aligned.csv": IMI_HEADER,
        "imi_misaligned.csv": IMI_HEADER,
        "imi_corrected.csv": IMI_HEADER,
    }),
    "validate-model": ({"rings": [{"radius_m": 0.02, "n": 12}]}, {
        "validate_correlations.csv": "pose_index,theta_true_deg,phi_true_deg,"
        "ring_index,ring_radius_m,ring_elements,mode,correlation,"
        "max_centered_phase_err_rad",
        "validate_phases.csv": "pose_index,ring_index,mode,antenna,azimuth_deg,"
        "exact_phase_rad,model_phase_rad",
    }),
}


class TestCsvFiles:
    @pytest.mark.parametrize("kind", HEADERS)
    def test_every_file_and_header(self, tmp_path, kind):
        extra, headers = HEADERS[kind]
        path = tiny_config(tmp_path, **extra)
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        written = sorted(f.name for f in (tmp_path / "out").glob("*.csv"))
        assert written == sorted(headers)
        for name, header in headers.items():
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert lines[0].startswith("# spec_hash=")
            assert lines[1] == header, name
            assert len(lines) > 2, name

    def test_rows_write_under_their_keys(self, tmp_path):
        rows = ({"a": n, "b": n / 4} for n in range(3))
        _write_csv(tmp_path / "t.csv", rows, "abc")
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "# spec_hash=abc", "a,b", "0,0", "1,0.25", "2,0.5"]

    def test_bytes_match_csv_writer_over_str_and_12g(self, tmp_path):
        # One %-template per file writes what csv.writer wrote over values
        # formatted one by one: floats with ".12g", all else with str(), and
        # str values with a comma, a quote or a line end quoted.
        values = {
            "decoded\\transmitted": [0.1, 1 / 3, -0.0, 1e-300, float("inf")],
            "x64": [np.float64(2.5e-7), np.float64(-0.0), np.float64(1e300),
                    np.float64(np.nan), np.float64(123456789.123456789)],
            "n": [0, -7, 2**40, 3, 12],
            "i64": [np.int64(5), np.int64(-2**63), np.int64(0), np.int64(1), np.int64(9)],
            "seed": [trial_seed(42, 3, 7), 2**64 - 1, 0, 1, 18446744073709551557],
            "flag": [True, False, True, False, True],
            "none": [None] * 5,
            "label": ["ccdf", "a,b", 'say "hi"', "two\nlines", "cr\rend"],
        }
        rows = [dict(zip(values, cells)) for cells in zip(*values.values())]
        _write_csv(tmp_path / "new.csv", rows, "abc")
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            fh.write("# spec_hash=abc\n")
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for row in rows:
                writer.writerow([format(v, ".12g") if isinstance(v, float) else str(v)
                                 for v in row.values()])
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written.count(b"\r\n") == 6
        assert b'"a,b"' in written and b'"say ""hi"""' in written
        with open(tmp_path / "new.csv", newline="") as fh:
            read = list(csv.reader(fh))[2:]
        assert [row[-1] for row in read] == values["label"]

    def test_no_rows_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            _write_csv(tmp_path / "t.csv", iter([]), "abc")
        assert not (tmp_path / "t.csv").exists()


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
        assert results[1] == RESULTS_HEADER
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
        k = wavenumber(spec.scenario.carrier_hz)
        no_mask = phase_mask([[0.0]], [[0.0]], k, spec.scenario.rx)
        expected = imi_matrices(spec.scenario, [tilted], [pose_angles(tilted)],
                                spec.demo_modes, no_mask, spec.model, k).power[0, 0]
        with open(tmp_path / "imi" / "imi_misaligned.csv", newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        assert [int(row[0]) for row in rows] == list(spec.demo_modes)
        np.testing.assert_allclose([[float(v) for v in row[1:]] for row in rows],
                                   expected, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("kind, cfg, swept, fixed", [
        ("antenna-sweep", {"antenna_counts": [4, 6], "estimation": {"p": 2}},
         "q", ("p", 2)),
        ("subcarrier-sweep", {"subcarrier_counts": [1, 2], "estimation": {"q": 5}},
         "p", ("q", 5)),
    ])
    def test_sweep_rows_carry_swept_and_fixed_counts(self, tmp_path, kind, cfg, swept,
                                                      fixed):
        path = tiny_config(tmp_path, trials=2, **cfg)
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        counts = cfg["antenna_counts" if swept == "q" else "subcarrier_counts"]
        assert [int(r[swept]) for r in rows] == [c for c in counts for _ in range(2)]
        name, value = fixed
        assert {int(r[name]) for r in rows} == {value}

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

    def test_validate_model_mode_without_power_reads_zero(self, tmp_path):
        # At 100 m, J_60 of this ring's 1.5e-5 argument underflows to 0, so
        # the far-field model gives mode 60 no power; its correlation read
        # NaN or inf, and the run exited 0 with that in its summary.
        path = tiny_config(tmp_path, validate_modes=[0, 60],
                           rings=[{"radius_m": 0.02, "n": 200}])
        summary = validate_model(load_spec("validate-model", config_path=path,
                                           out_dir=str(tmp_path / "out")))
        assert summary["min_correlation"] == 0.0
        rows = (tmp_path / "out" / "validate_correlations.csv").read_text().splitlines()
        assert [float(r.split(",")[7]) for r in rows[2:]][1] == 0.0
        assert float(rows[2].split(",")[7]) > 0.99

    def test_validate_phases_rows(self, tmp_path):
        rings = [{"radius_m": 0.02, "n": 12}, {"radius_m": 0.03, "n": 16}]
        modes = [-1, 0, 2]
        poses = [{"rot_y_deg": 0.0, "rot_x_deg": 0.0},
                 {"rot_y_deg": 14.0, "rot_x_deg": -9.0}]
        path = tiny_config(tmp_path, rings=rings, validate_modes=modes, poses=poses)
        spec = load_spec("validate-model", config_path=path,
                         out_dir=str(tmp_path / "out"))
        validate_model(spec)
        with open(tmp_path / "out" / "validate_phases.csv") as fh:
            assert fh.readline().startswith("# spec_hash=")
            rows = list(csv.DictReader(fh))
        # One row per (pose, ring, mode, antenna), in that order.
        assert len(rows) == len(poses) * (12 + 16) * len(modes)
        want = [(p, r, l, m) for p in range(len(poses))
                for r, ring in enumerate(rings) for l in modes
                for m in range(ring["n"])]
        keys = ("pose_index", "ring_index", "mode", "antenna")
        assert [tuple(int(row[k]) for k in keys) for row in rows] == want

        # The second pose's second ring against the channel models.
        scen = spec.scenario
        ring = UcaGeometry(16, 0.03)
        pose = RxPose.from_tilt(scen.pose.distance_m, np.deg2rad(14.0),
                                np.deg2rad(-9.0))
        ring_scen = Scenario(scen.tx, ring, pose, scen.carrier_hz, [scen.carrier_hz])
        ks = [wavenumber(scen.carrier_hz)]
        block = [row for row in rows
                 if row["pose_index"] == "1" and row["ring_index"] == "1"]
        fields = {
            "azimuth_deg": np.broadcast_to(np.rad2deg(ring.element_azimuths),
                                           (len(modes), 16)),
            "exact_phase_rad": np.angle(
                exact_received_signals(ring_scen, pose, modes, ks)[:, :, 0].T),
            "model_phase_rad": np.angle(
                farfield_received_signal(ring_scen, pose, modes, ks)[:, :, 0].T),
        }
        for name, values in fields.items():
            assert [row[name] for row in block] == [
                format(float(v), ".12g") for v in values.ravel()], name

    def test_validate_phases_bytes_match_dict_rows(self, tmp_path):
        # The phase table, written per (pose, ring, mode) block, has the bytes
        # that one dict row per antenna through _write_csv writes.
        rings = [{"radius_m": 0.02, "n": 12}, {"radius_m": 0.03, "n": 16}]
        modes = [-2, 0, 1]
        poses = [{"rot_y_deg": 0.0, "rot_x_deg": 0.0},
                 {"rot_y_deg": 14.0, "rot_x_deg": -9.0}]
        path = tiny_config(tmp_path, rings=rings, validate_modes=modes, poses=poses)
        spec = load_spec("validate-model", config_path=path,
                         out_dir=str(tmp_path / "out"))
        validate_model(spec)

        scen = spec.scenario
        ks = [wavenumber(scen.carrier_hz)]
        phase_lists = []
        for pose_idx, (ry, rx_deg) in enumerate(spec.poses):
            pose = RxPose.from_tilt(scen.pose.distance_m, np.deg2rad(ry),
                                    np.deg2rad(rx_deg))
            for ring_idx, ring in enumerate(spec.rings):
                exact_all, model_all = (
                    one_pose(replace(scen, rx=ring), pose, modes, ks)[:, :, 0].T
                    for one_pose in (exact_received_signals, farfield_received_signal)
                )
                phase_lists.append((
                    pose_idx, ring_idx, np.rad2deg(ring.element_azimuths).tolist(),
                    np.angle(exact_all).tolist(), np.angle(model_all).tolist(),
                ))
        phase_rows = (
            {"pose_index": pose_idx, "ring_index": ring_idx, "mode": mode, "antenna": antenna,
             "azimuth_deg": azimuth, "exact_phase_rad": exact, "model_phase_rad": model}
            for pose_idx, ring_idx, azimuths, exact_by_mode, model_by_mode in phase_lists
            for mode, exact_row, model_row in zip(modes, exact_by_mode, model_by_mode)
            for antenna, (azimuth, exact, model) in enumerate(zip(azimuths, exact_row, model_row))
        )
        _write_csv(tmp_path / "rows.csv", phase_rows, spec.config_hash)

        written = (tmp_path / "out" / "validate_phases.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        # The header and every row end in \r\n; 22.5 degrees is off the integers.
        assert written.count(b"\r\n") == 1 + len(poses) * (12 + 16) * len(modes)
        assert b",22.5," in written


class TestFailures:
    def test_farfield_violation_exits_config(self, tmp_path, capsys):
        # Every trial would break the far-field bound: the run fails at load
        # (it exited 3 mid-run) instead of exiting 0 with NaN in its summary.
        path = tiny_config(tmp_path, scenario={"distance_m": 0.2})
        code = main(["angle-sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "scenario.distance_m=0.2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("kind, cfg, key", [
        ("ccdf", {"scenario": {"distance_m": 0.2}}, "scenario.tx.radius_m=0.03"),
        ("validate-model", {"scenario": {"distance_m": 0.2}}, "scenario.tx.radius_m=0.03"),
        ("angle-sweep", {"scenario": {"rx": {"radius_m": 0.05}}}, "scenario.rx.radius_m=0.05"),
        ("validate-model", {"rings": [{"radius_m": 0.02, "n": 16}, {"radius_m": 11, "n": 16}]},
         "rings[1].radius_m=11.0"),
        ("imi-demo", {"scenario": {"distance_m": 0.2}, "model": "farfield"},
         "scenario.tx.radius_m=0.03"),
    ])
    def test_farfield_violation_names_its_keys(self, tmp_path, kind, cfg, key):
        # Each kind that feeds the far-field model its link checks the
        # model's hard limit at load; these all exited 3 mid-run.
        path = tiny_config(tmp_path, **cfg)
        with pytest.raises(ConfigError, match=r"^scenario\.distance_m=") as err:
            load_spec(kind, config_path=path)
        assert key in str(err.value)

    @pytest.mark.parametrize("kind", ["imi-demo", "ccdf"])
    def test_exact_model_at_short_range_runs(self, tmp_path, kind):
        # Only the far-field model has the hard limit; the exact oracle,
        # imi-demo's default, holds at any range (criterion 10 relies on it).
        path = tiny_config(tmp_path, scenario={"distance_m": 0.2}, model="exact")
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_noise_failures_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "estimate_trials", failing_every_other_call())
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
        monkeypatch.setattr(harness, "estimate_trials", failing_every_other_call())
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
        # At 0 dB a cell reaches the theta = 0 bound, where the refine's
        # normal matrix is singular without its damping floor.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"estimation": {"p": 2}, "noise": {"snr_db": 0}}))
        out = tmp_path / "out"
        code = main(["ccdf", "--config", str(path), "--trials", "6", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] + summary["failed_trials"] == 15 * 6

    def test_no_successful_trial_exits_runtime(self, tmp_path, monkeypatch, capsys):
        def no_power(tensor, _scenario, _config):
            return [NoPowerError("all selected antennas are below the power floor")
                    for _values in tensor.values]

        monkeypatch.setattr(harness, "estimate_trials", no_power)
        path = tiny_config(tmp_path, trials=2)
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert "NoPowerError" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key", [("subcarrier-sweep", "subcarrier_counts"),
                                           ("antenna-sweep", "antenna_counts"),
                                           ("validate-model", "validate_modes"),
                                           ("validate-model", "rings"),
                                           ("imi-demo", "demo_modes")])
    def test_empty_kind_list_exit_config(self, tmp_path, kind, key):
        # Every setting is checked when the spec loads, before any trial runs.
        path = tiny_config(tmp_path, **{key: []})
        with pytest.raises(ConfigError):
            load_spec(kind, config_path=path)
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind, cfg", [
        ("ccdf", {"estimation": {"p": 0}}),
        ("subcarrier-sweep", {"subcarrier_counts": [0, 2]}),
        ("subcarrier-sweep", {"subcarrier_counts": [1, 500]}),
    ])
    def test_count_out_of_range_rejected_at_load(self, tmp_path, kind, cfg):
        path = tiny_config(tmp_path, **cfg)
        with pytest.raises(ConfigError, match="must lie in 1..71"):
            load_spec(kind, config_path=path)

    @pytest.mark.parametrize("kind, cfg", [
        ("ccdf", {"estimation": {"q": 2}}),
        ("ccdf", {"estimation": {"q": 30}}),
        ("ccdf", {"estimation": {"p": 0}}),
        ("ccdf", {"estimation": {"modes": [1]}}),
        ("ccdf", {"estimation": {"modes": [1, 1]}}),
        ("antenna-sweep", {"antenna_counts": [2, 6]}),
        ("imi-demo", {"demo_modes": [-12, 12]}),
        ("ccdf", {"estimation": {"p": 72}}),
        ("ccdf", {"estimation": {"modes": [-10, 10]}}),
        # Each mode heads one column and one row of the power matrix.
        ("imi-demo", {"demo_modes": [1, 1, 2]}),
        # A repeated mode repeated its rows in both validate files.
        ("validate-model", {"validate_modes": [0, 0]}),
        # Each ring is built at load, as scenario.rx is: these exited 3.
        ("validate-model", {"rings": [{"radius_m": 0.0, "n": 16}]}),
        ("validate-model", {"rings": [{"radius_m": 0.02, "n": 0}]}),
        # A demo tilt that turns the receiver away exited 3 mid-run.
        ("imi-demo", {"demo_tilt_deg": 120}),
        ("imi-demo", {"demo_tilt_deg": -95}),
        # Every three of a 4-element ring hold a diametric pair: these exited 3.
        ("ccdf", {"scenario": {"rx": {"n": 4}}, "estimation": {"q": 3}}),
        ("antenna-sweep", {"scenario": {"rx": {"n": 4}}, "antenna_counts": [3]}),
        # A repeated count or ring repeated its rows, as a repeated mode did.
        ("subcarrier-sweep", {"subcarrier_counts": [1, 1]}),
        ("antenna-sweep", {"antenna_counts": [3, 3]}),
        ("validate-model", {"rings": [{"radius_m": 0.02, "n": 16}] * 2}),
    ])
    def test_invalid_setup_exit_config(self, tmp_path, capsys, kind, cfg):
        # Settings the estimator or the decoder would reject fail at load.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_pose_turned_away_names_its_index(self, tmp_path):
        path = tiny_config(tmp_path, poses=[{"rot_y_deg": 25.0, "rot_x_deg": 0.0},
                                            {"rot_y_deg": 120.0, "rot_x_deg": 0.0}])
        with pytest.raises(ConfigError, match=r"^poses\[1\] \(rot_y_deg=120.0, "
                                              r"rot_x_deg=0.0\) turns the receiver"):
            load_spec("ccdf", config_path=path)

    def test_demo_tilt_away_names_its_key(self, tmp_path):
        # Only imi-demo reads demo_tilt_deg, so only it rejects the tilt.
        path = tiny_config(tmp_path, demo_tilt_deg=120)
        with pytest.raises(ConfigError, match="demo_tilt_deg=120.0 turns the receiver"):
            load_spec("imi-demo", config_path=path)
        load_spec("ccdf", config_path=path)

    @pytest.mark.parametrize("kind", ["imi-demo", "validate-model"])
    def test_kinds_without_p_ignore_it(self, tmp_path, kind):
        # One config file drives a p = 4 ccdf and the kinds that read no p.
        path = tiny_config(tmp_path, estimation={"p": 4}, validate_modes=[-1, 1],
                           rings=[{"radius_m": 0.02, "n": 16}])
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        # Nor do they read estimation.modes, which exited 2 when given one mode.
        path = tiny_config(tmp_path, estimation={"modes": [1]}, validate_modes=[-1, 1],
                           rings=[{"radius_m": 0.02, "n": 16}])
        assert main([kind, "--config", path, "--out", str(tmp_path / "out1")]) == EXIT_OK

    @pytest.mark.parametrize("estimation", [
        {"tol": 1e-8},
        {"max_iter": 50},
        {"weighting": "amplitude"},
        {"weighting": "magic"},
        {"grid_deg": [3.0, 3.0]},
    ])
    def test_retired_estimation_keys_exit_config(self, tmp_path, capsys, estimation):
        # The loss weighting, the refine's stopping rule and the grid are fixed.
        path = tiny_config(tmp_path, estimation=estimation)
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        [key] = estimation
        assert f"unknown config key 'estimation.{key}'" in capsys.readouterr().err


    @pytest.mark.parametrize("flags, key", [
        (["--seed", "-1"], "seed"),
        (["--snr-db", "nan"], "noise.snr_db"),
        (["--snr-db=-inf"], "noise.snr_db"),
    ])
    def test_bad_seed_or_snr_exit_config(self, tmp_path, capsys, flags, key):
        # Each used to load and end the run with exit 3 from the simulation.
        path = tiny_config(tmp_path)
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out"), *flags])
        assert code == EXIT_CONFIG
        assert f"config error: {key} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, key", [
        ({"scenario": {"tx": {"n": 160.5}}}, "scenario.tx.n"),
        ({"scenario": {"rx": {"n": 20.5}}}, "scenario.rx.n"),
        ({"scenario": {"subcarriers": {"count": 71.5}}},
         "scenario.subcarriers.count"),
        ({"estimation": {"modes": [-1, 1.5]}}, "estimation.modes[1]"),
        ({"estimation": {"q": 6.5}}, "estimation.q"),
        ({"estimation": {"p": 1.5}}, "estimation.p"),
        ({"trials": 2.7}, "trials"),
        ({"seed": 4.9}, "seed"),
        ({"subcarrier_counts": [1, 2.5]}, "subcarrier_counts[1]"),
        ({"antenna_counts": [3.5]}, "antenna_counts[0]"),
        ({"demo_modes": [-1, 0.5]}, "demo_modes[1]"),
        ({"rings": [{"radius_m": 0.02, "n": 16.5}]}, "rings[0].n"),
        ({"validate_modes": [-1, 1.25]}, "validate_modes[1]"),
        # A bool is an int to Python and a str passes int(): these ran.
        ({"trials": True}, "trials"),
        ({"seed": False}, "seed"),
        ({"estimation": {"q": "6"}}, "estimation.q"),
    ])
    def test_non_integral_setting_exit_config(self, tmp_path, capsys, cfg, key):
        # Each was truncated or converted to an integer and the run went on.
        path = tiny_config(tmp_path, **cfg)
        code = main(["ccdf", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, cfg, key", [
        ("ccdf", {"poses": [{"rot_y_deg": NAN, "rot_x_deg": 0.0}]}, "poses[0].rot_y_deg"),
        ("ccdf", {"poses": [{"rot_y_deg": 20.0, "rot_x_deg": INF}]}, "poses[0].rot_x_deg"),
        ("ccdf", {"scenario": {"carrier_hz": INF}}, "scenario.carrier_hz"),
        ("ccdf", {"scenario": {"subcarriers": {"step_hz": NAN}}},
         "scenario.subcarriers.step_hz"),
        ("ccdf", {"scenario": {"subcarriers": {"start_hz": INF}}},
         "scenario.subcarriers.start_hz"),
        ("ccdf", {"scenario": {"distance_m": INF}}, "scenario.distance_m"),
        ("ccdf", {"scenario": {"tx": {"radius_m": INF}}}, "scenario.tx.radius_m"),
        ("imi-demo", {"demo_tilt_deg": NAN}, "demo_tilt_deg"),
        ("validate-model", {"rings": [{"radius_m": INF, "n": 16}]}, "rings[0].radius_m"),
        # An int beyond the float range raised OverflowError past main.
        ("ccdf", {"scenario": {"distance_m": 10**400}}, "scenario.distance_m"),
    ])
    def test_non_finite_setting_exit_config(self, tmp_path, capsys, kind, cfg, key):
        # Each loaded and ended the run with exit 3 once the simulation started.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, cfg, key, value", [
        ("ccdf", {"scenario": {"distance_m": "0.4"}}, "scenario.distance_m", "0.4"),
        ("ccdf", {"poses": [{"rot_y_deg": True, "rot_x_deg": 0.0}]},
         "poses[0].rot_y_deg", True),
        ("ccdf", {"noise": {"snr_db": "25"}}, "noise.snr_db", "25"),
        ("validate-model", {"rings": [{"radius_m": "0.02", "n": 16}]},
         "rings[0].radius_m", "0.02"),
    ])
    def test_bool_or_str_real_setting_exit_config(self, tmp_path, capsys, kind, cfg, key,
                                                  value):
        # float() read each of these as a number and the run went on.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {key} must be a number, got {value!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, cfg, key", [
        ("validate-model",
         {"rings": [{"radius_m": 0.02, "n": 8}, {"radius_m": -1, "n": 8}]}, "rings[1]"),
        ("ccdf", {"scenario": {"tx": {"n": 0, "radius_m": 0.03}}}, "scenario.tx"),
        ("ccdf", {"scenario": {"rx": {"n": 20, "radius_m": 0.0}}}, "scenario.rx"),
    ])
    def test_bad_ring_names_its_key(self, tmp_path, capsys, kind, cfg, key):
        # Every ring gave the same message, so the bad one of several was unknown.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind, cfg, key, name", [
        ("validate-model", {"rings": [{"radius_m": 0.02}]}, "rings[0]", "n"),
        ("validate-model", {"rings": [{"radius_m": 0.02, "n": 8}, {"n": 8}]},
         "rings[1]", "radius_m"),
        ("ccdf", {"poses": [{"rot_y_deg": 20.0}]}, "poses[0]", "rot_x_deg"),
        ("ccdf", {"poses": [{"rot_y_deg": 20.0, "rot_x_deg": 0.0}, {"rot_x_deg": 5.0}]},
         "poses[1]", "rot_y_deg"),
    ])
    def test_missing_list_key_names_its_entry(self, tmp_path, capsys, kind, cfg, key, name):
        # List entries are not merged with defaults, and a missing key printed
        # only its bare name ("invalid configuration: 'n'").
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {key} is missing {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, cfg, key", [
        ("validate-model", {"rings": [{"radius_m": 0.02, "n": 8, "extra": 1}]},
         "rings[0].extra"),
        ("ccdf", {"poses": [{"rot_y_deg": 20.0, "rot_x_deg": 0.0, "rot_z_deg": 5.0}]},
         "poses[0].rot_z_deg"),
    ])
    def test_unknown_list_entry_key_exit_config(self, tmp_path, capsys, kind, cfg, key):
        # A list entry's unknown key was accepted silently, and the run exited 0.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, cfg, message", [
        ("ccdf", {"estimation": {"modes": 5}}, "estimation.modes must be a list, got 5"),
        ("ccdf", {"poses": [5]}, "poses[0] must be an object, got 5"),
        ("validate-model", {"rings": {"n": 3, "radius_m": 0.02}}, "rings must be a list"),
        ("ccdf", {"seed": None}, "seed must be an integer, got None"),
        ("ccdf", {"noise": {"snr_db": [1]}}, "noise.snr_db must be a number, got [1]"),
        ("ccdf", {"model": 5}, "model must be a string, got 5"),
        ("ccdf", {"scenario": {"subcarriers": {"count": 0}}},
         "scenario.subcarriers must be nonempty"),
        ("ccdf", {"scenario": {"subcarriers": {"count": 1e30}}},
         "scenario.subcarriers.count=1000000000000000019884624838656: "),
        ("ccdf", {"scenario": {"distance_m": -1}}, "scenario.distance_m must be > 0"),
        ("ccdf", {"scenario": {"carrier_hz": 2e12}}, "scenario.carrier_hz=2e+12 lies"),
        ("imi-demo", {"scenario": {"carrier_hz": 1e25}}, "scenario.carrier_hz=1e+25 lies"),
        ("ccdf", {"scenario": {"subcarriers": {"step_hz": 0.0}}, "estimation": {"p": 4}},
         "scenario.subcarriers must be distinct, got 1 distinct of 71 tones"),
        ("ccdf", {"scenario": {"subcarriers": {"step_hz": 1e-9}}, "estimation": {"p": 4}},
         "scenario.subcarriers must be distinct, got 1 distinct of 71 tones"),
        # np.arange(2**63) is an empty array, which read as an empty grid.
        ("ccdf", {"scenario": {"subcarriers": {"count": 2**63}}},
         "scenario.subcarriers.count=9223372036854775808: more tones than an array can hold"),
    ])
    def test_wrong_shape_names_its_key(self, tmp_path, capsys, kind, cfg, message):
        # Each printed a bare Python error ("'int' object is not iterable"),
        # or ran: a carrier at 2 THz estimated at 120 GHz and scored at 2 THz.
        path = tiny_config(tmp_path, **cfg)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_zero_power_trial_leaves_the_others(self, tmp_path, monkeypatch):
        # The trials of a run are estimated as one batch; a noise failure in
        # one of them drops that row only.
        path = tiny_config(tmp_path, trials=3, poses=[
            {"rot_y_deg": 25.0, "rot_x_deg": 18.0},
            {"rot_y_deg": -40.0, "rot_x_deg": 10.0},
        ])
        clean = load_spec("ccdf", config_path=path, out_dir=str(tmp_path / "clean"))
        assert run_ccdf(clean)["failed_trials"] == 0
        real_simulate = harness.simulate_trials

        def silence_fourth(*args):
            tensor = real_simulate(*args)
            # Point 1, trial 0: one mode vanishes at antenna 0.
            tensor.values[3, 0, 0] = 0.0
            return tensor

        monkeypatch.setattr(harness, "simulate_trials", silence_fourth)
        forced = load_spec("ccdf", config_path=path, out_dir=str(tmp_path / "forced"))
        summary = run_ccdf(forced)
        assert summary["failed_by_error"] == {"ZeroPowerError": 1}
        assert summary["trials"] == 5

        def rows(name):
            lines = (tmp_path / name / "results.csv").read_text().splitlines()
            return lines[2:]

        kept = [r for r in rows("clean") if not r.startswith("ccdf,1,0,")]
        assert len(kept) == 5
        assert rows("forced") == kept


class TestBatchScoring:
    @pytest.mark.parametrize("model", ["farfield", "exact"])
    def test_row_does_not_depend_on_its_scoring_batch(self, tmp_path, monkeypatch, model):
        # A run's 120 trials are estimated in one batch; scored again in
        # batches of 1, 7 or 128, every trial gets the same row, bit for bit.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"trials": 8, "model": model, "noise": {"snr_db": 10.0}}))
        score, seen = harness._score_trials, []

        def recording(*args):
            seen.append(args)
            return score(*args)

        monkeypatch.setattr(harness, "_score_trials", recording)
        run_ccdf(load_spec("ccdf", config_path=str(path), out_dir=str(tmp_path / "out")))
        [(spec, batch, truths, results)] = seen
        whole = score(spec, batch, truths, results)
        assert len(whole) == 120 and all(isinstance(row, dict) for row in whole)
        for size in (1, 7, 128):
            rows = [row for i in range(0, len(batch), size)
                    for row in score(spec, batch[i:i + size], truths[i:i + size],
                                     results[i:i + size])]
            assert rows == whole

    def test_zero_decoded_signal_fails_its_trial_only(self, tmp_path, monkeypatch):
        # A trial whose decoded signal vanishes under one of its masks counts
        # as a ZeroSignalError; the other trials of its batch keep their rows.
        path = tiny_config(tmp_path, trials=3)
        clean = load_spec("ccdf", config_path=path, out_dir=str(tmp_path / "clean"))
        assert run_ccdf(clean)["failed_trials"] == 0
        real_imi_matrices = harness.imi_matrices

        def silence_second(*args):
            imi = real_imi_matrices(*args)
            imi.power[1, 1, 0, 0] = 0.0  # trial 1, the estimate's mask, mode slot 0
            return imi

        monkeypatch.setattr(harness, "imi_matrices", silence_second)
        forced = load_spec("ccdf", config_path=path, out_dir=str(tmp_path / "forced"))
        summary = run_ccdf(forced)
        assert summary["failed_by_error"] == {"ZeroSignalError": 1}

        def rows(name):
            return (tmp_path / name / "results.csv").read_text().splitlines()[2:]

        assert rows("forced") == [r for r in rows("clean") if not r.startswith("ccdf,0,1,")]


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

    def test_runtime_error_exit(self, tmp_path, monkeypatch, capsys):
        # An error after the spec has loaded is a simulation error.  The load
        # checks leave no config that reaches one (tests/test_config_fuzz.py),
        # so a stand-in for the channel raises it.
        def refuse(*_args):
            raise ValueError("the channel refuses this link")

        monkeypatch.setattr(harness, "imi_matrices", refuse)
        code = main(["imi-demo", "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert "simulation error: the channel refuses this link" in capsys.readouterr().err
