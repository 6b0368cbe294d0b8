import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from vortex_align.channel import (
    NoiseSpec,
    SampleTensor,
    delta,
    bessel_j,
    rho,
    simulate_measurement,
    wavenumber,
)
from vortex_align.estimator import (
    CrossModalPhaseSet,
    DegenerateGeometryError,
    EstimationConfig,
    InfeasibleSelectionError,
    MissingSamplesError,
    NoPowerError,
    ZeroPowerError,
    cross_modal_phase_set,
    estimate,
    loss,
    select_antennas,
    select_modes,
    weight,
)
from vortex_align import estimator as estimator_module
from vortex_align.estimator import (
    _bessel_factors,
    _coarse_candidates,
    _mode_pairs,
    _profile_gamma,
    _profiled,
    _refine_cells,
    _residuals,
)
from vortex_align.geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    gamma,
    misalignment_angles,
    tilt_for_angles,
)

F_CARRIER = 120e9
SUBS = 119.5e9 + 1e7 * np.arange(71)


def make_setup(theta_deg, phi_deg, distance=0.4, subcarriers=(F_CARRIER,),
               modes=(-1, 1), snr_db=None, seed=0, model="farfield", q=6,
               rx_n=20):
    ry, rx_tilt = tilt_for_angles(np.deg2rad(theta_deg), np.deg2rad(phi_deg))
    pose = RxPose.from_tilt(distance, ry, rx_tilt)
    scen = Scenario(UcaGeometry(160, 0.03), UcaGeometry(rx_n, 0.008), pose,
                    F_CARRIER, SUBS)
    noise = NoiseSpec(snr_db=snr_db, seed=seed)
    tensor = simulate_measurement(scen, pose, modes, np.asarray(subcarriers),
                                  noise, model)
    config = EstimationConfig(
        modes=modes,
        antennas=tuple(select_antennas(rx_n, q)),
        subcarriers_hz=tuple(subcarriers),
    )
    return scen, pose, tensor, config


def circ_err(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


class TestCrossModalPhase:
    def test_matches_model_noiseless(self):
        scen, pose, tensor, config = make_setup(27.0, -133.0)
        theta, phi = misalignment_angles(pose)
        phases = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        np.testing.assert_array_equal(phases.antenna, config.antennas)
        expected = phases.dl * (delta(theta, phi, phases.azimuth) + gamma(pose))
        # Equality holds on the doubled phase (u is known modulo pi).
        assert np.all(circ_err(np.angle(phases.target), 2 * expected) < 1e-9)

    def test_same_mode_zero(self):
        # Identical samples on both modes carry no cross-modal phase.
        scen, _pose, tensor, config = make_setup(27.0, -133.0)
        values = tensor.values.copy()
        values[:, 0] = values[:, 1]
        same = SampleTensor(values, tensor.antennas, tensor.modes,
                            tensor.subcarriers_hz)
        phases = cross_modal_phase_set(same, config, scen.rx.n_elements)
        assert np.all(np.abs(np.angle(phases.target)) < 1e-12)

    def test_missing_samples(self):
        scen, _pose, tensor, config = make_setup(27.0, -133.0)
        for changes, message in (
            ({"modes": (1, 2)}, "mode 2 not present"),
            ({"subcarriers_hz": (SUBS[1],)}, f"subcarrier {SUBS[1]} Hz not present"),
        ):
            with pytest.raises(MissingSamplesError, match=message):
                cross_modal_phase_set(tensor, replace(config, **changes),
                                      scen.rx.n_elements)

    def test_zero_power(self):
        # Only the row labelled 7 is silent: the error names that antenna and
        # the pair, and the other rows keep the power floor check quiet.
        values = np.ones((4, 2, 1), dtype=complex)
        values[2] = 0.0
        tensor = SampleTensor(values, np.array([1, 4, 7, 12]), (-1, 1),
                              np.array([F_CARRIER]))
        config = EstimationConfig(modes=(-1, 1), antennas=(1, 4, 7),
                                  subcarriers_hz=(F_CARRIER,))
        with pytest.raises(ZeroPowerError, match=r"antenna 7, pair \(1,-1\)"):
            cross_modal_phase_set(tensor, config, 20)

    def test_set_matches_scalar_phase(self):
        # The vectorised record against its formula evaluated term by term.
        subs = tuple(SUBS[:64])
        scen, _pose, tensor, config = make_setup(
            30.0, -120.0, subcarriers=subs, modes=(-1, 0, 1), snr_db=10.0,
            seed=9, q=12)
        phases = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        pairs = [(0, -1), (1, -1), (1, 0)]
        ks = tensor.subcarrier_indices(subs)

        def term(m, l_i, l_j):
            y = tensor.values[tensor.antenna_index(m)]
            acc = np.sum((y[tensor.mode_index(l_i), ks]
                          * np.conj(y[tensor.mode_index(l_j), ks])) ** 2)
            return np.exp(2j * (0.5 * np.angle(acc)))

        expected = [term(m, li, lj) for m in config.antennas for li, lj in pairs]
        np.testing.assert_array_equal(phases.target, expected)
        np.testing.assert_array_equal(phases.antenna, np.repeat(config.antennas, 3))
        np.testing.assert_array_equal(phases.dl, np.tile([1, 2, 1], 12))
        np.testing.assert_array_equal(
            phases.azimuth, scen.rx.element_azimuths[phases.antenna])

    def test_subcarrier_averaging_reduces_spread(self):
        # Monte Carlo: the circular spread of the doubled phase shrinks
        # when 32 subcarriers are pooled instead of one.
        rng = np.random.default_rng(17)
        singles, pooled = [], []
        ry, rx_tilt = tilt_for_angles(np.deg2rad(30.0), np.deg2rad(-120.0))
        pose = RxPose.from_tilt(0.4, ry, rx_tilt)
        scen = Scenario(UcaGeometry(160, 0.03), UcaGeometry(20, 0.008), pose,
                        F_CARRIER, SUBS)
        sub32 = SUBS[:32]
        config = EstimationConfig(modes=(-1, 1), antennas=(0,), subcarriers_hz=sub32)
        single = replace(config, subcarriers_hz=sub32[:1])
        for trial in range(300):
            tensor = simulate_measurement(
                scen, pose, (-1, 1), sub32,
                NoiseSpec(snr_db=10.0, seed=int(rng.integers(2**32))))
            singles.append(cross_modal_phase_set(tensor, single, 20).target[0])
            pooled.append(cross_modal_phase_set(tensor, config, 20).target[0])

        def circ_spread(z):
            return 1.0 - abs(np.mean(z))

        assert circ_spread(pooled) < circ_spread(singles)


class TestSelectAntennas:
    def test_eleven_choose_three(self):
        assert select_antennas(11, 3) == [0, 4, 8]

    def test_twenty_choose_four_diametric_fix(self):
        assert select_antennas(20, 4) == [0, 5, 11, 16]

    def test_twenty_choose_six_iterated_fix(self):
        sel = select_antennas(20, 6)
        assert sel == [0, 3, 6, 11, 14, 17]

    @pytest.mark.parametrize("n,q", [(11, 3), (20, 4), (20, 6), (20, 9), (15, 5),
                                     (13, 4), (24, 8)])
    def test_no_diametric_pairs_when_feasible(self, n, q):
        sel = select_antennas(n, q)
        assert len(set(sel)) == q
        for i in range(q):
            for j in range(i + 1, q):
                gap = abs(np.angle(np.exp(2j * np.pi * (sel[i] - sel[j]) / n)))
                assert abs(gap - np.pi) > 1e-9

    def test_oversubscribed_even_ring_falls_back(self):
        # 12 of 20 cannot avoid a diametric pair; the spread base set is used.
        sel = select_antennas(20, 12)
        assert len(set(sel)) == 12
        assert all(0 <= m < 20 for m in sel)

    def test_infeasible_inputs(self):
        with pytest.raises(InfeasibleSelectionError):
            select_antennas(2, 3)
        with pytest.raises(InfeasibleSelectionError):
            select_antennas(10, 11)
        with pytest.raises(InfeasibleSelectionError):
            select_antennas(10, 2)


class TestSelectModes:
    def _scenario(self, distance, rx_r=0.008):
        pose = RxPose.from_tilt(distance, 0.3, 0.1)
        return Scenario(UcaGeometry(160, 0.03), UcaGeometry(20, rx_r), pose,
                        F_CARRIER, SUBS)

    def test_long_range_prefers_first_mode(self):
        scen = self._scenario(1e4)
        assert select_modes(scen) == (-1, 1)

    def test_matches_brute_force(self):
        for distance in (0.4, 2.0, 100.0):
            scen = self._scenario(distance, rx_r=0.03)
            x = wavenumber(F_CARRIER) * 0.03 * 0.03 / distance
            best = max(range(1, 10), key=lambda l: abs(bessel_j(l, x)))
            assert select_modes(scen) == (-best, best)

    def test_default_scenario_uses_unit_modes(self):
        scen = self._scenario(0.4)
        assert select_modes(scen) == (-1, 1)


class TestWeight:
    def test_equal_amplitudes(self):
        for scheme in ("uniform", "amplitude", "amplitude-squared"):
            assert np.allclose(weight([2.0, 2.0, 2.0], scheme), 1.0)

    def test_zero_amplitude_floors(self):
        lam = weight([0.0, 1.0], "amplitude")
        assert lam[0] == pytest.approx(1e-12)
        assert lam[0] > 0

    def test_amplitude_squared_example(self):
        assert np.allclose(weight([1.0, 2.0], "amplitude-squared"), [0.4, 1.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight([-1.0, 1.0])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            weight([1.0], "cubed")


class TestLoss:
    def test_zero_at_generating_angles(self):
        scen, pose, tensor, config = make_setup(33.0, -147.0)
        theta, phi = misalignment_angles(pose)
        g = gamma(pose)
        phases = cross_modal_phase_set(
            tensor, replace(config, weighting="uniform"), scen.rx.n_elements)
        assert loss(theta, phi, g, phases) <= 1e-18

    def test_half_turn_family_also_zero(self):
        scen, pose, tensor, config = make_setup(33.0, -147.0)
        theta, phi = misalignment_angles(pose)
        g = gamma(pose)
        phases = cross_modal_phase_set(
            tensor, replace(config, weighting="uniform"), scen.rx.n_elements)
        phi_alt = np.angle(np.exp(1j * (phi + np.pi)))
        g_alt = np.angle(np.exp(1j * (g - np.pi)))
        assert loss(theta, phi_alt, g_alt, phases) <= 1e-18

    def test_opposed_phase_contributes_four_lambda(self):
        # One term whose measured and modeled doubled phases differ by pi.
        phases = CrossModalPhaseSet(
            antenna=np.array([0]), azimuth=np.array([0.0]), dl=np.array([1]),
            target=np.exp(2j * np.array([np.pi / 4])), weight=np.array([2.5]),
            inv_var=np.array([1.0]))
        # model angle: dl*(delta+gamma) with delta(0, phi=0, az=0)=0
        val = loss(0.0, 0.0, np.pi / 4 + np.pi / 2, phases)
        assert val == pytest.approx(4 * 2.5, rel=1e-12)

    def test_weighting_schemes_share_minimizer_noiseless(self):
        scen, pose, tensor, _ = make_setup(38.0, -112.0)
        truth = misalignment_angles(pose)
        for scheme in ("uniform", "amplitude", "amplitude-squared"):
            config = EstimationConfig(
                modes=(-1, 1), antennas=tuple(select_antennas(20, 6)),
                subcarriers_hz=(F_CARRIER,), weighting=scheme)
            est = estimate(tensor, scen, config)
            assert abs(np.rad2deg(est.theta - truth[0])) < 1e-4
            assert np.rad2deg(circ_err(est.phi, truth[1])) < 1e-4


class TestEstimate:
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1), (-2, -1, 1, 2)])
    def test_noiseless_recovery(self, modes):
        scen, pose, tensor, config = make_setup(30.0, -120.0, modes=modes)
        est = estimate(tensor, scen, config)
        theta, phi = misalignment_angles(pose)
        assert abs(np.rad2deg(est.theta - theta)) < 0.1
        assert np.rad2deg(circ_err(est.phi, phi)) < 0.1
        assert est.residual < 1e-15
        # gamma is known modulo pi/g, g the gcd of the mode differences;
        # the estimate is the copy in (-pi/(2g), pi/(2g)].
        g = np.gcd.reduce(np.unique(np.diff(sorted(modes))))
        assert -np.pi / (2 * g) < est.gamma <= np.pi / (2 * g)
        assert circ_err(2 * g * est.gamma, 2 * g * gamma(pose)) < 1e-9

    def test_aligned_returns_small_theta(self):
        scen, pose, tensor, config = make_setup(0.0, 0.0)
        est = estimate(tensor, scen, config)
        assert np.rad2deg(est.theta) < 3.0

    def test_near_aligned_recovery(self):
        # The winning cell sits on the theta = 0 grid row, where the loss
        # is stationary in theta; the refine must still leave that row.
        for theta_deg in (0.5, 1.0):
            scen, pose, tensor, config = make_setup(theta_deg, -60.0)
            est = estimate(tensor, scen, config)
            theta, _phi = misalignment_angles(pose)
            assert est.diagnostics["grid_theta"] == 0.0
            assert abs(np.rad2deg(est.theta - theta)) < 0.05

    def test_minimum_measurement_q3(self):
        scen, pose, tensor, _ = make_setup(35.0, -125.0)
        config = EstimationConfig(
            modes=(-1, 1), antennas=tuple(select_antennas(20, 3)),
            subcarriers_hz=(F_CARRIER,))
        est = estimate(tensor, scen, config)
        theta, phi = misalignment_angles(pose)
        assert abs(np.rad2deg(est.theta - theta)) < 0.1
        assert np.rad2deg(circ_err(est.phi, phi)) < 0.1

    def test_global_scale_invariance(self):
        scen, pose, tensor, config = make_setup(42.0, -155.0)
        est_a = estimate(tensor, scen, config)
        scaled = tensor
        scaled.values = tensor.values * (2.0 - 3.0j)
        est_b = estimate(scaled, scen, config)
        assert abs(est_a.theta - est_b.theta) < 1e-9
        assert circ_err(est_a.phi, est_b.phi) < 1e-9

    def test_frequency_invariance(self):
        scen, pose, _t, _c = make_setup(26.0, -105.0)
        results = []
        for sub in (SUBS[0], SUBS[70]):
            tensor = simulate_measurement(scen, pose, (-1, 1), [sub])
            config = EstimationConfig(
                modes=(-1, 1), antennas=tuple(select_antennas(20, 6)),
                subcarriers_hz=(sub,))
            results.append(estimate(tensor, scen, config))
        assert abs(results[0].theta - results[1].theta) < 1e-6
        assert circ_err(results[0].phi, results[1].phi) < 1e-6

    def test_ambiguity_resolution_keeps_higher_power(self):
        _scen, _pose, tensor, config = make_setup(30.0, -120.0)
        est = estimate(tensor, _scen, config)
        d = est.diagnostics
        assert d["corrected_power_kept"] >= d["corrected_power_rejected"]

    def test_near_field_exact_oracle(self):
        scen, pose, tensor, config = make_setup(30.0, -120.0, model="exact")
        est = estimate(tensor, scen, config)
        theta, phi = misalignment_angles(pose)
        assert abs(np.rad2deg(est.theta - theta)) < 0.1
        assert np.rad2deg(circ_err(est.phi, phi)) < 0.1

    def test_subset_tensor_uses_labels(self):
        # A tensor holding only the selected elements: rows are positions,
        # ``antennas`` are ring labels, and azimuths follow the ring size.
        scen, pose, full, config = make_setup(30.0, -120.0)
        ants = np.asarray(config.antennas)
        subset = SampleTensor(full.values[ants], ants, full.modes,
                              full.subcarriers_hz)
        est = estimate(subset, scen, config)
        theta, phi = misalignment_angles(pose)
        assert abs(np.rad2deg(est.theta - theta)) < 0.1
        assert np.rad2deg(circ_err(est.phi, phi)) < 0.1

    def test_missing_labels_raise_missing_samples(self):
        # A six-element subset tensor without configured antenna 17, and a
        # subcarrier the tensor does not hold.
        scen, _pose, full, config = make_setup(30.0, -120.0)
        ants = np.array([*config.antennas[:5], 1])
        subset = SampleTensor(full.values[ants], ants, full.modes,
                              full.subcarriers_hz)
        with pytest.raises(MissingSamplesError):
            estimate(subset, scen, config)
        with pytest.raises(MissingSamplesError):
            estimate(full, scen, replace(config, subcarriers_hz=(SUBS[1],)))

    def test_rejects_diametric_triplet(self):
        scen, _pose, tensor, _ = make_setup(30.0, -120.0)
        config = EstimationConfig(
            modes=(-1, 1), antennas=(0, 5, 10), subcarriers_hz=(F_CARRIER,))
        with pytest.raises(DegenerateGeometryError):
            estimate(tensor, scen, config)

    def test_rejects_single_mode(self):
        scen, _pose, tensor, _ = make_setup(30.0, -120.0, modes=(-1, 1))
        config = EstimationConfig(
            modes=(1,), antennas=tuple(select_antennas(20, 6)),
            subcarriers_hz=(F_CARRIER,))
        with pytest.raises(DegenerateGeometryError):
            estimate(tensor, scen, config)

    def test_no_power(self):
        from vortex_align.channel import SampleTensor

        scen, _pose, _tensor, config = make_setup(30.0, -120.0)
        zeros = SampleTensor(np.zeros((20, 2, 1), dtype=complex), np.arange(20),
                             (-1, 1), np.array([F_CARRIER]))
        with pytest.raises(NoPowerError):
            estimate(zeros, scen, config)


def _terms_and_cells(theta_deg, phi_deg, snr_db):
    scen, pose, tensor, config = make_setup(theta_deg, phi_deg, snr_db=snr_db,
                                            seed=3)
    terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
    cells = _coarse_candidates(terms, config, tensor, scen)
    return pose, config, terms, cells


class TestBatchedRefine:
    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(5)
        n_terms = 12
        antenna = rng.integers(0, 20, n_terms)
        az = 2 * np.pi * antenna / 20
        terms = CrossModalPhaseSet(
            antenna=antenna,
            azimuth=az,
            dl=rng.choice([-2, 2, 4], n_terms),
            target=np.exp(2j * rng.uniform(-np.pi / 2, np.pi / 2, n_terms)),
            weight=rng.uniform(0.2, 2.0, n_terms),
            inv_var=np.ones(n_terms),
        )
        x = np.column_stack([
            rng.uniform(0.0, 1.5, 40),
            rng.uniform(-np.pi, np.pi, 40),
            rng.uniform(-np.pi, np.pi, 40),
        ])
        x[:10, 0] = rng.uniform(1e-5, 1e-3, 10)  # theta near 0
        # u = phi - phi_m near +-pi/2 for the first term
        x[10:20, 1] = az[0] + np.pi / 2 * rng.choice([-1, 1], 10) + 1e-4
        _res, jac = _residuals(x, terms)
        h = 1e-6
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            numeric = (_residuals(x + dx, terms)[0]
                       - _residuals(x - dx, terms)[0]) / (2 * h)
            np.testing.assert_allclose(
                jac[..., k], numeric, rtol=1e-6,
                atol=1e-6 * np.abs(jac[..., k]).max())

    @pytest.mark.parametrize("dls", [(2,), (1, 2), (1, 2, 3, 4)])
    def test_projected_gradient_matches_profiled_cost(self, dls):
        # Kaufman's J_p is not the Jacobian of the profiled residuals, but
        # J_p^T r is the gradient of the profiled cost, with gamma solved.
        rng = np.random.default_rng(6)
        n_terms = 12
        az = 2 * np.pi * rng.integers(0, 20, n_terms) / 20
        terms = CrossModalPhaseSet(
            antenna=np.zeros(n_terms), azimuth=az,
            dl=np.resize(dls, n_terms),
            target=np.exp(2j * rng.uniform(-np.pi / 2, np.pi / 2, n_terms)),
            weight=rng.uniform(0.2, 2.0, n_terms), inv_var=np.ones(n_terms))
        x = np.column_stack([rng.uniform(0.05, 1.5, 40),
                             rng.uniform(-np.pi, np.pi, 40)])

        def profiled_cost(points):
            spin = np.exp(-2j * terms.dl * delta(points[:, :1], points[:, 1:], az))
            return _profile_gamma(spin, terms)[1]

        _gamma, res, jac_p = _profiled(x, terms)
        np.testing.assert_allclose(np.sum(res**2, axis=1), profiled_cost(x),
                                   rtol=1e-12, atol=1e-12)
        grad = 2.0 * np.einsum("ntk,nt->nk", jac_p, res)
        h = 1e-6
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = h
            numeric = (profiled_cost(x + dx) - profiled_cost(x - dx)) / (2 * h)
            np.testing.assert_allclose(grad[:, k], numeric, rtol=1e-5,
                                       atol=1e-6 * np.abs(grad).max())

    def test_iterates_stay_in_box(self, monkeypatch):
        _pose, config, terms, cells = _terms_and_cells(30.0, -120.0, 5.0)
        g = np.deg2rad(config.grid_deg)
        for cell in cells:
            seen = []

            def recording(x, t, _inner=_profiled):
                seen.append(x.copy())
                return _inner(x, t)

            monkeypatch.setattr(estimator_module, "_profiled", recording)
            _refine_cells([cell], terms, config)
            monkeypatch.undo()
            pts = np.vstack(seen)
            x0 = np.asarray(cell[:2])
            lower = np.maximum(x0 - g, [0.0, -np.inf])
            upper = np.minimum(x0 + g, [np.pi / 2, np.inf])
            assert pts.shape[1] == 2 and len(pts) > 2
            assert np.all((pts >= lower) & (pts <= upper))

    def test_batch_matches_single_cells(self):
        _pose, config, terms, cells = _terms_and_cells(30.0, -120.0, 10.0)
        batch = _refine_cells(cells, terms, config)
        for cell, (x, cost, n_iter) in zip(cells, batch):
            x1, cost1, n_iter1 = _refine_cells([cell], terms, config)[0]
            np.testing.assert_allclose(x, x1, rtol=0, atol=1e-15)
            assert cost == pytest.approx(cost1, rel=1e-12, abs=1e-300)
            assert n_iter == n_iter1

    def test_recovers_noiseless_from_neighbour_cell(self):
        pose, config, terms, _cells = _terms_and_cells(33.0, -147.0, None)
        theta, phi = misalignment_angles(pose)
        truth = np.array([theta, phi])
        g = np.deg2rad(config.grid_deg)
        for sign in (-1.0, 1.0):
            start = truth + sign * g
            x, cost, _n = _refine_cells([(*start, 0.0, 0.0)], terms, config)[0]
            assert np.max(np.abs(np.angle(np.exp(1j * (x - truth))))) < 1e-6
            assert cost < 1e-20
            # Modes +-1: gamma is known modulo pi/2.
            gamma_hat = _profiled(x[None, :], terms)[0][0]
            assert circ_err(4 * gamma_hat, 4 * gamma(pose)) < 1e-6


class TestBesselFactors:
    X = np.linspace(0.0, 20.0, 401)

    def test_matches_mpmath(self):
        with mpmath.workdps(30):
            for l in range(4):
                want = np.array([float(mpmath.besselj(l, x)) for x in self.X])
                got = _bessel_factors((l,), self.X)[0]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_negative_orders_reflect(self):
        for l in range(1, 4):
            neg, pos = _bessel_factors((-l, l), self.X)
            np.testing.assert_array_equal(neg, (-1) ** l * pos)


def _diverse_walk(ranking, count, n_phi, spacing=3):
    kept = []
    for flat in ranking:
        it, ip = divmod(int(flat), n_phi)
        if all(max(abs(it - jt), min(abs(ip - jp), n_phi - abs(ip - jp))) >= spacing
               for jt, jp in kept):
            kept.append((it, ip))
            if len(kept) == count:
                break
    return kept


def gamma_sums(terms, spin):
    """Per distinct dl, c_d = sum of lambda e^{2iu} spin over its terms."""
    dls = np.unique(terms.dl)
    coef = terms.weight * terms.target * spin
    return dls, np.stack([coef[:, terms.dl == d].sum(axis=1) for d in dls], axis=1)


def brute_profile(terms, spin, n_fine=512):
    """Minimise the loss over gamma by search: (gamma, loss) per point.

    Evaluates f(gamma) = Re sum_d c_d e^{-2i d gamma} on ``n_fine`` points
    of one period, then polishes every local maximum of that search with
    Newton steps on f' and keeps the best, so two nearly equal maxima
    cannot be confused.  gamma is returned in (-pi/(2g), pi/(2g)].
    """
    dls, c = gamma_sums(terms, spin)
    half = np.pi / (2 * np.gcd.reduce(dls))
    fine = np.linspace(-half, half, n_fine, endpoint=False)
    wave = 2 * np.outer(dls, fine)
    f = c.real @ np.cos(wave) + c.imag @ np.sin(wave)
    rows, idx = np.nonzero((f >= np.roll(f, 1, axis=1)) & (f >= np.roll(f, -1, axis=1)))
    gam = fine[idx]
    for _ in range(30):
        w = c[rows] * np.exp(-2j * np.outer(gam, dls))
        slope = (w.imag * 2 * dls).sum(axis=1)
        curv = (w.real * 4 * dls**2).sum(axis=1)
        gam = gam + np.clip(slope / curv, -2 * half / n_fine, 2 * half / n_fine)
    value = (c[rows] * np.exp(-2j * np.outer(gam, dls))).real.sum(axis=1)
    best = np.full(len(c), -np.inf)
    out = np.zeros(len(c))
    for r, v, ga in zip(rows, value, gam):
        if v > best[r]:
            best[r], out[r] = v, ga
    out = half - np.mod(half - out, 2 * half)
    return out, 2.0 * terms.weight.sum() - 2.0 * best


def full_coarse_candidates(terms, config, tensor, scen):
    """The coarse search built in full, without the estimator's tables.

    Minimises the loss over gamma in every (theta, phi) cell by search
    (``brute_profile``), and builds the matched-power map from the profile
    of every cell at every probed subcarrier and mode.  Also returns the
    grid axes and the per-cell gamma and loss.
    """
    g_th, g_ph = np.deg2rad(config.grid_deg)
    thetas = np.arange(0.0, np.pi / 2 - 1e-12, g_th)
    phis = -np.pi + g_ph * np.arange(1, int(round(2 * np.pi / g_ph)) + 1)
    th, ph = (a[..., None] for a in np.meshgrid(thetas, phis, indexing="ij"))
    az = scen.rx.element_azimuths[list(config.antennas)]
    d = delta(th, ph, az)
    pair_dl = np.array([li - lj for li, lj in _mode_pairs(config.modes)])
    spin = np.exp(-2j * d[..., None] * pair_dl).reshape(len(thetas) * len(phis), -1)
    gammas, losses = brute_profile(terms, spin)

    rows = [tensor.antenna_index(m) for m in config.antennas]
    subs = config.subcarriers_hz
    if len(subs) > 4:  # the power map probes at most four subcarriers
        subs = [subs[i] for i in np.linspace(0, len(subs) - 1, 4).astype(int)]
    a_r, a_t, r = scen.rx.radius_m, scen.tx.radius_m, scen.pose.distance_m
    power = np.zeros((len(thetas), len(phis)))
    for f, ki in zip(subs, tensor.subcarrier_indices(subs)):
        k = wavenumber(f)
        for l in config.modes:
            profile = (
                np.exp(1j * k * a_r * np.sin(th) * np.cos(ph - az))
                * np.exp(1j * l * d)
                * bessel_j(l, k * a_r * a_t * rho(th, ph, az) / r)
            )
            y = tensor.values[rows, tensor.mode_index(l), ki]
            power += np.abs(np.conj(profile) @ y) ** 2

    n_phi = len(phis)
    cells = _diverse_walk(np.argsort(-power.ravel(), kind="stable"), 4, n_phi)
    by_loss = np.argsort(losses, kind="stable")
    cells += [c for c in _diverse_walk(by_loss, 4, n_phi) if c not in cells]
    out = [(thetas[it], phis[ip], gammas[it * n_phi + ip], losses[it * n_phi + ip])
           for it, ip in cells]
    return out, (thetas, phis, gammas, losses)


class TestCoarseGrid:
    @pytest.mark.parametrize("model", ["farfield", "exact"])
    @pytest.mark.parametrize("p", [1, 64])
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1)])
    def test_matches_full_loss_cube_and_power_profiles(self, model, p, modes):
        scen, _pose, tensor, config = make_setup(
            30.0, -120.0, subcarriers=tuple(SUBS[:p]), modes=modes, snr_db=10.0,
            seed=11, model=model,
        )
        terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        got = _coarse_candidates(terms, config, tensor, scen)
        want, (thetas, phis, gammas, losses) = full_coarse_candidates(
            terms, config, tensor, scen
        )
        assert len(np.unique(terms.dl)) == len(modes) - 1
        # The same cells in the same order.  The loss of (theta, phi + pi)
        # equals that of (theta, phi), so the order within such a pair is
        # decided by rounding, and the cells are compared modulo that turn.
        # With one distinct dl the loss ranking is exact; with several it
        # is checked for these setups.
        def key(cell):
            return round(np.rad2deg(cell[0]), 9), round(np.rad2deg(cell[1]) % 180, 9)

        assert [key(c) for c in got] == [key(c) for c in want]
        assert [c[:2] for c in got[:4]] == [c[:2] for c in want[:4]]
        half = np.pi / (2 * np.gcd.reduce(np.unique(terms.dl)))
        for (_t, _p, ga, lo), (_tw, _pw, ga_w, lo_w) in zip(got, want):
            assert -half < ga <= half
            assert abs(ga - ga_w) < 1e-12
            assert abs(lo - lo_w) < 1e-12
        # The searched loss is the weighted loss at its gamma, cell by cell.
        n_phi = len(phis)
        for it, ip in [(0, 0), (7, 50), (29, 119)]:
            cell = it * n_phi + ip
            assert losses[cell] == pytest.approx(
                loss(thetas[it], phis[ip], gammas[cell], terms), abs=1e-12)


class TestProfileGamma:
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1), (-2, -1, 1, 2)])
    def test_matches_dense_gamma_search(self, modes):
        # 40,001 gamma per period against the closed form (one dl) or the
        # multi-start Newton solve (several), at 300 random (theta, phi).
        rng = np.random.default_rng(8)
        for snr_db, seed in [(None, 0), (10.0, 1), (0.0, 2)]:
            scen, _pose, tensor, config = make_setup(
                27.0, -133.0, modes=modes, snr_db=snr_db, seed=seed)
            terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
            th = rng.uniform(0.0, np.pi / 2, (300, 1))
            ph = rng.uniform(-np.pi, np.pi, (300, 1))
            spin = np.exp(-2j * terms.dl * delta(th, ph, terms.azimuth))
            got_gamma, got_loss = _profile_gamma(spin, terms)

            dls, c = gamma_sums(terms, spin)
            half = np.pi / (2 * np.gcd.reduce(dls))
            dense = np.linspace(-half, half, 40_001)
            wave = 2 * np.outer(dls, dense)
            f_max = (c.real @ np.cos(wave) + c.imag @ np.sin(wave)).max(axis=1)
            total = 2.0 * terms.weight.sum()
            # Never above the search; below it by at most the search's own
            # discretisation error, sup|f''| (step/2)^2 / 2, doubled.
            slack = (np.abs(c) @ (4.0 * dls**2)) * (dense[1] - dense[0]) ** 2 / 4
            assert np.all(got_loss <= total - 2 * f_max + 5e-16 * total)
            assert np.all(got_loss >= total - 2 * f_max - slack)
            assert np.all((got_gamma > -half) & (got_gamma <= half))
            for i in range(0, 300, 37):
                assert got_loss[i] == pytest.approx(
                    loss(th[i, 0], ph[i, 0], got_gamma[i], terms), abs=1e-12)


class TestImports:
    def test_estimator_does_not_load_scipy_optimize(self):
        # The refine is a hand-written Levenberg-Marquardt solve; importing
        # the estimator in a fresh interpreter must not pull in an optimizer.
        src = str(Path(estimator_module.__file__).resolve().parents[1])
        code = ("import sys, vortex_align.estimator; "
                "sys.exit('scipy.optimize' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


class TestEstimationConfig:
    def test_rejects_duplicate_modes(self):
        with pytest.raises(ValueError):
            EstimationConfig(modes=(1, 1), antennas=(0, 1, 2),
                             subcarriers_hz=(F_CARRIER,))

    def test_rejects_unknown_weighting(self):
        with pytest.raises(ValueError):
            EstimationConfig(modes=(-1, 1), antennas=(0, 1, 2),
                             subcarriers_hz=(F_CARRIER,), weighting="magic")

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            EstimationConfig(modes=(-1, 1), antennas=(0, 1, 2),
                             subcarriers_hz=(F_CARRIER,), grid_deg=(0.0, 3))

    def test_rejects_gamma_grid(self):
        with pytest.raises(ValueError, match="gamma is solved, no longer gridded"):
            EstimationConfig(modes=(-1, 1), antennas=(0, 1, 2),
                             subcarriers_hz=(F_CARRIER,), grid_deg=(3, 3, 3))
