import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vortex_align.channel import (
    NoiseSpec,
    SampleTensor,
    _bessel,
    delta,
    farfield_geometry,
    farfield_pattern,
    rho,
    simulate_measurement,
    wavenumber,
)
from vortex_align.estimator import (
    CrossModalPhaseSet,
    DegenerateGeometryError,
    EstimationConfig,
    InfeasibleSelectionError,
    MisalignmentEstimate,
    MissingSamplesError,
    NoPowerError,
    ZeroPowerError,
    estimate,
    estimate_trials,
    select_antennas,
    weight,
)
from vortex_align import estimator as estimator_module
from vortex_align.estimator import (
    _GAMMA_NEWTON_STEPS,
    _GAMMA_SAMPLES,
    _coarse_candidates,
    _diametric_pair,
    _grid_power,
    _grid_tables,
    _mode_pairs,
    _model,
    _peak,
    _phase_sets,
    _positions,
    _profiled,
    _refine_cells,
    _residuals,
    _validate_config,
    _walk,
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
    config = EstimationConfig(modes=modes, antennas=tuple(select_antennas(rx_n, q)))
    return scen, pose, tensor, config


def circ_err(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


class TestCrossModalPhase:
    def test_matches_model_noiseless(self):
        scen, pose, tensor, config = make_setup(27.0, -133.0)
        theta, phi = misalignment_angles(pose)
        phases = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        np.testing.assert_array_equal(
            phases.azimuth, scen.rx.element_azimuths[list(config.antennas)])
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
        with pytest.raises(MissingSamplesError, match="mode 2 not present"):
            cross_modal_phase_set(tensor, replace(config, modes=(1, 2)),
                                  scen.rx.n_elements)

    def test_zero_power(self):
        # Only the row labelled 7 is silent: the error names that antenna and
        # the pair, and the other rows keep the power floor check quiet.
        values = np.ones((4, 2, 1), dtype=complex)
        values[2] = 0.0
        tensor = SampleTensor(values, np.array([1, 4, 7, 12]), (-1, 1),
                              np.array([F_CARRIER]))
        config = EstimationConfig(modes=(-1, 1), antennas=(1, 4, 7))
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

        def term(m, l_i, l_j):
            y = tensor.values[tensor.antenna_index(m)]
            acc = np.sum((y[tensor.mode_index(l_i)]
                          * np.conj(y[tensor.mode_index(l_j)])) ** 2)
            return np.exp(2j * (0.5 * np.angle(acc)))

        expected = [term(m, li, lj) for m in config.antennas for li, lj in pairs]
        np.testing.assert_array_equal(phases.target[0], expected)
        np.testing.assert_array_equal(phases.dl, np.tile([1, 2, 1], 12))
        np.testing.assert_array_equal(
            phases.azimuth, scen.rx.element_azimuths[np.repeat(config.antennas, 3)])

    def test_subcarrier_averaging_reduces_spread(self):
        # Monte Carlo: the circular spread of the doubled phase shrinks
        # when 32 subcarriers are pooled instead of one.
        rng = np.random.default_rng(17)
        singles, pooled = [], []
        ry, rx_tilt = tilt_for_angles(np.deg2rad(30.0), np.deg2rad(-120.0))
        pose = RxPose.from_tilt(0.4, ry, rx_tilt)
        scen = Scenario(UcaGeometry(160, 0.03), UcaGeometry(20, 0.008), pose,
                        F_CARRIER, SUBS)
        config = EstimationConfig(modes=(-1, 1), antennas=(0,))
        for trial in range(300):
            tensor = simulate_measurement(
                scen, pose, (-1, 1), SUBS[:32],
                NoiseSpec(snr_db=10.0, seed=int(rng.integers(2**32))))
            single = SampleTensor(tensor.values[:, :, :1], tensor.antennas,
                                  tensor.modes, tensor.subcarriers_hz[:1])
            singles.append(cross_modal_phase_set(single, config, 20).target[0, 0])
            pooled.append(cross_modal_phase_set(tensor, config, 20).target[0, 0])

        def circ_spread(z):
            return 1.0 - abs(np.mean(z))

        assert circ_spread(pooled) < circ_spread(singles)


def repair_search(n_rx, q):
    """The earlier selection: from the evenly spread base set, advance the
    later label of the first diametric pair to the next free label, until
    no pair is left (an even ring with q > n_rx/2 fills its first half ring,
    then spreads the rest)."""
    step = math.ceil(n_rx / q)
    if (q - 1) * step <= n_rx - 1:
        base = [j * step for j in range(q)]
    else:
        base = [(j * n_rx) // q for j in range(q)]
    if n_rx % 2 == 0 and q > n_rx // 2:
        half = n_rx // 2
        return list(range(half)) + [half + (j * half) // (q - half) for j in range(q - half)]
    selected = list(base)
    for _ in range(n_rx * q):
        pairs = [b for a in range(q) for b in range(a + 1, q)
                 if 2 * ((selected[a] - selected[b]) % n_rx) == n_rx]
        if not pairs:
            return selected
        nxt = (selected[pairs[0]] + 1) % n_rx
        while nxt in selected:
            nxt = (nxt + 1) % n_rx
        selected[pairs[0]] = nxt
    return base


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
        # 12 of 20 cannot avoid a diametric pair: the first half ring is
        # filled, then the rest spread over the second half.
        sel = select_antennas(20, 12)
        assert len(set(sel)) == 12
        assert all(0 <= m < 20 for m in sel)

    def test_rule_matches_the_repair_search(self):
        # The base set, with its later half moved one label on when it holds
        # a diametric pair, is where the pair-by-pair repair search ends.
        assert select_antennas(20, 5) == [0, 4, 8, 12, 16]
        assert select_antennas(20, 12) == list(range(11)) + [15]
        for n in range(3, 65):
            for q in range(3, n + 1):
                if (n, q) == (4, 3):
                    # The repair search ends on a diametric pair there; the
                    # rule raises instead (next test).
                    assert _diametric_pair(repair_search(n, q), n) is not None
                    continue
                assert select_antennas(n, q) == repair_search(n, q), (n, q)

    def test_every_selection_is_accepted_by_the_estimator(self):
        # q = 3 of a 4-element ring was returned as [0, 1, 2], which holds a
        # diametric pair, so every run with it exited 3 at its first batch.
        for n in range(3, 65):
            for q in range(3, n + 1):
                try:
                    antennas = tuple(select_antennas(n, q))
                except InfeasibleSelectionError:
                    assert (n, q) == (4, 3)
                    continue
                _validate_config(EstimationConfig(modes=(-1, 1), antennas=antennas), n)

    def test_infeasible_inputs(self):
        with pytest.raises(InfeasibleSelectionError):
            select_antennas(2, 3)
        with pytest.raises(InfeasibleSelectionError):
            select_antennas(10, 11)
        with pytest.raises(InfeasibleSelectionError):
            select_antennas(10, 2)


class TestWeight:
    def test_equal_amplitudes(self):
        assert np.allclose(weight([2.0, 2.0, 2.0]), 1.0)

    def test_zero_amplitude_floors(self):
        lam = weight([0.0, 1.0])
        assert lam[0] == pytest.approx(1e-12)
        assert lam[0] > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight([-1.0, 1.0])


class TestLoss:
    def test_zero_at_generating_angles(self):
        scen, pose, tensor, config = make_setup(33.0, -147.0)
        theta, phi = misalignment_angles(pose)
        g = gamma(pose)
        phases = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        assert loss(theta, phi, g, phases) <= 1e-18

    def test_half_turn_family_also_zero(self):
        scen, pose, tensor, config = make_setup(33.0, -147.0)
        theta, phi = misalignment_angles(pose)
        g = gamma(pose)
        phases = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        phi_alt = np.angle(np.exp(1j * (phi + np.pi)))
        g_alt = np.angle(np.exp(1j * (g - np.pi)))
        assert loss(theta, phi_alt, g_alt, phases) <= 1e-18

    def test_opposed_phase_contributes_four_lambda(self):
        # One term whose measured and modeled doubled phases differ by pi.
        phases = CrossModalPhaseSet(
            azimuth=np.array([0.0]), dl=np.array([1]),
            target=np.exp(2j * np.array([np.pi / 4])), weight=np.array([2.5]),
            inv_var=np.array([1.0]))
        # model angle: dl*(delta+gamma) with delta(0, phi=0, az=0)=0
        val = loss(0.0, 0.0, np.pi / 4 + np.pi / 2, phases)
        assert val == pytest.approx(4 * 2.5, rel=1e-12)

    def test_weighting_schemes_share_minimizer_noiseless(self):
        # The amplitude-weighted loss keeps the noiseless truth as its minimum.
        scen, pose, tensor, _ = make_setup(38.0, -112.0)
        truth = misalignment_angles(pose)
        config = EstimationConfig(
            modes=(-1, 1), antennas=tuple(select_antennas(20, 6)))
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

    def test_near_boresight_recovers_both_angles(self):
        # At theta = 0 all phi cells of the grid are one point, so their
        # order is set by rounding; the refine from that row must still
        # reach the true azimuth.  Azimuths sit off the 3-degree grid.
        misses = []
        for theta_deg in (0.5, 1.0, 2.0):
            for phi_deg in -173.0 + 30.0 * np.arange(12):
                scen, pose, tensor, config = make_setup(theta_deg, phi_deg)
                est = estimate(tensor, scen, config)
                theta, phi = misalignment_angles(pose)
                err = (np.rad2deg(abs(est.theta - theta)),
                       np.rad2deg(circ_err(est.phi, phi)))
                if err[0] >= 0.05 or err[1] >= 0.1:
                    misses.append((theta_deg, phi_deg, *err))
        assert not misses

    def test_minimum_measurement_q3(self):
        scen, pose, tensor, _ = make_setup(35.0, -125.0)
        config = EstimationConfig(
            modes=(-1, 1), antennas=tuple(select_antennas(20, 3)))
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
        scen, pose, _t, config = make_setup(26.0, -105.0)
        results = []
        for sub in (SUBS[0], SUBS[70]):
            tensor = simulate_measurement(scen, pose, (-1, 1), [sub])
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
        # A six-element subset tensor without configured antenna 17.
        scen, _pose, full, config = make_setup(30.0, -120.0)
        ants = np.array([*config.antennas[:5], 1])
        subset = SampleTensor(full.values[ants], ants, full.modes,
                              full.subcarriers_hz)
        with pytest.raises(MissingSamplesError):
            estimate(subset, scen, config)

    def test_rejects_tensor_without_subcarriers(self):
        scen, _pose, _tensor, config = make_setup(30.0, -120.0)
        empty = SampleTensor(np.zeros((20, 2, 0), dtype=complex), np.arange(20),
                             (-1, 1), np.array([]))
        with pytest.raises(DegenerateGeometryError, match="at least 1 subcarrier"):
            estimate(empty, scen, config)

    def test_rejects_diametric_triplet(self):
        scen, _pose, tensor, _ = make_setup(30.0, -120.0)
        config = EstimationConfig(modes=(-1, 1), antennas=(0, 5, 10))
        with pytest.raises(DegenerateGeometryError):
            estimate(tensor, scen, config)

    def test_rejects_single_mode(self):
        scen, _pose, tensor, _ = make_setup(30.0, -120.0, modes=(-1, 1))
        config = EstimationConfig(
            modes=(1,), antennas=tuple(select_antennas(20, 6)))
        with pytest.raises(DegenerateGeometryError):
            estimate(tensor, scen, config)

    def test_no_power(self):
        from vortex_align.channel import SampleTensor

        scen, _pose, _tensor, config = make_setup(30.0, -120.0)
        zeros = SampleTensor(np.zeros((20, 2, 1), dtype=complex), np.arange(20),
                             (-1, 1), np.array([F_CARRIER]))
        with pytest.raises(NoPowerError):
            estimate(zeros, scen, config)


def probed(tensor, config):
    """The fitted samples at the power probes' subcarriers, and their wavenumbers.

    The probes read at most four subcarriers, spread over the tensor's.
    """
    n_sub = len(tensor.subcarriers_hz)
    picks = np.linspace(0, n_sub - 1, min(n_sub, 4)).astype(int)
    rows = [tensor.antenna_index(m) for m in config.antennas]
    cols = [tensor.mode_index(l) for l in config.modes]
    return (tensor.values[np.ix_(rows, cols, picks)],
            wavenumber(tensor.subcarriers_hz[picks]))


def coarse(terms, config, tensor, scen):
    """``_coarse_candidates`` of a one-trial batch."""
    block, ks = probed(tensor, config)
    return _coarse_candidates(terms, config, block[None], ks[None], scen)[0]


def _terms_and_cells(theta_deg, phi_deg, snr_db):
    scen, pose, tensor, config = make_setup(theta_deg, phi_deg, snr_db=snr_db,
                                            seed=3)
    terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
    cells = coarse(terms, config, tensor, scen)
    return pose, config, terms, cells


class TestBatchedRefine:
    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(5)
        n_terms = 12
        antenna = rng.integers(0, 20, n_terms)
        az = 2 * np.pi * antenna / 20
        terms = CrossModalPhaseSet(
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

        def residuals(points):
            return _residuals(points[:, :2], terms, points[:, 2])

        _gamma, _res, jac = residuals(x)
        h = 1e-6
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            numeric = (residuals(x + dx)[1] - residuals(x - dx)[1]) / (2 * h)
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
            azimuth=az,
            dl=np.resize(dls, n_terms),
            target=np.exp(2j * rng.uniform(-np.pi / 2, np.pi / 2, n_terms)),
            weight=rng.uniform(0.2, 2.0, n_terms), inv_var=np.ones(n_terms))
        x = np.column_stack([rng.uniform(0.05, 1.5, 40),
                             rng.uniform(-np.pi, np.pi, 40)])

        def profiled_cost(points):
            spin = np.exp(-2j * terms.dl * delta(points[:, :1], points[:, 1:], az))
            f = _peak(terms.weight * terms.target * spin, terms, _GAMMA_NEWTON_STEPS)[1]
            return 2.0 * (terms.weight.sum() - f)

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

    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1)])
    def test_profiled_is_the_residual_function_at_its_gamma(self, modes):
        # The refine's iterate solves gamma and evaluates the residuals and
        # Jacobian in one pass; evaluated directly at (x, gamma*) through the
        # same function they are equal bit for bit, and J_p is Kaufman's
        # projection of that Jacobian.
        rng = np.random.default_rng(13)
        scen, _pose, tensor, config = make_setup(27.0, -133.0, modes=modes,
                                                 snr_db=10.0, seed=1)
        terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
        x = np.column_stack([rng.uniform(0.0, np.pi / 2, 50),
                             rng.uniform(-np.pi, np.pi, 50)])
        x[:5, 0] = rng.uniform(1e-6, 1e-3, 5)
        cells = terms.rows([0] * len(x))
        gamma, res, jac_p = _profiled(x, cells)
        gamma_d, res_d, jac_d = _residuals(x, cells, gamma)
        assert gamma_d is gamma
        np.testing.assert_array_equal(res, res_d)
        j_a, j_g = jac_d[..., :2], jac_d[..., 2:]
        proj = np.sum(j_g * j_a, axis=1, keepdims=True) / np.sum(j_g**2, axis=1)[..., None]
        np.testing.assert_array_equal(jac_p, j_a - j_g * proj)
        # The model the arbitration reads agrees with the residuals too.
        model = estimator_module._model(np.column_stack([x, gamma]), cells)
        np.testing.assert_array_equal(
            res, np.hstack([(cells.sqrt_w * (cells.target - model)).real,
                            (cells.sqrt_w * (cells.target - model)).imag]))

    def test_iterates_stay_in_box(self, monkeypatch):
        _pose, _config, terms, cells = _terms_and_cells(30.0, -120.0, 5.0)
        g = np.deg2rad(estimator_module._GRID_DEG)
        for cell in cells:
            seen = []

            def recording(x, t, _inner=_profiled):
                seen.append(x.copy())
                return _inner(x, t)

            monkeypatch.setattr(estimator_module, "_profiled", recording)
            _refine_cells([cell], terms)
            monkeypatch.undo()
            pts = np.vstack(seen)
            x0 = np.asarray(cell[:2])
            lower = np.maximum(x0 - g, [0.0, -np.inf])
            upper = np.minimum(x0 + g, [np.pi / 2, np.inf])
            assert pts.shape[1] == 2 and len(pts) > 2
            assert np.all((pts >= lower) & (pts <= upper))

    def test_batch_matches_single_cells(self):
        _pose, _config, terms, cells = _terms_and_cells(30.0, -120.0, 10.0)
        batch = _refine_cells(cells, terms.rows([0] * len(cells)))
        for n, cell in enumerate(cells):
            x, gamma_n, cost, n_iter = (out[n] for out in batch)
            x1, gamma1, cost1, n_iter1 = (out[0] for out in _refine_cells([cell], terms))
            np.testing.assert_allclose(x, x1, rtol=0, atol=1e-15)
            assert circ_err(4 * gamma_n, 4 * gamma1) < 1e-12
            assert cost == pytest.approx(cost1, rel=1e-12, abs=1e-300)
            assert n_iter == n_iter1

    def test_recovers_noiseless_from_neighbour_cell(self):
        pose, _config, terms, _cells = _terms_and_cells(33.0, -147.0, None)
        theta, phi = misalignment_angles(pose)
        truth = np.array([theta, phi])
        g = np.deg2rad(estimator_module._GRID_DEG)
        for sign in (-1.0, 1.0):
            start = truth + sign * g
            (x,), (gamma_hat,), (cost,), _n = _refine_cells([tuple(start)], terms)
            assert np.max(np.abs(np.angle(np.exp(1j * (x - truth))))) < 1e-6
            assert cost < 1e-20
            # Modes +-1: gamma is known modulo pi/2.
            assert circ_err(4 * gamma_hat, 4 * gamma(pose)) < 1e-6


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


def cross_modal_phase_set(
    tensor: SampleTensor, config: EstimationConfig, n_elements: int
) -> CrossModalPhaseSet:
    """Every cross-modal phase term of ``config``, with its weight and variance.

    The single-trial call of ``_phase_sets``; raises its noise failure.
    """
    block = tensor.values[np.ix_(*_positions(tensor, config.antennas, config.modes))]
    phases, (failure,) = _phase_sets(block[None], config, n_elements)
    if failure is not None:
        raise failure
    return phases


def loss(theta: float, phi: float, gamma: float, phases: CrossModalPhaseSet) -> float:
    """Weighted circular distance between measured and modeled phases.

    Each term of the single trial of ``phases`` is weighted by
    ``phases.weight``.  Comparison is on the doubled phases (see the
    estimator's module docstring), so per-term values range in [0, 4 * lambda_m].
    """
    x = np.array([[theta, phi, gamma]], dtype=float)
    return float(np.sum(np.abs(phases.target - _model(x, phases)) ** 2 * phases.weight))


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


def sampled_profile(terms, spin):
    """The loss at each point's best gamma sample: (gamma, loss) per point.

    The samples are the ones the grid searches for several dl,
    ``_GAMMA_SAMPLES`` per unit of max(dl)/g over one period pi/g, and
    f(gamma) = Re sum_d c_d e^{-2i d gamma} is summed from complex
    exponentials.  gamma is returned in (-pi/(2g), pi/(2g)].
    """
    dls, c = gamma_sums(terms, spin)
    g = np.gcd.reduce(dls)
    n = _GAMMA_SAMPLES * dls.max() // g
    samples = np.arange(n) * (np.pi / (g * n))
    f = (c @ np.exp(-2j * np.outer(dls, samples))).real
    best = np.argmax(f, axis=1)
    half = np.pi / (2 * g)
    out = half - np.mod(half - samples[best], 2 * half)
    return out, 2.0 * terms.weight.sum() - 2.0 * f[np.arange(len(c)), best]


def full_coarse_candidates(terms, config, tensor, scen):
    """The coarse search built in full, without the estimator's tables.

    Minimises the loss over gamma in every (theta, phi) cell, by search with
    one distinct dl (``brute_profile``) and at the best gamma sample with
    several (``sampled_profile``), and builds the matched-power map from the profile
    of every cell at every probed subcarrier and mode.  Also returns the
    grid axes and the per-cell gamma and loss.
    """
    g_th = g_ph = np.deg2rad(estimator_module._GRID_DEG)
    thetas = np.arange(0.0, np.pi / 2 - 1e-12, g_th)
    phis = -np.pi + g_ph * np.arange(1, int(round(2 * np.pi / g_ph)) + 1)
    th, ph = (a[..., None] for a in np.meshgrid(thetas, phis, indexing="ij"))
    az = scen.rx.element_azimuths[list(config.antennas)]
    d = delta(th, ph, az)
    pair_dl = np.array([li - lj for li, lj in _mode_pairs(config.modes)])
    spin = np.exp(-2j * d[..., None] * pair_dl).reshape(len(thetas) * len(phis), -1)
    profile = brute_profile if len(np.unique(terms.dl)) == 1 else sampled_profile
    gammas, losses = profile(terms, spin)

    rows = [tensor.antenna_index(m) for m in config.antennas]
    n_sub = len(tensor.subcarriers_hz)
    columns = range(n_sub)
    if n_sub > 4:  # the power map probes at most four subcarriers
        columns = np.linspace(0, n_sub - 1, 4).astype(int)
    a_r, a_t, r = scen.rx.radius_m, scen.tx.radius_m, scen.pose.distance_m
    power = np.zeros((len(thetas), len(phis)))
    for ki in columns:
        k = wavenumber(tensor.subcarriers_hz[ki])
        for l in config.modes:
            profile = (
                np.exp(1j * k * a_r * np.sin(th) * np.cos(ph - az))
                * np.exp(1j * l * d)
                * _bessel((l,), k * a_r * a_t * rho(th, ph, az) / r)[0]
            )
            y = tensor.values[rows, tensor.mode_index(l), ki]
            power += np.abs(np.conj(profile) @ y) ** 2

    # Power: the full grid.  Loss: the half grid, phi in (-pi, 0], where
    # phi wraps at pi; the theta = 0 row is one point at its lowest loss,
    # its cells ranked by the loss of the theta = 3 deg cell at their phi.
    n_phi = len(phis)
    half = n_phi // 2
    by_power = _diverse_walk(np.argsort(-power.ravel(), kind="stable"), 4, n_phi)
    half_map = losses.reshape(len(thetas), n_phi)[:, :half].copy()
    half_map[0] = half_map[0].min()
    ties = np.zeros_like(half_map)
    ties[0] = half_map[1]
    by_loss = _diverse_walk(np.lexsort((ties.ravel(), half_map.ravel())), 2, half)
    # No theta > 0 cell joins with its half-turn copy.
    cells = []
    for it, ip in by_power + by_loss:
        if all((it, ip % half if it else ip) != (jt, jp % half if jt else jp)
               for jt, jp in cells):
            cells.append((it, ip))
    out = [(thetas[it], phis[ip]) for it, ip in cells]
    return out, (thetas, phis, gammas, losses)


def check_coarse_grid(scen, tensor, config):
    """``_coarse_candidates`` against ``full_coarse_candidates``."""
    terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
    got = coarse(terms, config, tensor, scen)
    want, (thetas, phis, gammas, losses) = full_coarse_candidates(
        terms, config, tensor, scen
    )
    assert len(np.unique(terms.dl)) == len(config.modes) - 1
    # The same cells in the same order.  The loss list walks the half grid,
    # so no pair of cells ties by the half-turn symmetry and the cells are
    # compared exactly.  With one distinct dl the loss ranking is exact;
    # with several it ranks each cell's best gamma sample, for these setups.
    assert got == want
    # The searched loss is the weighted loss at its gamma, cell by cell.
    n_phi = len(phis)
    for it, ip in [(0, 0), (7, 50), (29, 119)]:
        cell = it * n_phi + ip
        assert losses[cell] == pytest.approx(
            loss(thetas[it], phis[ip], gammas[cell], terms), abs=1e-12)


class TestCoarseGrid:
    @pytest.mark.parametrize("model", ["farfield", "exact"])
    @pytest.mark.parametrize("p", [1, 64])
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1), (-2, 0, 2)])
    def test_matches_full_loss_cube_and_power_profiles(self, model, p, modes):
        scen, _pose, tensor, config = make_setup(
            30.0, -120.0, subcarriers=tuple(SUBS[:p]), modes=modes, snr_db=10.0,
            seed=11, model=model,
        )
        check_coarse_grid(scen, tensor, config)

    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1)])
    @pytest.mark.parametrize("rx_n, q", [(16, 6), (20, 12)])
    def test_matches_full_on_other_rings(self, rx_n, q, modes):
        # A 16-element ring puts its antennas 22.5 degrees apart, off the
        # 3-degree grid, so its (theta, u) table holds 1.5-degree offsets.
        scen, _pose, tensor, config = make_setup(
            30.0, -120.0, subcarriers=tuple(SUBS[:4]), modes=modes, snr_db=10.0,
            seed=11, q=q, rx_n=rx_n,
        )
        check_coarse_grid(scen, tensor, config)

    @pytest.mark.parametrize("model", ["farfield", "exact"])
    @pytest.mark.parametrize("rx_n", [20, 16])
    def test_power_map_matches_full_geometry(self, rx_n, model):
        # The map gathered from the (theta, u) table against the map built
        # from farfield_geometry of every cell at every antenna, at each of
        # the four probed subcarriers; the loss spin likewise.
        modes = (-2, 1, 3)
        scen, _pose, tensor, config = make_setup(
            20.0, 75.0, subcarriers=tuple(SUBS[:9]), modes=modes, snr_db=10.0,
            seed=4, model=model, rx_n=rx_n,
        )
        az = scen.rx.element_azimuths[list(config.antennas)]
        thetas, phis, table, gather, spin = _grid_tables(tuple(az), modes)
        th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
        geometry = farfield_geometry(th, ph, az, modes)
        rows = [tensor.antenna_index(m) for m in config.antennas]
        link = (scen.pose.distance_m, scen.tx, scen.rx)
        want = np.zeros(len(th))
        for ki in np.linspace(0, 8, 4).astype(int):
            k = wavenumber(tensor.subcarriers_hz[ki])
            for li, pattern in enumerate(farfield_pattern(geometry, modes, k, *link)):
                want += np.abs(np.conj(pattern) @ tensor.values[rows, li, ki]) ** 2
        got = _grid_power(*probed(tensor, config), modes, scen, table, gather)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        pair_dl = np.array([li - lj for li, lj in _mode_pairs(modes)])
        # The loss spin covers the half grid, phi in (-pi, 0].
        full_spin = np.exp(-2j * geometry[0][:, :, None] * pair_dl)
        half_spin = full_spin.reshape(len(thetas), len(phis), -1)[:, :len(phis) // 2]
        np.testing.assert_allclose(spin, half_spin.reshape(len(spin), -1),
                                   rtol=0, atol=1e-12)
        assert table[0].shape == (len(thetas), {20: 120, 16: 240}[rx_n])


def batch_of(tensors):
    """The one batch tensor of one-trial ``tensors`` with the same labels."""
    return SampleTensor(np.stack([t.values for t in tensors]), tensors[0].antennas,
                        tensors[0].modes, np.stack([t.subcarriers_hz for t in tensors]))


def noisy_batch(modes, silenced=1):
    """Four trials of mixed poses at 12 dB, one silenced into a noise failure."""
    poses = [(18.0, -150.0), (33.0, -110.0), (47.0, 40.0), (62.0, 170.0)]
    tensors = []
    for n, (theta_deg, phi_deg) in enumerate(poses):
        scen, _pose, tensor, config = make_setup(
            theta_deg, phi_deg, subcarriers=SUBS[:2], modes=modes, snr_db=12.0, seed=n)
        tensors.append(tensor)
    tensors[silenced].values[config.antennas[1], 1] = 0.0
    return scen, tensors, config


class TestBatchedCoarse:
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1), (-2, 0, 2)])
    def test_half_grid_batch_matches_each_trial_on_the_full_grid(self, modes,
                                                                 monkeypatch):
        # The loss map of a batch's live trials, solved once on the half
        # grid, against each trial's own gamma solve over the full grid: a
        # theta > 0 cell and its half-turn copy both read the half-grid
        # value.  The theta = 0 row is one point, read by its lowest loss.
        scen, tensors, config = noisy_batch(modes)
        seen = []

        def recording(spin, terms, _inner=estimator_module._loss_maps):
            seen.append((terms, _inner(spin, terms)))
            return seen[-1][1]

        monkeypatch.setattr(estimator_module, "_loss_maps", recording)
        results = estimate_trials(batch_of(tensors), scen, config)
        assert isinstance(results[1], ZeroPowerError)
        ((terms, batch),) = seen
        assert batch.shape == (3, 1800)
        az = scen.rx.element_azimuths[list(config.antennas)]
        thetas, phis, *_ = _grid_tables(tuple(az), config.modes)
        th, ph = (a.reshape(-1, 1) for a in np.meshgrid(thetas, phis, indexing="ij"))
        pair_dl = np.array([li - lj for li, lj in _mode_pairs(config.modes)])
        full_spin = np.exp(-2j * np.repeat(delta(th, ph, az), len(pair_dl), axis=1)
                           * np.tile(pair_dl, len(az)))
        for n, got in enumerate(batch.reshape(3, len(thetas), -1)):
            one = terms.rows([n])
            f = _peak(one.coef * full_spin, one, 0)[1]
            want = (2.0 * (one.weight.sum() - f)).reshape(len(thetas), 2, len(phis) // 2)
            for copy in (0, 1):
                np.testing.assert_allclose(got[1:], want[1:, copy], rtol=1e-11, atol=0)
                assert got[0].min() == pytest.approx(want[0, copy].min(), rel=1e-11)

    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1)])
    def test_no_list_holds_a_half_turn_copy(self, modes):
        # The loss list walks the half grid and no cell joins with its
        # half-turn copy, so no theta > 0 cell is refined twice.
        rng = np.random.default_rng(17)
        tensors = []
        for n in range(16):
            scen, _pose, tensor, config = make_setup(
                rng.uniform(1.0, 75.0), rng.uniform(-180.0, 180.0), modes=modes,
                subcarriers=SUBS[:2], snr_db=float(rng.choice([5.0, 15.0])), seed=n)
            tensors.append(tensor)
        rows = [tensors[0].antenna_index(m) for m in config.antennas]
        terms, failed = estimator_module._phase_sets(
            np.stack([t.values[rows] for t in tensors]), config, scen.rx.n_elements)
        assert not any(failed)
        block = np.stack([probed(t, config)[0] for t in tensors])
        ks = np.stack([probed(t, config)[1] for t in tensors])
        for cells in _coarse_candidates(terms, config, block, ks, scen):
            assert 2 <= len(cells) <= 6
            turns = [(round(np.rad2deg(t), 9), round(np.rad2deg(p) % 180.0, 9))
                     for t, p in cells if t > 0.0]
            assert len(turns) == len(set(turns))
            assert len(set(cells)) == len(cells)


class TestChainPhaseInvariance:
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1)])
    def test_per_antenna_phasors_leave_the_phase_terms_and_loss_map(self, modes):
        # A phase common to one antenna's RF chain, over all its modes and
        # tones, cancels in y_i y_j* at that antenna: the phase terms and the
        # coarse loss map read the same with each antenna's samples turned by
        # its own unit phasor, drawn per trial.
        rng = np.random.default_rng(29)
        tensors = []
        for n in range(4):
            scen, _pose, tensor, config = make_setup(
                rng.uniform(1.0, 75.0), rng.uniform(-180.0, 180.0), modes=modes,
                subcarriers=SUBS[:3], snr_db=15.0, seed=n)
            tensors.append(tensor)
        at = np.ix_(*estimator_module._positions(tensors[0], config.antennas, config.modes))
        block = np.stack([t.values[at] for t in tensors])
        chains = np.exp(1j * rng.uniform(-np.pi, np.pi, block.shape[:2]))
        (clean, _), (turned, _) = (
            estimator_module._phase_sets(b, config, scen.rx.n_elements)
            for b in (block, block * chains[:, :, None, None]))
        for name in ("target", "weight", "inv_var"):
            np.testing.assert_allclose(getattr(turned, name), getattr(clean, name),
                                       rtol=1e-12, atol=1e-12)
        az = scen.rx.element_azimuths[list(config.antennas)]
        thetas, *_, spin = _grid_tables(tuple(az), config.modes)
        got, want = (estimator_module._loss_maps(spin, terms).reshape(4, len(thetas), -1)
                     for terms in (turned, clean))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def tied_map(rng, edge_tie):
    """A 30 x 120 map that walks read to the bound, flattened.

    Four centres at least five cells apart lead in turn, each followed by
    the 24 other cells of its 5 x 5 block, so a walk for four cells reads
    1 + 3 * 25 = 76 entries.  With ``edge_tie`` the whole theta = 0 row
    ties with the fourth centre, which is where the 76th entry falls.
    """
    values = 1000.0 + rng.integers(0, 50, (30, 120)).astype(float)
    spots = [(3 + 6 * n + int(rng.integers(0, 2)), int(rng.integers(0, 120)))
             for n in range(4)]
    for n, (ct, cp) in enumerate(spots):
        for dt in range(-2, 3):
            for dp in range(-2, 3):
                values[ct + dt, (cp + dp) % 120] = 10 * n + max(abs(dt), abs(dp))
    if edge_tie:
        values[0] = values[spots[3]]
    return values.ravel()


class TestLeadingRanking:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("edge_tie", [False, True])
    def test_walk_matches_the_diverse_walk(self, seed, edge_tie):
        # Masking each kept cell's block keeps the cells that a walk over
        # the full stable ranking keeps, in its order: on a map built to
        # make the walk read the most, on coarse maps full of ties, and on
        # an inf tail after 200 cells.
        assert estimator_module._SHORTLIST_SPACING == 3
        rng = np.random.default_rng(seed)
        inf_tail = np.full(3600, np.inf)
        inf_tail[rng.choice(3600, 200, replace=False)] = rng.integers(0, 40, 200)
        maps = [tied_map(rng, edge_tie), rng.integers(0, 8, 3600).astype(float), inf_tail]
        for values in maps:
            for score in (values, -values):
                ranking = np.argsort(score, kind="stable")
                for count in (1, 2, 4):
                    want = _diverse_walk(ranking, count, 120)
                    assert _walk(score.reshape(30, 120), count) == want


class TestProfileGamma:
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1), (-2, -1, 1, 2), (-2, 0, 2)])
    def test_matches_dense_gamma_search(self, modes):
        # 40,001 gamma per period against the closed form (one dl) or, for
        # several, the Newton solve from each point's best sample and that
        # sample alone (no step), at 300 random (theta, phi).
        rng = np.random.default_rng(8)
        for snr_db, seed in [(None, 0), (10.0, 1), (0.0, 2)]:
            scen, _pose, tensor, config = make_setup(
                27.0, -133.0, modes=modes, snr_db=snr_db, seed=seed)
            terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
            th = rng.uniform(0.0, np.pi / 2, (300, 1))
            ph = rng.uniform(-np.pi, np.pi, (300, 1))
            spin = np.exp(-2j * terms.dl * delta(th, ph, terms.azimuth))
            dls, c = gamma_sums(terms, spin)
            half = np.pi / (2 * np.gcd.reduce(dls))
            dense = np.linspace(-half, half, 40_001)
            wave = 2 * np.outer(dls, dense)
            f_max = (c.real @ np.cos(wave) + c.imag @ np.sin(wave)).max(axis=1)
            total = 2.0 * terms.weight.sum()

            def slack(step):  # a search's error, sup|f''| (step/2)^2 / 2, doubled
                return (np.abs(c) @ (4.0 * dls**2)) * step**2 / 4

            solves = (_GAMMA_NEWTON_STEPS,) if len(dls) == 1 else (_GAMMA_NEWTON_STEPS, 0)
            for steps in solves:
                got_gamma, got_f = _peak(terms.weight * terms.target * spin, terms, steps)
                got_loss = 2.0 * (terms.weight.sum() - got_f)
                # Never below the search, beyond its own error.  The solve is
                # never above it; the best sample (no step) is above it by at
                # most the sampled search's own error.
                above = slack(np.pi / (_GAMMA_SAMPLES * dls.max())) if steps == 0 else 0.0
                assert np.all(got_loss >= total - 2 * f_max - slack(dense[1] - dense[0]))
                assert np.all(got_loss <= total - 2 * f_max + above + 5e-16 * total)
                assert np.all((got_gamma > -half) & (got_gamma <= half))
                for i in range(0, 300, 37):
                    assert got_loss[i] == pytest.approx(
                        loss(th[i, 0], ph[i, 0], got_gamma[i], terms), abs=1e-12)


class TestTwinInvariance:
    @pytest.mark.parametrize("modes", [(-1, 1), (-1, 0, 1), (-2, -1, 1, 2)])
    def test_half_turn_twin_shares_gamma_and_misfit(self, modes):
        # delta(theta, phi + pi) = delta +- pi leaves e^{2i dl delta} as it
        # is, so the arbitration takes a cell's gamma and misfit for its twin.
        rng = np.random.default_rng(12)
        for snr_db, seed in [(None, 0), (10.0, 1)]:
            scen, _pose, tensor, config = make_setup(
                27.0, -133.0, modes=modes, snr_db=snr_db, seed=seed)
            terms = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
            x = np.column_stack([rng.uniform(1e-6, np.pi / 2 - 1e-6, 200),
                                 rng.uniform(-np.pi, np.pi, 200)])
            twin = x + [0.0, np.pi]
            gam, gam_twin = _profiled(x, terms)[0], _profiled(twin, terms)[0]
            # One dl solves gamma in closed form; several converge in six
            # Newton steps from the best sample.
            g = np.gcd.reduce(np.unique(terms.dl))
            assert np.all(circ_err(2 * g * gam, 2 * g * gam_twin) < 1e-9)
            misfit, misfit_twin = (
                np.abs(terms.target - estimator_module._model(
                    np.column_stack([points, gam]), terms)) ** 2 @ terms.inv_var[0]
                for points in (x, twin))
            np.testing.assert_allclose(misfit_twin, misfit, rtol=1e-12, atol=0)


def pointing(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


class TestRingRotation:
    @pytest.mark.parametrize("rx_n, snr_db, shifts", [(20, 15.0, (3, 13)),
                                                      (16, None, (2, 10))])
    def test_rolled_ring_turns_the_estimate(self, rx_n, snr_db, shifts):
        # Rolling a tensor's rows by s, and the fitted antennas with them,
        # turns the receiver by 2 pi s / N: the estimate turns by as much in
        # phi and keeps theta and gamma.  Pointing vectors are compared, as
        # phi is a tie-break on the theta = 0 bound.  Each turn is a whole
        # number of 3-degree grid columns: 18 degrees an element on the
        # 20-element ring, 45 degrees for two on the 16-element one.
        rng = np.random.default_rng(7)
        for n_tones in range(1, 5):
            tensors = []
            for n in range(3):
                subs = np.sort(rng.choice(SUBS, n_tones, replace=False))
                scen, _pose, tensor, config = make_setup(
                    rng.uniform(1.0, 40.0), rng.uniform(-180.0, 180.0),
                    subcarriers=subs, snr_db=snr_db, seed=10 * n_tones + n,
                    rx_n=rx_n)
                tensors.append(tensor)
            batch = batch_of(tensors)
            original = estimate_trials(batch, scen, config)
            for s in shifts:
                turned = estimate_trials(
                    replace(batch, values=np.roll(batch.values, s, axis=1)),
                    scen,
                    replace(config, antennas=[(a + s) % rx_n for a in config.antennas]),
                )
                turn = 2 * np.pi * s / rx_n
                for got, want in zip(turned, original):
                    gap = pointing(got.theta, got.phi) - pointing(want.theta,
                                                                  want.phi + turn)
                    assert np.max(np.abs(gap)) < 1e-8
                    # Modes -1/+1 fix e^{4i gamma}; on the theta = 0 bound,
                    # where delta = phi - phi_m, they fix only phi + gamma.
                    on_bound = want.theta == 0.0
                    assert circ_err(4 * (got.gamma + on_bound * got.phi),
                                    4 * (want.gamma + on_bound * (want.phi + turn))
                                    ) < 1e-8


class TestBatchedEstimate:
    def test_batch_matches_single_trial_calls(self):
        # Mixed poses, four subcarriers drawn per trial, and one trial whose
        # accumulator vanishes: every other trial gets its single-trial
        # estimate, and only the silenced one fails.
        rng = np.random.default_rng(21)
        poses = [(18.0, -150.0), (33.0, -110.0), (47.0, 40.0), (62.0, 170.0),
                 (26.0, -60.0), (71.0, -5.0)]
        tensors = []
        for n, (theta_deg, phi_deg) in enumerate(poses):
            subs = np.sort(rng.choice(SUBS, 4, replace=False))
            scen, _pose, tensor, config = make_setup(
                theta_deg, phi_deg, subcarriers=subs, snr_db=12.0, seed=n)
            tensors.append(tensor)
        assert len({tuple(t.subcarriers_hz) for t in tensors}) == len(poses)
        silenced = 2
        tensors[silenced].values[config.antennas[1], 1] = 0.0
        batch = estimate_trials(batch_of(tensors), scen, config)
        for n, (tensor, got) in enumerate(zip(tensors, batch)):
            if n == silenced:
                assert isinstance(got, ZeroPowerError)
                with pytest.raises(ZeroPowerError):
                    estimate(tensor, scen, config)
                continue
            want = estimate(tensor, scen, config)
            assert isinstance(got, MisalignmentEstimate)
            for name in ("theta", "phi", "gamma"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=0, abs=1e-12)
            assert (got.diagnostics["refine_iterations"]
                    == want.diagnostics["refine_iterations"])
            # The kept twin has the higher corrected power, the residual is
            # the loss at the estimate, and the winning cell is a candidate.
            d = got.diagnostics
            assert d["corrected_power_kept"] >= d["corrected_power_rejected"]
            phases = cross_modal_phase_set(tensor, config, scen.rx.n_elements)
            assert got.residual == pytest.approx(
                loss(got.theta, got.phi, got.gamma, phases), rel=0, abs=1e-12)
            cells = coarse(phases, config, tensor, scen)
            assert (d["grid_theta"], d["grid_phi"]) in cells

    def test_empty_batch_estimates_nothing(self):
        scen, _pose, tensor, config = make_setup(30.0, -120.0)
        empty = SampleTensor(np.zeros((0, *tensor.values.shape)), tensor.antennas,
                             tensor.modes, np.zeros((0, 1)))
        assert estimate_trials(empty, scen, config) == []

    def test_subset_label_tensor_estimates_alone(self):
        # A tensor may hold only some of the ring, by label: the fitted
        # antennas alone estimate as the full ring does.
        scen, _pose, full, config = make_setup(30.0, -120.0)
        rows = list(config.antennas)
        subset = SampleTensor(full.values[rows], rows, full.modes, full.subcarriers_hz)
        for tensor in (full, subset):
            assert isinstance(estimate(tensor, scen, config), MisalignmentEstimate)

    def test_mode_order_leaves_the_estimate(self):
        # Modes are read by label, so a tensor holding the same modes in
        # another order gives the same estimate.
        scen, _pose, tensor, config = make_setup(30.0, -120.0)
        swapped = SampleTensor(tensor.values[:, ::-1], tensor.antennas,
                               tensor.modes[::-1], tensor.subcarriers_hz)
        want, got = (estimate(t, scen, config) for t in (tensor, swapped))
        assert (got.theta, got.phi) == (want.theta, want.phi)

    def test_permuted_batch_permutes_results(self):
        poses = [(18.0, -150.0), (33.0, -110.0), (47.0, 40.0), (62.0, 170.0)]
        tensors = []
        for n, (theta_deg, phi_deg) in enumerate(poses):
            scen, _pose, tensor, config = make_setup(
                theta_deg, phi_deg, subcarriers=SUBS[:2], snr_db=12.0, seed=n)
            tensors.append(tensor)
        order = [2, 0, 3, 1]
        forward = estimate_trials(batch_of(tensors), scen, config)
        permuted = estimate_trials(batch_of([tensors[i] for i in order]), scen, config)
        for got, i in zip(permuted, order):
            for name in ("theta", "phi", "gamma"):
                assert circ_err(getattr(got, name), getattr(forward[i], name)) < 1e-12


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
            EstimationConfig(modes=(1, 1), antennas=(0, 1, 2))
