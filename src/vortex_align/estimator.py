"""Few-shot estimation of receiver misalignment from cross-modal phases.

Pipeline: extract the cross-modal phases at a handful of antennas into one
per-term array record (``CrossModalPhaseSet``) that every later stage reads,
search a coarse (theta, phi) grid of the weighted circular-distance loss with
gamma profiled out, refine the best cells in one batched, box-constrained
Levenberg-Marquardt solve on the projected closed-form Jacobian, and arbitrate
them and their half-turn twins by phase misfit and corrected power.  Three
structural facts shape it:

* The cross-modal phase u~ = 0.5 * angle[ sum_k (y_i y_j*)^2 ] fixes (l_i -
  l_j) (delta_m + gamma) only modulo pi: squaring removes the sign of the
  Bessel amplitudes.  Phases are therefore compared as |e^{2i u~} - e^{2i
  (l_i-l_j)(delta_m + gamma)}|^2, the distance between the squared products.
* gamma is common to every antenna, so ``_peak`` solves it at each (theta,
  phi) instead of searching it (variable projection, Golub & Pereyra 1973),
  in closed form for one distinct l_i - l_j.
* The phase loss alone cannot settle phi against phi + pi (gamma absorbs
  the half turn) and grows spurious minima at noisy, weakly-conditioned
  poses; the corrected matched power over the ring supplies the missing
  evidence, so candidate selection and the final arbitration combine both.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import SampleTensor, delta, wavenumber
from .channel import farfield_geometry, farfield_pattern
from .geometry import Scenario

# Amplitudes below this floor mean the measurement carries no usable power.
_POWER_FLOOR = 1e-150

# Accumulator magnitudes below this are treated as exactly zero power.
_ACCUMULATOR_FLOOR = 1e-300

_WEIGHT_FLOOR = 1e-12

# Coarse (theta, phi) grid step and refine-box half-width, in degrees.
_GRID_DEG = 3.0

# The candidate power probes saturate quickly with frequency diversity; cap
# the subcarriers used there so their cost does not scale with P.
_POWER_GRID_MAX_SUBCARRIERS = 4

# Candidate cells refined to the end: the strongest by corrected power plus
# the lowest-loss cells, each list kept spatially diverse by the minimum
# cell (Chebyshev) separation below.
_POWER_CANDIDATES = 4
_LOSS_CANDIDATES = 2
_SHORTLIST_SPACING = 3

# Several distinct l_i - l_j (see ``_peak``): samples of gamma per period
# and unit of max(l_i - l_j) / gcd, and the refine's Newton steps from each
# point's best sample.
_GAMMA_SAMPLES = 32
_GAMMA_NEWTON_STEPS = 6
# Values per array of a block of the several-dl loss map: 1 MB of float64.
_BLOCK_VALUES = 1 << 17

# Levenberg-Marquardt refine: initial damping, its floor, its factors after
# an accepted and a rejected step, the smallest step that continues, the
# floor of the Marquardt scale relative to the curvature along gamma (it
# keeps a coordinate with no curvature damped), the relative cost decrease
# of an accepted step at or below which a cell stops, and the most steps
# (rejected ones included) a cell takes.  The damping floor keeps the
# damped normal matrix invertible where the residuals leave it singular: on
# the theta = 0 bound no residual depends on theta, and there phi only
# shifts delta, which the solved gamma absorbs, so the projected Jacobian
# vanishes altogether.
_LM_DAMPING = 1e-3
_LM_MIN_DAMPING = 1e-12
_LM_SHRINK = 1.0 / 3.0
_LM_GROW = 2.0
_LM_MIN_MOVE = 1e-9
_LM_SCALE_FLOOR = 1e-12
_LM_TOL = 1e-10
_LM_MAX_ITER = 200


class MissingSamplesError(KeyError):
    """Tensor does not cover a requested (antenna, mode, subcarrier) index."""


class ZeroPowerError(ValueError):
    """Cross-modal accumulator vanished; phase undefined."""


class DegenerateGeometryError(ValueError):
    """Estimation configuration violates its geometric invariants."""


class NoPowerError(ValueError):
    """All selected antennas are below the measurable power floor."""


class InfeasibleSelectionError(ValueError):
    """No antenna subset satisfies the diametric-pair constraint."""


@dataclass(frozen=True)
class EstimationConfig:
    """What the estimator fits.

    ``antennas`` (ring labels) and ``modes`` are the subsets used in the fit;
    every subcarrier of the measurement tensor enters it.  The grid step and
    the refine box are fixed (``_GRID_DEG``).
    """

    modes: tuple[int, ...]
    antennas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(int(l) for l in self.modes))
        object.__setattr__(self, "antennas", tuple(int(m) for m in self.antennas))
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must be distinct")


@dataclass(frozen=True)
class CrossModalPhaseSet:
    """Measured cross-modal phases, one entry per (antenna, mode pair) term.

    Terms run antenna-major over ``_mode_pairs(config.modes)``.  The loss,
    the grid, the refine and the arbitration misfit all read these arrays.
    ``azimuth`` and ``dl`` are (terms,), shared by every trial; ``target``,
    ``weight`` and ``inv_var`` are (T, terms), one row per trial.  The fields
    after them are derived on construction, once per batch: ``rows`` keeps them.
    """

    azimuth: np.ndarray  # element azimuth phi_m
    dl: np.ndarray  # l_i - l_j
    target: np.ndarray  # measured doubled phase as e^{2iu}
    weight: np.ndarray  # loss weight lambda_m of the term's antenna
    inv_var: np.ndarray  # inverse phase variance, up to the noise level
    dls: np.ndarray = field(init=False, repr=False)  # distinct dl
    g: int = field(init=False, repr=False)  # gcd of dls
    one_hot: np.ndarray = field(init=False, repr=False)  # (terms, dls): term has dl
    sqrt_w: np.ndarray = field(init=False, repr=False)  # sqrt(lambda), per row
    coef: np.ndarray = field(init=False, repr=False)  # lambda e^{2iu}, per row

    def __post_init__(self) -> None:
        dls = np.unique(self.dl)
        for name, value in [("dls", dls), ("g", np.gcd.reduce(dls)),
                            ("one_hot", (self.dl[:, None] == dls).astype(float)),
                            ("sqrt_w", np.sqrt(self.weight)),
                            ("coef", self.weight * self.target)]:
            object.__setattr__(self, name, value)

    def rows(self, index) -> CrossModalPhaseSet:
        """The set of the trial rows ``index`` picks, in that order."""
        picked = copy.copy(self)
        for name in ("target", "weight", "inv_var", "sqrt_w", "coef"):
            object.__setattr__(picked, name, getattr(self, name)[index])
        return picked


@dataclass(frozen=True)
class MisalignmentEstimate:
    """Estimated (theta, phi, gamma) with fit diagnostics.

    ``gamma`` is the canonical copy in (-pi/(2g), pi/(2g)], g the gcd of the
    fitted modes' differences: the loss has period pi/g in gamma.
    """

    theta: float
    phi: float
    gamma: float
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _phase_sets(
    block: np.ndarray, config: EstimationConfig, n_elements: int
) -> tuple[CrossModalPhaseSet, list[ValueError | None]]:
    """The cross-modal phase terms of ``config`` in every trial, one row each.

    ``block`` holds the trials' samples at ``config``'s antennas and modes,
    (trial, antenna, mode, subcarrier).  ``n_elements`` is the size of the
    receive ring, which fixes the element azimuths 2 pi m / n_elements.  The
    inverse variance of a term follows from the measured per-mode amplitudes
    up to the common noise level; the same common factor scales the
    matched-power deficit, so the misfit and the deficit can be summed.
    Every subcarrier of a trial is pooled.  Also returns per trial the noise
    failure that leaves its row undefined, or None.
    """
    if block.shape[-1] < 1:
        raise DegenerateGeometryError("at least 1 subcarrier is required")
    magnitude = np.abs(block)
    amps = np.mean(magnitude, axis=(2, 3))
    pairs = _mode_pairs(config.modes)
    i = [config.modes.index(li) for li, _lj in pairs]
    j = [config.modes.index(lj) for _li, lj in pairs]
    acc = np.sum((block[:, :, i] * np.conj(block[:, :, j])) ** 2, axis=-1)
    failed: list[ValueError | None] = [None] * len(block)
    for t, (amps_t, acc_t) in enumerate(zip(amps, acc)):
        vanished = np.argwhere(np.abs(acc_t) < _ACCUMULATOR_FLOOR)
        if np.all(amps_t < _POWER_FLOOR):
            failed[t] = NoPowerError("all selected antennas are below the power floor")
        elif vanished.size:
            a, p = vanished[0]  # the first term, antenna-major
            failed[t] = ZeroPowerError(
                f"cross-modal accumulator vanished at antenna {config.antennas[a]}, "
                f"pair ({pairs[p][0]},{pairs[p][1]})"
            )
    mode_amps = np.maximum(np.mean(magnitude, axis=3), _WEIGHT_FLOOR)
    a_i, a_j = (mode_amps[:, :, c].reshape(len(block), -1) for c in (i, j))
    labels = np.asarray(config.antennas)
    phases = CrossModalPhaseSet(
        azimuth=np.repeat(2.0 * np.pi * labels / n_elements, len(pairs)),
        dl=np.tile([li - lj for li, lj in pairs], len(labels)),
        target=np.exp(2j * (0.5 * np.angle(acc)).reshape(len(block), -1)),
        weight=np.repeat(weight(amps), len(pairs), axis=-1),
        inv_var=block.shape[-1] * (a_i**2 * a_j**2) / (16.0 * (a_i**2 + a_j**2)),
    )
    return phases, failed


def _positions(tensor: SampleTensor, antennas, modes) -> tuple[list[int], list[int]]:
    """The rows of ``antennas`` and the columns of ``modes`` in ``tensor``, by label."""
    try:
        rows = [tensor.antenna_index(m) for m in antennas]
        return rows, [tensor.mode_index(l) for l in modes]
    except KeyError as exc:
        raise MissingSamplesError(str(exc)) from None


def _mode_pairs(modes) -> list[tuple[int, int]]:
    """All ordered pairs (l_i, l_j) with l_i > l_j, each unordered pair once."""
    srt = sorted(modes)
    return [(srt[b], srt[a]) for a in range(len(srt)) for b in range(a + 1, len(srt))]


def weight(amplitudes) -> np.ndarray:
    """Per-antenna weights: the amplitudes normalized by their mean.

    Normalizes along the last axis.  All-zero amplitudes give 1 everywhere.
    Outputs are floored at a tiny positive value so zero-power antennas
    cannot zero out a loss term entirely.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if np.any(amps < 0):
        raise ValueError("amplitudes must be >= 0")
    mean = amps.mean(axis=-1, keepdims=True)
    out = np.divide(amps, mean, out=np.ones_like(amps), where=mean > 0)
    return np.maximum(out, _WEIGHT_FLOOR)


def select_antennas(n_rx: int, q: int) -> list[int]:
    """Maximally spread subset of ``q`` of ``n_rx`` ring elements.

    Diametric partners duplicate the cross-modal phase (it depends on the
    element azimuth modulo pi).  An even ring with q > n_rx/2 cannot avoid
    them: it takes the whole first half ring, then spreads the remaining
    elements evenly over the second half; the redundancy of q > 3 keeps the
    fit overdetermined regardless, and q = 3 (n_rx = 4) raises.  Otherwise
    it returns the evenly spread base set, with its later half (positions j
    >= ceil(q/2)) moved one label on when the set holds a diametric pair;
    that parts every pair (checked exhaustively for n_rx <= 64).
    """
    if n_rx < 3 or q < 3:
        raise InfeasibleSelectionError(
            f"need at least 3 of at least 3 antennas, got q={q}, n_rx={n_rx}"
        )
    if q > n_rx:
        raise InfeasibleSelectionError(f"q={q} exceeds the {n_rx}-element ring")
    step = math.ceil(n_rx / q)
    if (q - 1) * step <= n_rx - 1:
        base = [j * step for j in range(q)]
    else:
        base = [(j * n_rx) // q for j in range(q)]
    if n_rx % 2 == 0 and q > n_rx // 2:
        if q == 3:
            raise InfeasibleSelectionError("q=3 of 4 elements always holds a diametric pair")
        half = n_rx // 2
        extras = [half + (j * half) // (q - half) for j in range(q - half)]
        return list(range(half)) + extras
    if _diametric_pair(base, n_rx) is None:
        return base
    later = math.ceil(q / 2)
    return base[:later] + [label + 1 for label in base[later:]]


def _diametric_pair(labels, n_rx: int) -> tuple[int, int] | None:
    """The first two of ``labels`` that sit half a turn apart on the ring."""
    for n, a in enumerate(labels):
        for b in labels[n + 1 :]:
            if 2 * ((a - b) % n_rx) == n_rx:
                return a, b
    return None


def _validate_config(config: EstimationConfig, n_rx: int) -> None:
    if len(config.antennas) < 3:
        raise DegenerateGeometryError("at least 3 antennas are required")
    if len(config.modes) < 2:
        raise DegenerateGeometryError("at least 2 modes are required")
    # A diametric pair collapses the minimal Q=3 system to dependent
    # equations; with more antennas the redundancy absorbs it.
    pair = _diametric_pair(config.antennas, n_rx) if len(config.antennas) == 3 else None
    if pair is not None:
        raise DegenerateGeometryError("antennas %d and %d are diametrically opposed" % pair)


@lru_cache(maxsize=8)
def _grid_tables(antenna_azimuths: tuple[float, ...], modes: tuple[int, ...]):
    """Precompute the (theta, phi) grid and its f-independent tables.

    A cell's far field depends on phi only through u = phi - phi_m: returns
    the grid axes, ``farfield_geometry`` on a (theta, u) table of the distinct
    wrapped u, the flat table index of every (cell, antenna), and the spin
    exp(-2i dl delta) of every cell of the half grid, phi in (-pi, 0], terms
    antenna-major over ``_mode_pairs(modes)``.
    """
    step = np.deg2rad(_GRID_DEG)
    thetas = np.arange(0.0, np.pi / 2 - 1e-12, step)
    phis = -np.pi + step * np.arange(1, int(round(2 * np.pi / step)) + 1)
    u = np.mod(phis[:, None] - np.asarray(antenna_azimuths) + np.pi, 2 * np.pi) - np.pi
    # Offsets equal up to rounding share one table column.
    _, first, column = np.unique(np.round(u, 12), return_index=True, return_inverse=True)
    table = farfield_geometry(thetas, np.zeros_like(thetas), -u.ravel()[first], modes)
    offset = len(first) * np.arange(len(thetas))[:, None, None]
    gather = offset + column.reshape(u.shape)  # (theta, phi, antenna)
    half = gather[:, : len(phis) // 2].reshape(-1, u.shape[1])
    pair_dl = np.array([li - lj for li, lj in _mode_pairs(modes)])
    spin = np.exp(-2j * table[0].ravel()[half][:, :, None] * pair_dl)
    return thetas, phis, table, gather.reshape(-1, u.shape[1]), spin.reshape(len(half), -1)


def _peak(terms_c: np.ndarray, terms, steps: int):
    """The gamma that minimises the loss at n points, and f(gamma) there.

    The loss is 2 sum(lambda) - 2 f, f(gamma) = Re sum_d c_d e^{-2i d gamma},
    c_d the sum over the terms of dl d of ``terms_c`` (n, T), lambda e^{2iu}
    e^{-2i dl delta}; f has period pi/g.  One dl: f peaks at |c| at gamma =
    arg(c) / (2 dl).  Several: each point's best of ``_GAMMA_SAMPLES`` samples
    per unit of max(dl)/g over one period, then ``steps`` safeguarded Newton
    steps from it; with no step, the sampled f bounds the loss from above.
    gamma is the canonical copy in (-pi/(2g), pi/(2g)].
    """
    dls, g = terms.dls, terms.g
    # Real matrix products, the sampled f as a single one: at these shapes
    # complex or very thin real products run several times slower.
    c_re, c_im = terms_c.real @ terms.one_hot, terms_c.imag @ terms.one_hot
    c = c_re + 1j * c_im
    if len(dls) == 1:
        gamma, f = np.angle(c[:, 0]) / (2 * g), np.abs(c[:, 0])
    else:
        spacing = np.pi / (_GAMMA_SAMPLES * dls.max())
        samples = spacing * np.arange(round(np.pi / g / spacing))
        phase = 2.0 * np.outer(dls, samples)
        fs = np.hstack([c_re, c_im]) @ np.vstack([np.cos(phase), np.sin(phase)])
        best = np.argmax(fs, axis=1)
        gamma, f = samples[best], fs[np.arange(len(c)), best]
        # |f''| never exceeds bound, so slope / bound is a safe ascent step.
        bound = np.abs(c) @ (4.0 * dls**2)
        for _ in range(steps):
            wave = c * np.exp(-2j * gamma[:, None] * dls)
            slope, curv = wave.imag @ (2.0 * dls), wave.real @ (4.0 * dls**2)
            step = slope / np.where(curv > 0, curv, bound)
            gamma = gamma + np.clip(step, -spacing / 2, spacing / 2)
        if steps:
            f = np.real(c * np.exp(-2j * gamma[:, None] * dls)).sum(axis=1)
    half = np.pi / (2 * g)
    return half - np.mod(half - gamma, 2 * half), f


def _loss_maps(spin: np.ndarray, terms: CrossModalPhaseSet) -> np.ndarray:
    """The loss of every trial of ``terms`` at every cell of ``spin`` (cells, T),
    gamma profiled out, (trials, cells).  One dl: one complex product.  Several:
    ``_peak``'s sampled bound at every (trial, cell), in blocks."""
    total = terms.weight.sum(axis=1)
    if len(terms.dls) == 1:
        return 2.0 * (total[:, None] - np.abs(terms.coef @ spin.T))
    per_pair = max(_GAMMA_SAMPLES * terms.dls.max() // terms.g, 2 * spin.shape[1])
    block = max(1, _BLOCK_VALUES // per_pair)
    losses = np.empty(len(total) * len(spin))
    for a in range(0, len(losses), block):
        trial, cell = np.divmod(np.arange(a, min(a + block, len(losses))), len(spin))
        f = _peak(terms.coef[trial] * spin[cell], terms, 0)[1]
        losses[a : a + block] = 2.0 * (total[trial] - f)
    return losses.reshape(len(total), -1)


def _coarse_candidates(terms, config: EstimationConfig, block, ks, scenario: Scenario):
    """Each trial's candidate (theta, phi) cells from the loss and the power map.

    The loss grows spurious minima at noisy, weakly-conditioned poses, where
    the gamma-free corrected-power map is robust but blurrier; each map gives
    its spatially diverse best cells.  ``terms`` has a row per trial, ``block``
    their fitted samples (trial, antenna, mode, probed) at wavenumbers ``ks``
    (trial, probed).  The loss is blind to phi -> phi + pi, so one
    ``_loss_maps`` call solves the batch on the half grid, phi in (-pi, 0]:
    no list keeps a theta > 0 cell with its half-turn copy.  The theta = 0
    row is one point, whose cells are phi starts: it takes its lowest loss,
    and its cells rank by the loss of the theta = 3 deg cell at their phi.
    """
    azimuths = tuple(scenario.rx.element_azimuths[list(config.antennas)])
    thetas, phis, table, gather, spin = _grid_tables(azimuths, config.modes)
    half = len(phis) // 2
    losses = _loss_maps(spin, terms).reshape(len(block), len(thetas), half)
    out = []
    for loss, samples, k in zip(losses, block, ks):
        power = _grid_power(samples, k, config.modes, scenario, table, gather)
        loss[0], ties = loss[0].min(), np.zeros_like(loss)
        ties[0] = loss[1]
        picks = _walk(-power.reshape(len(thetas), -1), _POWER_CANDIDATES)
        picks += _walk(loss, _LOSS_CANDIDATES, ties)
        keys = [(it, ip % half if it else ip) for it, ip in picks]
        out.append([(float(thetas[it]), float(phis[ip]))
                    for n, (it, ip) in enumerate(picks) if keys[n] not in keys[:n]])
    return out


def _walk(score: np.ndarray, count: int, ties=None) -> list[tuple[int, int]]:
    """The ``count`` lowest cells of a (theta, phi) ``score`` map, each kept
    cell masking its block of (2 spacing - 1)^2 cells from the next picks.

    Equal scores go to the lowest of the map ``ties`` if given, then to the
    first: stable ranking order.  phi wraps at the map's width; theta clips.
    """
    score, n_phi = score.copy(), score.shape[1]
    reach = np.arange(1 - _SHORTLIST_SPACING, _SHORTLIST_SPACING)
    kept: list[tuple[int, int]] = []
    for _ in range(count):
        flat = int(np.argmin(score))
        if ties is not None:
            level = np.flatnonzero(score == score.flat[flat])
            flat = int(level[np.argmin(ties.flat[level])])
        it, ip = divmod(flat, n_phi)
        kept.append((it, ip))
        score[max(it + reach[0], 0) : it + _SHORTLIST_SPACING, (ip + reach) % n_phi] = np.inf
    return kept


def _grid_power(block, ks, modes, scenario: Scenario, table, gather) -> np.ndarray:
    """Matched power |<p, y>|^2 of every grid cell, p gathered from ``table``.

    ``block`` is (antenna, mode, probed subcarrier), of wavenumbers ``ks``.
    """
    power = np.zeros(len(gather))
    link = (scenario.pose.distance_m, scenario.tx, scenario.rx)
    for j, k in enumerate(ks):
        for i, pattern in enumerate(farfield_pattern(table, modes, k, *link)):
            power += np.abs(np.conj(pattern).ravel()[gather] @ block[:, i, j]) ** 2
    return power


def _matched_power(samples, ks, modes, geometry, scenario: Scenario):
    """Corrected matched energy |<p, y>|^2 / |p|^2 of candidate angle pairs.

    The probe a receiver makes after a candidate correction mask and
    mode-matched combining over ring elements, matched to the far-field
    pattern p of each of ``modes``; ``geometry`` is ``farfield_geometry`` of
    the candidates at those elements.  Candidate n probes ``samples[n]``: its
    samples at those elements, (antenna, mode, probed subcarrier), of
    wavenumbers ``ks[n]``.
    """
    power = np.zeros(len(samples))
    link = (scenario.pose.distance_m, scenario.tx, scenario.rx)
    for j, k in enumerate(ks.T[..., None]):
        # The pattern's spatial phase is the conjugate of the candidate mask.
        for i, profile in enumerate(farfield_pattern(geometry, modes, k, *link)):
            combined = np.einsum("nq,nq->n", np.conj(profile), samples[:, :, i, j])
            norm = np.sum(np.abs(profile) ** 2, axis=1)
            power += np.abs(combined) ** 2 / np.maximum(norm, 1e-300)
    return power


def _model(x: np.ndarray, terms, d=None) -> np.ndarray:
    """Modeled e^{2i dl (delta_m + gamma)} at ``x`` (n, 3), delta_m ``d`` if known."""
    d = delta(x[:, 0:1], x[:, 1:2], terms.azimuth) if d is None else d
    return np.exp(2j * terms.dl * (d + x[:, 2:3]))


def _residuals(x: np.ndarray, terms, gamma=None) -> tuple[np.ndarray, ...]:
    """gamma, the refine residuals and their closed-form Jacobian at (n, 2) ``x``.

    gamma (n,) is solved unless given.  Term t contributes r_t = sqrt(lambda_t)
    (e^{2iu_t} - e^{2i dl_t (delta_t + gamma)}), real and imaginary parts
    stacked: r is (n, 2T), dr/d(theta, phi, gamma) (n, 2T, 3).  With u = phi
    - phi_m and D = sin^2 u + cos^2 theta cos^2 u, d delta/d theta = sin theta
    cos u sin u / D and d delta/d phi = cos theta / D; u, sin u, cos u and
    delta are computed once.
    """
    u = x[:, 1:2] - terms.azimuth
    sin_u, cos_u, cos_t = np.sin(u), np.cos(u), np.cos(x[:, 0:1])
    d = np.arctan2(sin_u, cos_t * cos_u)  # delta_m, as ``channel.delta``
    if gamma is None:
        spin = np.exp(-2j * terms.dl * d)
        gamma = _peak(spin * terms.coef, terms, _GAMMA_NEWTON_STEPS)[0]
    den = sin_u**2 + (cos_t * cos_u) ** 2
    d_delta = np.stack([np.sin(x[:, 0:1]) * cos_u * sin_u / den, cos_t / den,
                        np.ones_like(den)], axis=-1)
    model = _model(np.column_stack([x, gamma]), terms, d)
    res = terms.sqrt_w * (terms.target - model)
    jac = (-2j * terms.dl * terms.sqrt_w * model)[..., None] * d_delta
    return gamma, np.hstack([res.real, res.imag]), np.hstack([jac.real, jac.imag])


def _profiled(x: np.ndarray, terms: CrossModalPhaseSet) -> tuple[np.ndarray, ...]:
    """gamma*, the residuals there and their projected Jacobian at (n, 2) ``x``.

    Kaufman's J_p = J_a - J_g (J_g . J_a) / (J_g . J_g), (n, 2T, 2), from the
    angle columns J_a and gamma column J_g of ``_residuals``; as J_g . r = 0
    at gamma*, J_p^T r is the exact gradient of the profiled cost.
    """
    gamma, res, jac = _residuals(x, terms)
    j_a, j_g = jac[..., :2], jac[..., 2:]
    proj = np.sum(j_g * j_a, axis=1, keepdims=True) / np.sum(j_g**2, axis=1)[..., None]
    return gamma, res, j_a - j_g * proj


def _refine_cells(cells: list, terms: CrossModalPhaseSet) -> tuple[np.ndarray, ...]:
    """Box-constrained Levenberg-Marquardt refinement of all cells at once.

    ``terms`` holds one trial row per cell; each cell has its own damping and
    stop rule, and refines in (theta, phi) on ``_profiled``.  A box of one
    grid step around each cell keeps noisy, weakly-conditioned fits out of
    spurious loss minima a few steps away; a theta = 0 cell, the boresight at
    every phi, gets the whole phi circle.  Each iteration solves every active
    cell's Marquardt-scaled damped 2 x 2 normal equations, without gradient
    components that push out of the box at an active bound, and clips the
    trial point into the box.  The damping shrinks after an accepted step,
    down to a floor, and grows after a rejected one.  A cell stops when its
    step moves less than ``_LM_MIN_MOVE`` rad, when an accepted step lowers
    its cost by at most ``_LM_TOL`` relative, or after ``_LM_MAX_ITER`` steps.
    Returns per cell (theta, phi), gamma, cost and iterations.
    """
    x = np.array(cells, dtype=float)
    reach = np.deg2rad(_GRID_DEG)
    lower, upper = x - reach, x + reach
    lower[:, 0] = np.maximum(lower[:, 0], 0.0)
    upper[:, 0] = np.minimum(upper[:, 0], np.pi / 2 - 1e-12)
    axis = x[:, 0] == 0.0
    lower[axis, 1], upper[axis, 1] = -np.inf, np.inf
    # delta depends on theta through cos(theta), so every gradient vanishes
    # in theta at theta = 0: a cell on that row starts half a step inside.
    x[:, 0] = np.maximum(x[:, 0], 0.5 * reach)
    gamma, res, jac = _profiled(x, terms)
    cost = np.sum(res**2, axis=1)
    # J_g . J_g, the curvature along gamma, is the same at every point of a cell.
    scale_floor = _LM_SCALE_FLOOR * 4.0 * np.sum(terms.dl**2 * terms.weight, axis=1)
    damping = np.full(len(x), _LM_DAMPING)
    iterations = np.zeros(len(x), dtype=int)
    act = np.arange(len(x))
    while act.size:
        xa, ra, ja, lo, hi = x[act], res[act], jac[act], lower[act], upper[act]
        grad = np.einsum("ntk,nt->nk", ja, ra)
        curv = np.einsum("ntk,ntk->nk", ja, ja)
        free = ~(((xa <= lo) & (grad > 0)) | ((xa >= hi) & (grad < 0)))
        jf = ja * free[:, None, :]
        scale = damping[act][:, None] * np.maximum(curv, scale_floor[act, None])
        lhs = np.einsum("ntj,ntk->njk", jf, jf) + scale[:, :, None] * np.eye(2)
        step = np.linalg.solve(lhs, -(grad * free)[..., None])[..., 0]
        trial = np.minimum(np.maximum(xa + step, lo), hi)
        gamma_t, res_t, jac_t = _profiled(trial, terms.rows(act))
        cost_t = np.sum(res_t**2, axis=1)
        iterations[act] += 1
        cost_a = cost[act]
        accept = cost_t < cost_a
        done = (np.abs(trial - xa).max(axis=1) < _LM_MIN_MOVE) | (
            accept & (cost_a - cost_t <= _LM_TOL * cost_a)
        ) | (iterations[act] >= _LM_MAX_ITER)
        for held, new in zip((x, gamma, res, jac, cost),
                             (trial, gamma_t, res_t, jac_t, cost_t)):
            held[act[accept]] = new[accept]
        factor = np.where(accept, _LM_SHRINK, _LM_GROW)
        damping[act] = np.maximum(damping[act] * factor, _LM_MIN_DAMPING)
        act = act[~done]
    return x, gamma, cost, iterations


def estimate(
    tensor: SampleTensor, scenario: Scenario, config: EstimationConfig
) -> MisalignmentEstimate:
    """Estimate (theta, phi, gamma) of one trial's ``tensor`` as ``estimate_trials``
    of a one-trial batch; raises."""
    batch = SampleTensor(tensor.values[None], tensor.antennas, tensor.modes,
                         tensor.subcarriers_hz[None])
    (result,) = estimate_trials(batch, scenario, config)
    if not isinstance(result, MisalignmentEstimate):
        raise result
    return result


def estimate_trials(
    tensor: SampleTensor, scenario: Scenario, config: EstimationConfig
) -> list[MisalignmentEstimate | NoPowerError | ZeroPowerError]:
    """Estimate (theta, phi, gamma) of every trial of batch ``tensor`` at once
    under ``config``.

    One coarse search (one loss map, a power map per trial), one LM refine
    of every trial's best cells with gamma solved at every point, and one
    arbitration of the refined cells and their half-turn azimuth twins by
    phase misfit and corrected power, probed at every antenna.  The batch's
    one set of antenna and mode labels is read by one lookup.  A noise
    failure ends only its own trial and is returned in its place.
    """
    _validate_config(config, scenario.rx.n_elements)
    values = tensor.values
    n_trials, n_ant, _n_modes, n_sub = values.shape
    if not n_trials:
        return []
    rows, cols = _positions(tensor, config.antennas, config.modes)
    # np.ix_ over every axis gives C-ordered copies: numpy sums round by memory order.
    fitted = values[np.ix_(range(n_trials), rows, cols, range(n_sub))]
    terms, results = _phase_sets(fitted, config, scenario.rx.n_elements)
    live = [i for i, failure in enumerate(results) if failure is None]
    if not live:
        return results
    terms = terms.rows(live)
    # The power probes read a few subcarriers spread over each trial's: the
    # grid's at the fitted antennas, the arbitration's at every antenna.
    picks = np.linspace(0, n_sub - 1, min(n_sub, _POWER_GRID_MAX_SUBCARRIERS), dtype=int)
    ks = wavenumber(tensor.subcarriers_hz[np.ix_(live, picks)])
    probed = values[np.ix_(live, range(n_ant), cols, picks)]
    cells = _coarse_candidates(terms, config, probed[:, rows], ks, scenario)
    edges = np.cumsum([0, *map(len, cells)])
    owner = np.repeat(np.arange(len(live)), np.diff(edges))
    flat = [c for cs in cells for c in cs]
    x, gamma, cost, iterations = _refine_cells(flat, terms.rows(owner))

    # A half turn in phi moves delta by pi, leaving e^{2i dl delta}, gamma and
    # the phase misfit as they are: a cell has one (inverse-variance weighted)
    # misfit and a corrected matched power at phi and at its twin.  The cell of
    # the lowest misfit plus power deficit of its better twin wins, as that
    # twin.  Both terms scale with 1/noise, which cancels from the ranking.
    model = _model(np.column_stack([x, gamma]), terms)
    phis = np.column_stack([x[:, 1], np.angle(np.exp(1j * (x[:, 1] + np.pi)))])
    ring = scenario.rx.element_azimuths[tensor.antennas]
    geometry = farfield_geometry(np.repeat(x[:, 0], 2), phis.ravel(), ring, config.modes)
    twins = np.repeat(owner, 2)
    power = _matched_power(probed[twins], ks[twins], config.modes, geometry,
                           scenario).reshape(-1, 2)  # (cell, twin)
    twin, better = np.argmax(power, axis=1), np.max(power, axis=1)
    for n, (i, a, b) in enumerate(zip(live, edges, edges[1:])):
        misfits = np.abs(terms.target[n] - model[a:b]) ** 2 @ terms.inv_var[n]
        best = a + int(np.argmin(misfits + (better[a:b].max() - better[a:b])))
        kept = twin[best]
        results[i] = MisalignmentEstimate(
            theta=float(x[best, 0]),
            phi=float(np.angle(np.exp(1j * phis[best, kept]))),
            gamma=float(gamma[best]),
            residual=float(cost[best]),
            diagnostics={
                "grid_theta": flat[best][0],
                "grid_phi": flat[best][1],
                "refine_iterations": int(iterations[best]),
                "corrected_power_kept": float(power[best, kept]),
                "corrected_power_rejected": float(power[best, 1 - kept]),
            },
        )
    return results
