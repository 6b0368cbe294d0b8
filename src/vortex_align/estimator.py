"""Few-shot estimation of receiver misalignment from cross-modal phases.

Pipeline: extract the cross-modal phases at a handful of antennas into one
per-term array record (``CrossModalPhaseSet``) that every later stage reads,
search a coarse (theta, phi) grid of the weighted circular-distance loss
with gamma profiled out, refine the best cells together in one batched,
box-constrained Levenberg-Marquardt solve on the projected closed-form
Jacobian, and arbitrate them and their half-turn azimuth twins by a joint
phase-misfit / corrected-power score.

Three structural facts shape the design:

* The cross-modal phase u~ = 0.5 * angle[ sum_k (y_i y_j*)^2 ] determines
  (l_i - l_j) * (delta_m + gamma) only modulo pi: squaring removes the sign
  of the Bessel amplitudes but halves the usable phase range.  All phase
  comparisons therefore happen on the doubled angle, |e^{2i u~} -
  e^{2i (l_i-l_j)(delta_m + gamma)}|^2, which is exactly the distance
  between the squared products and is insensitive to the per-antenna sign.
* gamma is common to every antenna, so ``_profile_gamma`` solves it at each
  (theta, phi) instead of searching it (variable projection, Golub & Pereyra
  1973), in closed form for one distinct l_i - l_j.
* The phase loss alone cannot settle phi against phi + pi (gamma absorbs
  the half turn), and at noisy, weakly-conditioned poses it grows spurious
  minima; the corrected matched power over the ring supplies the missing
  evidence, so candidate selection and the final arbitration combine both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import j0, j1, jv

from .channel import SampleTensor, bessel_j, delta, rho, wavenumber
from .geometry import Scenario

# Amplitudes below this floor mean the measurement carries no usable power.
_POWER_FLOOR = 1e-150

# Accumulator magnitudes below this are treated as exactly zero power.
_ACCUMULATOR_FLOOR = 1e-300

_DIAMETRIC_TOL = 1e-9

_WEIGHT_FLOOR = 1e-12
# The candidate power probes saturate quickly with frequency diversity; cap
# the subcarriers used there so their cost does not scale with P.
_POWER_GRID_MAX_SUBCARRIERS = 4

# Candidate cells refined to the end: the strongest by corrected power plus
# the lowest-loss cells, each list kept spatially diverse by the minimum
# cell (Chebyshev) separation below.
_POWER_CANDIDATES = 4
_LOSS_CANDIDATES = 4
_SHORTLIST_SPACING = 3

# Several distinct l_i - l_j (see ``_profile_gamma``): Newton starts and
# ranking samples per period and unit of max(l_i - l_j) / gcd, Newton steps,
# and the grid cells solved to the end; the diverse walk over the loss
# ranking reads at most its first 4 + 3 * 24 = 76 cells.
_GAMMA_STARTS = 2
_GAMMA_NEWTON_STEPS = 6
_GAMMA_SAMPLES = 32
_POLISHED_CELLS = 200

# Levenberg-Marquardt refine: initial damping, its floor, its factors after
# an accepted and a rejected step, the smallest step that continues, and the
# floor of the Marquardt scale relative to the curvature along gamma (it
# keeps a coordinate with no curvature damped).  The damping floor keeps the
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
    """Knobs of the estimation pipeline.

    ``antennas`` and ``modes`` are the subsets used in the fit; subcarriers
    are given as frequencies present in the measurement tensor; ``grid_deg``
    is the (theta, phi) grid step and refine-box half-width.  The
    Levenberg-Marquardt refine stops a candidate cell once an accepted step
    lowers its loss by no more than ``refine_tol`` relative (or its step
    moves less than 1e-9 rad), and after at most ``refine_max_iter`` steps,
    rejected steps included.
    """

    modes: tuple[int, ...]
    antennas: tuple[int, ...]
    subcarriers_hz: tuple[float, ...]
    weighting: str = "amplitude"
    grid_deg: tuple[float, float] = (3.0, 3.0)
    refine_tol: float = 1e-10
    refine_max_iter: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(int(l) for l in self.modes))
        object.__setattr__(self, "antennas", tuple(int(m) for m in self.antennas))
        object.__setattr__(
            self, "subcarriers_hz", tuple(float(f) for f in self.subcarriers_hz)
        )
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must be distinct")
        if self.weighting not in ("uniform", "amplitude", "amplitude-squared"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if len(self.grid_deg) != 2 or any(g <= 0 for g in self.grid_deg):
            raise ValueError(
                "grid_deg must be two resolutions [theta, phi] > 0; "
                "gamma is solved, no longer gridded"
            )


@dataclass(frozen=True)
class CrossModalPhaseSet:
    """Measured cross-modal phases, one entry per (antenna, mode pair) term.

    Terms run antenna-major over ``_mode_pairs(config.modes)``.  The loss,
    the grid, the refine and the arbitration misfit all read these arrays.
    """

    antenna: np.ndarray  # ring label m
    azimuth: np.ndarray  # element azimuth phi_m
    dl: np.ndarray  # l_i - l_j
    target: np.ndarray  # measured doubled phase as e^{2iu}
    weight: np.ndarray  # loss weight lambda_m of the term's antenna
    inv_var: np.ndarray  # inverse phase variance, up to the noise level


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


def cross_modal_phase_set(
    tensor: SampleTensor, config: EstimationConfig, n_elements: int
) -> CrossModalPhaseSet:
    """Every cross-modal phase term of ``config``, with its weight and variance.

    ``n_elements`` is the size of the receive ring, which fixes the element
    azimuths 2 pi m / n_elements.  The inverse variance of a term follows
    from the measured per-mode amplitudes up to the common noise level; the
    same common factor scales the matched-power deficit, so the misfit and
    the deficit can be summed.
    """
    block = _samples(tensor, config.antennas, config.modes, config.subcarriers_hz)
    magnitude = np.abs(block)
    amps = np.mean(magnitude, axis=(1, 2))
    if np.all(amps < _POWER_FLOOR):
        raise NoPowerError("all selected antennas are below the power floor")
    pairs = _mode_pairs(config.modes)
    i = [config.modes.index(li) for li, _lj in pairs]
    j = [config.modes.index(lj) for _li, lj in pairs]
    u = _cross_modal_phases(block, i, j, config.antennas, pairs)
    mode_amps = np.maximum(np.mean(magnitude, axis=2), _WEIGHT_FLOOR)
    a_i, a_j = mode_amps[:, i].ravel(), mode_amps[:, j].ravel()
    labels = np.asarray(config.antennas)
    return CrossModalPhaseSet(
        antenna=np.repeat(labels, len(pairs)),
        azimuth=np.repeat(2.0 * np.pi * labels / n_elements, len(pairs)),
        dl=np.tile([li - lj for li, lj in pairs], len(labels)),
        target=np.exp(2j * u.ravel()),
        weight=np.repeat(weight(amps, config.weighting), len(pairs)),
        inv_var=len(config.subcarriers_hz)
        * (a_i**2 * a_j**2)
        / (16.0 * (a_i**2 + a_j**2)),
    )


def _samples(tensor: SampleTensor, antennas, modes, subcarriers_hz) -> np.ndarray:
    """The (antenna, mode, subcarrier) sample block of ``tensor``, by label."""
    try:
        rows = [tensor.antenna_index(m) for m in antennas]
        cols = [tensor.mode_index(l) for l in modes]
        ks = tensor.subcarrier_indices(subcarriers_hz)
    except KeyError as exc:
        raise MissingSamplesError(str(exc)) from None
    return tensor.values[np.ix_(rows, cols, ks)]


def _cross_modal_phases(block: np.ndarray, i, j, antennas, pairs) -> np.ndarray:
    """0.5 * angle[ sum_k (y_i y_j*)^2 ] per antenna and mode pair.

    ``block`` is a ``_samples`` block; mode pair p reads its columns i[p]
    and j[p].  Raises ``ZeroPowerError`` at the first (antenna-major) term
    whose accumulator vanishes.
    """
    acc = np.sum((block[:, i] * np.conj(block[:, j])) ** 2, axis=-1)
    vanished = np.argwhere(np.abs(acc) < _ACCUMULATOR_FLOOR)
    if vanished.size:
        a, p = vanished[0]
        raise ZeroPowerError(
            f"cross-modal accumulator vanished at antenna {antennas[a]}, "
            f"pair ({pairs[p][0]},{pairs[p][1]})"
        )
    return 0.5 * np.angle(acc)


def _mode_pairs(modes) -> list[tuple[int, int]]:
    """All ordered pairs (l_i, l_j) with l_i > l_j, each unordered pair once."""
    srt = sorted(modes)
    return [
        (srt[b], srt[a]) for a in range(len(srt)) for b in range(a + 1, len(srt))
    ]


def weight(amplitudes, scheme: str = "amplitude") -> np.ndarray:
    """Per-antenna weights: a positive, non-decreasing function of amplitude.

    ``uniform`` gives 1 everywhere; ``amplitude`` normalizes by the mean
    amplitude; ``amplitude-squared`` by the mean squared amplitude.  Outputs
    are floored at a tiny positive value so zero-power antennas cannot zero
    out a loss term entirely.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if np.any(amps < 0):
        raise ValueError("amplitudes must be >= 0")
    if scheme == "uniform":
        out = np.ones_like(amps)
    elif scheme == "amplitude":
        mean = amps.mean()
        out = amps / mean if mean > 0 else np.ones_like(amps)
    elif scheme == "amplitude-squared":
        mean = (amps**2).mean()
        out = amps**2 / mean if mean > 0 else np.ones_like(amps)
    else:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    return np.maximum(out, _WEIGHT_FLOOR)


def loss(theta: float, phi: float, gamma: float, phases: CrossModalPhaseSet) -> float:
    """Weighted circular distance between measured and modeled phases.

    Each term is weighted by ``phases.weight``.  Comparison is on the doubled
    phases (see module docstring), so per-term values range in
    [0, 4 * lambda_m].
    """
    x = np.array([[theta, phi, gamma]], dtype=float)
    return float(np.abs(phases.target - _model(x, phases)[0]) ** 2 @ phases.weight)


def select_antennas(n_rx: int, q: int) -> list[int]:
    """Maximally spread subset of ``q`` of ``n_rx`` ring elements.

    Starts from an evenly spread base set, then repeatedly advances the
    later index of any diametrically opposed pair by one position until no
    pair sits exactly half a turn apart.  When the ring cannot host ``q``
    elements without a diametric pair (q > n_rx/2 on an even ring) the
    evenly spread base set is returned unrepaired; the redundancy of q > 3
    keeps the fit overdetermined regardless.
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
        # Diametric partners duplicate the cross-modal phase (it depends on
        # the element azimuth modulo pi), so fill the distinct half-ring
        # first and only then reuse opposite elements.
        half = n_rx // 2
        extras = [half + (j * half) // (q - half) for j in range(q - half)]
        return list(range(half)) + extras

    selected = list(base)
    for _ in range(n_rx * q):
        pair = _diametric_pair(selected, n_rx)
        if pair is None:
            return selected
        pos = pair[1]
        nxt = (selected[pos] + 1) % n_rx
        while nxt in selected:
            nxt = (nxt + 1) % n_rx
        selected[pos] = nxt
    return base


def select_modes(scenario: Scenario) -> tuple[int, int]:
    """Symmetric mode pair (-l, +l) with the strongest aligned-case gain.

    Scans integer l >= 1 up to the ring sampling limit and maximizes
    |J_l(k a_r a_t / r)| at the carrier.
    """
    k = wavenumber(scenario.carrier_hz)
    x = k * scenario.rx.radius_m * scenario.tx.radius_m / scenario.pose.distance_m
    l_max = max(scenario.rx.n_elements // 2 - 1, 1)
    best = max(range(1, l_max + 1), key=lambda l: abs(bessel_j(l, x)))
    return (-best, best)


def _diametric_pair(labels, n_rx: int) -> tuple[int, int] | None:
    """Positions (a, b), a < b, of the first two labels half a turn apart."""
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            gap = abs(np.angle(np.exp(2j * np.pi * (labels[a] - labels[b]) / n_rx)))
            if abs(gap - np.pi) < _DIAMETRIC_TOL:
                return a, b
    return None


def _validate_config(config: EstimationConfig, n_rx: int) -> None:
    if len(config.antennas) < 3:
        raise DegenerateGeometryError("at least 3 antennas are required")
    if len(config.modes) < 2:
        raise DegenerateGeometryError("at least 2 modes are required")
    if len(config.subcarriers_hz) < 1:
        raise DegenerateGeometryError("at least 1 subcarrier is required")
    # A diametric pair collapses the minimal Q=3 system to dependent
    # equations; with more antennas the redundancy absorbs it.
    pair = _diametric_pair(config.antennas, n_rx) if len(config.antennas) == 3 else None
    if pair is not None:
        a, b = (config.antennas[p] for p in pair)
        raise DegenerateGeometryError(f"antennas {a} and {b} are diametrically opposed")


@lru_cache(maxsize=8)
def _grid_tables(
    grid_deg: tuple[float, float],
    antenna_azimuths: tuple[float, ...],
    modes: tuple[int, ...],
):
    """Precompute the (theta, phi) grid and its f-independent tables.

    Returns the two grid axes; the power-map geometry of every (theta, phi)
    cell at the given antennas (see ``_power_geometry``); and the per-term
    spin exp(-2i dl delta) of every cell, (n_theta * n_phi, n_terms), with
    terms ordered antenna-major over ``_mode_pairs(modes)`` as in
    ``cross_modal_phase_set``.
    """
    g_th, g_ph = (np.deg2rad(g) for g in grid_deg)
    thetas = np.arange(0.0, np.pi / 2 - 1e-12, g_th)
    phis = -np.pi + g_ph * np.arange(1, int(round(2 * np.pi / g_ph)) + 1)
    th_mesh, ph_mesh = np.meshgrid(thetas, phis, indexing="ij")
    geometry = _power_geometry(
        th_mesh.ravel(), ph_mesh.ravel(), np.asarray(antenna_azimuths), modes
    )
    pair_dl = np.array([li - lj for li, lj in _mode_pairs(modes)])
    spin = np.exp(-2j * geometry[0][:, :, None] * pair_dl).reshape(th_mesh.size, -1)
    return thetas, phis, geometry, spin


def _power_geometry(theta: np.ndarray, phi: np.ndarray, phi_m: np.ndarray, modes):
    """Frequency-independent geometry of the matched-power probe.

    For candidate angles (theta, phi) of shape (n,) and element azimuths
    ``phi_m`` of shape (Q,), returns delta_m and rho_m of shape (n, Q),
    sin(theta) of shape (n, 1), cos(phi - phi_m) of shape (n, Q) and the
    twist e^{il delta_m} of each of ``modes``, (n_modes, n, Q); the matched
    power does not see gamma, a phase common to all elements of a mode.
    """
    th = theta[:, None]
    ph = phi[:, None]
    d_m = delta(th, ph, phi_m[None, :])
    return (
        d_m,
        rho(th, ph, phi_m[None, :]),
        np.sin(th),
        np.cos(ph - phi_m),
        np.exp(1j * np.asarray(modes)[:, None, None] * d_m),
    )


def _profile_gamma(
    spin: np.ndarray, terms: CrossModalPhaseSet, samples: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The gamma that minimises the loss at n points, and the loss there.

    ``spin`` holds each term's e^{-2i dl delta} at the points, (n, T).  The
    loss is 2 sum(lambda) - 2 f(gamma), f(gamma) = Re sum_d c_d e^{-2i d
    gamma} over the distinct dl, c_d = sum of lambda e^{2iu} spin over the
    terms of that dl; f has period pi/g, g = gcd(dl).  One dl: f peaks at
    |c| at gamma = arg(c) / (2 dl).  Several: safeguarded Newton steps from
    ``_GAMMA_STARTS`` max(dl)/g starts per period, the best end kept; with
    ``samples``, the best of that many unpolished samples per unit of
    max(dl)/g, an upper bound of the loss for ranking.  gamma is returned
    as the canonical copy in (-pi/(2g), pi/(2g)].
    """
    dls = np.unique(terms.dl)
    g = np.gcd.reduce(dls)
    # Real matrix products, the sampled f as a single one: at these shapes
    # complex or very thin real products run several times slower.
    terms_c = spin * (terms.weight * terms.target)
    one_hot = (terms.dl[:, None] == dls).astype(float)
    c_re, c_im = terms_c.real @ one_hot, terms_c.imag @ one_hot
    c = c_re + 1j * c_im
    if len(dls) == 1:
        gamma, f = np.angle(c[:, 0]) / (2 * g), np.abs(c[:, 0])
    else:
        spacing = np.pi / ((samples or _GAMMA_STARTS) * dls.max())
        starts = spacing * np.arange(round(np.pi / g / spacing))
        phase = 2.0 * np.outer(dls, starts)
        fs = np.hstack([c_re, c_im]) @ np.vstack([np.cos(phase), np.sin(phase)])
        gam = step_to = np.broadcast_to(starts, fs.shape)
        # |f''| never exceeds bound, so slope / bound is a safe ascent step.
        bound = np.abs(c) @ (4.0 * dls**2)
        for _ in range(0 if samples else _GAMMA_NEWTON_STEPS + 1):
            gam = step_to
            wave = c[:, None, :] * np.exp(-2j * gam[..., None] * dls)
            fs = wave.real.sum(axis=-1)
            slope, curv = wave.imag @ (2.0 * dls), wave.real @ (4.0 * dls**2)
            step = slope / np.where(curv > 0, curv, bound[:, None])
            step_to = gam + np.clip(step, -spacing / 2, spacing / 2)
        best = (np.arange(len(c)), np.argmax(fs, axis=1))
        gamma, f = gam[best], fs[best]
    half = np.pi / (2 * g)
    return half - np.mod(half - gamma, 2 * half), 2.0 * terms.weight.sum() - 2.0 * f


def _coarse_candidates(
    terms: CrossModalPhaseSet,
    config: EstimationConfig,
    tensor: SampleTensor,
    scenario: Scenario,
) -> list[tuple[float, float, float, float]]:
    """Coarse search: candidate cells from both the loss and the power map.

    The phase-only loss develops spurious near-global minima at noisy,
    weakly-conditioned poses (small elevations), while the corrected-power
    map (the criterion that later settles the half-turn ambiguity, and
    independent of gamma) is robust there but blurrier.  Candidates are the
    spatially diverse best cells of each map; the refined solutions are
    arbitrated jointly afterwards.  A cell's loss is minimised over gamma;
    with several distinct dl only the cells that lead on sampled gamma are
    solved to the end.  Returns (theta, phi, gamma, loss) tuples.
    """
    thetas, phis, geometry, spin = _grid_tables(
        tuple(config.grid_deg),
        tuple(scenario.rx.element_azimuths[list(config.antennas)]),
        config.modes,
    )
    _gamma, rough = _profile_gamma(spin, terms, samples=_GAMMA_SAMPLES)
    near = np.argsort(rough, kind="stable")[:_POLISHED_CELLS]
    loss_by_cell = np.full(len(rough), np.inf)
    loss_by_cell[near] = _profile_gamma(spin[near], terms)[1]
    n_phi = len(phis)

    def diverse_walk(ranking: np.ndarray, count: int) -> list[tuple[int, int]]:
        kept: list[tuple[int, int]] = []
        for flat in ranking:
            it, ip = int(flat) // n_phi, int(flat) % n_phi
            ok = True
            for jt, jp in kept:
                dphi = min(abs(ip - jp), n_phi - abs(ip - jp))
                if max(abs(it - jt), dphi) < _SHORTLIST_SPACING:
                    ok = False
                    break
            if ok:
                kept.append((it, ip))
                if len(kept) >= count:
                    break
        return kept

    power_map = _matched_power(
        tensor, scenario, config, geometry, antennas=config.antennas
    )
    cells = diverse_walk(np.argsort(-power_map, kind="stable"), _POWER_CANDIDATES)
    for cell in diverse_walk(np.argsort(loss_by_cell, kind="stable"), _LOSS_CANDIDATES):
        if cell not in cells:
            cells.append(cell)
    solved, losses = _profile_gamma(spin[[it * n_phi + ip for it, ip in cells]], terms)
    return [
        (float(thetas[it]), float(phis[ip]), float(ga), float(lo))
        for (it, ip), ga, lo in zip(cells, solved, losses)
    ]


def _matched_power(
    tensor: SampleTensor,
    scenario: Scenario,
    config: EstimationConfig,
    geometry,
    antennas=None,
    normalized: bool = False,
) -> np.ndarray:
    """Corrected matched power for a batch of candidate angle triples.

    Models the power probe a receiver makes after applying a candidate
    correction mask and mode-matched combining over the ring (``antennas``
    None means every ring element the tensor holds; pass a subset of their
    labels to restrict it).  ``geometry`` is ``_power_geometry`` of the
    candidates at those antennas and ``config.modes``.  With ``normalized``
    the matched energy |<g, y>|^2 / |g|^2 is returned, which is the signal
    power the candidate model explains.
    """
    rx = scenario.rx
    rows = np.arange(len(tensor.antennas)) if antennas is None else np.array(
        [tensor.antenna_index(m) for m in antennas]
    )
    _d_m, rho_m, sin_th, cos_u, twist = geometry
    r = scenario.pose.distance_m
    mode_idx = [tensor.mode_index(l) for l in config.modes]
    subs = config.subcarriers_hz
    if len(subs) > _POWER_GRID_MAX_SUBCARRIERS:
        picks = np.linspace(0, len(subs) - 1, _POWER_GRID_MAX_SUBCARRIERS).astype(int)
        subs = tuple(subs[i] for i in picks)
    power = np.zeros(rho_m.shape[0])
    for f, ki in zip(subs, tensor.subcarrier_indices(subs)):
        k = wavenumber(f)
        # Includes the candidate mask: conj of the tilt-induced spatial phase.
        spatial = np.exp(1j * k * rx.radius_m * sin_th * cos_u)
        arg = k * rx.radius_m * scenario.tx.radius_m * rho_m / r
        bessel = _bessel_factors(config.modes, arg)
        for li, tw, j_l in zip(mode_idx, twist, bessel):
            profile = spatial * tw * j_l
            combined = np.conj(profile) @ tensor.values[rows, li, ki]
            if normalized:
                norm = np.sum(np.abs(profile) ** 2, axis=1)
                power += np.abs(combined) ** 2 / np.maximum(norm, 1e-300)
            else:
                power += np.abs(combined) ** 2
    return power


def _bessel_factors(modes, x: np.ndarray) -> list[np.ndarray]:
    """J_l(x) for each of ``modes``, one evaluation per |l|.

    Orders 0 and 1 use the Cephes j0 / j1, as accurate as jv and far faster
    than its general-order path; negative orders follow J_{-l} = (-1)^l J_l.
    """
    orders = {abs(l) for l in modes}
    by_order = {n: (j0, j1)[n](x) if n < 2 else jv(n, x) for n in orders}
    return [-by_order[abs(l)] if l < 0 and l % 2 else by_order[abs(l)] for l in modes]


def _model(x: np.ndarray, terms: CrossModalPhaseSet) -> np.ndarray:
    """Modeled e^{2i dl (delta_m + gamma)} for candidates ``x`` (n, 3): (n, T)."""
    theta, phi, gamma = x[:, 0:1], x[:, 1:2], x[:, 2:3]
    return np.exp(2j * terms.dl * (delta(theta, phi, terms.azimuth) + gamma))


def _residuals(
    x: np.ndarray, terms: CrossModalPhaseSet
) -> tuple[np.ndarray, np.ndarray]:
    """Refine residuals and their closed-form Jacobian at candidates ``x`` (n, 3).

    Term t contributes r_t = sqrt(lambda_t) (e^{2iu_t} - e^{2i dl_t (delta_t +
    gamma)}), real and imaginary parts stacked: r is (n, 2T) and dr/dx is
    (n, 2T, 3).  With u = phi - phi_m and D = sin^2 u + cos^2 theta cos^2 u,
    d delta/d theta = sin theta cos u sin u / D and d delta/d phi = cos theta / D.
    """
    theta, phi = x[:, 0:1], x[:, 1:2]
    u = phi - terms.azimuth
    sin_u, cos_u = np.sin(u), np.cos(u)
    den = sin_u**2 + (np.cos(theta) * cos_u) ** 2
    d_delta = np.stack(
        [
            np.sin(theta) * cos_u * sin_u / den,
            np.cos(theta) / den,
            np.ones_like(den),
        ],
        axis=-1,
    )
    sqrt_w = np.sqrt(terms.weight)
    model = _model(x, terms)
    res = sqrt_w * (terms.target - model)
    jac = (-2j * terms.dl * sqrt_w * model)[..., None] * d_delta
    return (
        np.concatenate([res.real, res.imag], axis=1),
        np.concatenate([jac.real, jac.imag], axis=1),
    )


def _profiled(
    x: np.ndarray, terms: CrossModalPhaseSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma*, the residuals there and their projected Jacobian at (n, 2) ``x``.

    Kaufman's J_p = J_a - J_g (J_g . J_a) / (J_g . J_g), (n, 2T, 2), from the
    angle columns J_a and gamma column J_g of ``_residuals``; as J_g . r = 0
    at gamma*, J_p^T r is the exact gradient of the profiled cost.
    """
    spin = np.exp(-2j * terms.dl * delta(x[:, 0:1], x[:, 1:2], terms.azimuth))
    gamma, _loss = _profile_gamma(spin, terms)
    res, jac = _residuals(np.column_stack([x, gamma]), terms)
    j_a, j_g = jac[..., :2], jac[..., 2:]
    proj = np.sum(j_g * j_a, axis=1, keepdims=True) / np.sum(j_g**2, axis=1)[..., None]
    return gamma, res, j_a - j_g * proj


def _refine_cells(
    cells: list[tuple[float, float, float, float]],
    terms: CrossModalPhaseSet,
    config: EstimationConfig,
) -> list[tuple[np.ndarray, float, int]]:
    """Box-constrained Levenberg-Marquardt refinement of all cells at once.

    The refine runs in (theta, phi) on ``_profiled``, gamma solved at every
    iterate.  Each cell is confined to a box of one grid step in theta and
    phi around its candidate, a prior that keeps noisy, weakly-conditioned
    fits out of the spurious phase-loss minima a few steps away.  Each
    iteration solves the Marquardt-scaled damped 2 x 2 normal equations of
    every active cell; a gradient component pushing out of the box at an
    active bound is dropped, and the trial point is clipped into the box.
    The damping shrinks after an accepted step, down to a floor, and grows
    after a rejected one.  A cell stops when its step moves less than 1e-9
    rad, when an accepted step lowers its cost by no more than
    ``config.refine_tol`` relative, or after ``config.refine_max_iter``
    steps.  Returns ((theta, phi), cost, iterations) per cell, in order.
    """
    x = np.array([cell[:2] for cell in cells], dtype=float)
    reach = np.deg2rad(config.grid_deg)
    lower = x - reach
    upper = x + reach
    lower[:, 0] = np.maximum(lower[:, 0], 0.0)
    upper[:, 0] = np.minimum(upper[:, 0], np.pi / 2 - 1e-12)
    # delta depends on theta through cos(theta), so every gradient vanishes
    # in theta at theta = 0: a cell on that row starts half a step inside.
    x[:, 0] = np.maximum(x[:, 0], 0.5 * reach[0])
    _gamma, res, jac = _profiled(x, terms)
    cost = np.sum(res**2, axis=1)
    # J_g . J_g, the curvature along gamma, is the same at every point.
    scale_floor = _LM_SCALE_FLOOR * 4.0 * np.sum(terms.dl**2 * terms.weight)
    damping = np.full(len(x), _LM_DAMPING)
    iterations = np.zeros(len(x), dtype=int)
    act = np.arange(len(x))
    while act.size:
        xa, ra, ja = x[act], res[act], jac[act]
        grad = np.einsum("ntk,nt->nk", ja, ra)
        curv = np.einsum("ntk,ntk->nk", ja, ja)
        free = ~(
            ((xa <= lower[act]) & (grad > 0)) | ((xa >= upper[act]) & (grad < 0))
        )
        jf = ja * free[:, None, :]
        scale = damping[act][:, None] * np.maximum(curv, scale_floor)
        lhs = np.einsum("ntj,ntk->njk", jf, jf) + scale[:, :, None] * np.eye(2)
        step = np.linalg.solve(lhs, -(grad * free)[..., None])[..., 0]
        trial = np.clip(xa + step, lower[act], upper[act])
        _gamma, res_t, jac_t = _profiled(trial, terms)
        cost_t = np.sum(res_t**2, axis=1)
        iterations[act] += 1
        accept = cost_t < cost[act]
        done = (
            (np.abs(trial - xa).max(axis=1) < _LM_MIN_MOVE)
            | (accept & (cost[act] - cost_t <= config.refine_tol * cost[act]))
            | (iterations[act] >= config.refine_max_iter)
        )
        took = act[accept]
        x[took] = trial[accept]
        res[took] = res_t[accept]
        jac[took] = jac_t[accept]
        cost[took] = cost_t[accept]
        damping[act] = np.maximum(
            damping[act] * np.where(accept, _LM_SHRINK, _LM_GROW), _LM_MIN_DAMPING
        )
        act = act[~done]
    return [(x[i], float(cost[i]), int(iterations[i])) for i in range(len(x))]


def estimate(
    tensor: SampleTensor, scenario: Scenario, config: EstimationConfig
) -> MisalignmentEstimate:
    """Estimate (theta, phi, gamma) from a few-shot measurement tensor.

    Coarse (theta, phi) grid search over the enforced ranges, batched
    box-constrained Levenberg-Marquardt refinement of the most promising
    cells with gamma solved at every point, then one joint arbitration over
    the refined solutions and their half-turn azimuth twins that combines
    the phase misfit with the corrected received power.
    """
    _validate_config(config, scenario.rx.n_elements)
    terms = cross_modal_phase_set(tensor, config, scenario.rx.n_elements)
    cells = _coarse_candidates(terms, config, tensor, scenario)
    refined = _refine_cells(cells, terms, config)

    # The loss cannot distinguish phi from phi + pi (gamma absorbs the half
    # turn), so every refined candidate enters the pool with its half-turn
    # twin and the twin's own gamma.  One joint likelihood score arbitrates:
    # the cross-modal phase misfit (inverse-variance weighted, which the
    # measured amplitudes supply) plus the corrected matched-power deficit;
    # both scale with 1/noise, so the noise level cancels from the ranking
    # and the twin comparison is exactly the higher-corrected-power rule.
    # Even pool rows hold the refined candidates, odd rows their twins.
    pool = np.repeat(np.array([x for x, _f, _n in refined]), 2, axis=0)
    pool[1::2, 1] = np.angle(np.exp(1j * (pool[1::2, 1] + np.pi)))
    pool_gamma = _profiled(pool, terms)[0]
    ring = scenario.rx.element_azimuths[tensor.antennas]
    geometry = _power_geometry(pool[:, 0], pool[:, 1], ring, config.modes)
    powers = _matched_power(tensor, scenario, config, geometry, normalized=True)
    model = _model(np.column_stack([pool, pool_gamma]), terms)
    misfits = np.abs(terms.target - model) ** 2 @ terms.inv_var
    scores = misfits + (powers.max() - powers)
    best = int(np.argmin(scores))
    cell_idx = best // 2
    _x, residual, n_iter = refined[cell_idx]
    twin_idx = best + 1 if best % 2 == 0 else best - 1

    return MisalignmentEstimate(
        theta=float(np.clip(pool[best, 0], 0.0, np.pi / 2 - 1e-12)),
        phi=float(np.angle(np.exp(1j * pool[best, 1]))),
        gamma=float(pool_gamma[best]),
        residual=residual,
        diagnostics={
            "grid_theta": cells[cell_idx][0],
            "grid_phi": cells[cell_idx][1],
            "grid_loss": cells[cell_idx][3],
            "refine_iterations": n_iter,
            "corrected_power_kept": float(powers[best]),
            "corrected_power_rejected": float(powers[twin_idx]),
        },
    )
