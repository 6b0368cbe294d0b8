"""Few-shot estimation of receiver misalignment from cross-modal phases.

Pipeline: extract the cross-modal phases at a handful of antennas into one
per-term array record (``CrossModalPhaseSet``) that every later stage reads,
search a coarse (theta, phi, gamma) grid of the weighted circular-distance
loss, refine the best cells together in one batched, box-constrained
Levenberg-Marquardt solve on the closed-form Jacobian, and arbitrate them and
their half-turn azimuth twins by a joint phase-misfit / corrected-power score.

Two structural facts shape the design:

* The cross-modal phase u~ = 0.5 * angle[ sum_k (y_i y_j*)^2 ] determines
  (l_i - l_j) * (delta_m + gamma) only modulo pi: squaring removes the sign
  of the Bessel amplitudes but halves the usable phase range.  All phase
  comparisons therefore happen on the doubled angle, |e^{2i u~} -
  e^{2i (l_i-l_j)(delta_m + gamma)}|^2, which is exactly the distance
  between the squared products and is insensitive to the per-antenna sign.
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

# Levenberg-Marquardt refine: initial damping, its floor, its factors after
# an accepted and a rejected step, the smallest step that continues, and the
# floor of the Marquardt scale relative to the largest curvature (it keeps
# a coordinate with no curvature, such as theta at exactly 0, damped).  The
# damping floor keeps the damped normal matrix invertible where the
# residuals leave it singular: on the theta = 0 bound no residual depends
# on theta, and d delta/d phi equals d delta/d gamma.
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
    are given as frequencies present in the measurement tensor.  The
    Levenberg-Marquardt refine stops a candidate cell once an accepted step
    lowers its loss by no more than ``refine_tol`` relative (or its step
    moves less than 1e-9 rad), and after at most ``refine_max_iter`` steps,
    rejected steps included.
    """

    modes: tuple[int, ...]
    antennas: tuple[int, ...]
    subcarriers_hz: tuple[float, ...]
    weighting: str = "amplitude"
    grid_deg: tuple[float, float, float] = (3.0, 3.0, 3.0)
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
        if len(self.grid_deg) != 3 or any(g <= 0 for g in self.grid_deg):
            raise ValueError("grid_deg must be three resolutions > 0")


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
    """Estimated (theta, phi, gamma) with fit diagnostics."""

    theta: float
    phi: float
    gamma: float
    residual: float
    diagnostics: dict = field(default_factory=dict)


def cross_modal_phase(
    tensor: SampleTensor, m: int, l_i: int, l_j: int, subcarriers_hz
) -> float:
    """Average cross-modal phase at antenna ``m`` for the mode pair (l_i, l_j).

    Returns 0.5 * angle[ sum_k (y_{m,l_i,k} * conj(y_{m,l_j,k}))^2 ], in
    (-pi/2, pi/2]; the value estimates (l_i - l_j)(delta_m + gamma) mod pi.
    """
    block = _samples(tensor, (m,), (l_i, l_j), subcarriers_hz)
    return float(_cross_modal_phases(block, [0], [1], (m,), [(l_i, l_j)])[0, 0])


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
        ks = [tensor.subcarrier_index(f) for f in np.atleast_1d(subcarriers_hz)]
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
    grid_deg: tuple[float, float, float],
    antenna_azimuths: tuple[float, ...],
    modes: tuple[int, ...],
):
    """Precompute the (theta, phi, gamma) grids and their f-independent tables.

    Returns the three grid axes; the power-map geometry of every (theta, phi)
    cell at the given antennas and gamma = 0 (see ``_power_geometry``); the
    per-term model phase factors exp(-2i dl delta) of shape (n_theta, n_phi,
    n_terms), with terms ordered antenna-major over ``_mode_pairs(modes)`` as
    in ``cross_modal_phase_set``; and per distinct dl, ascending, the gamma
    basis sin(2 dl gamma) over cos(2 dl gamma), (n_dl, 2, n_gamma).
    """
    g_th, g_ph, g_ga = (np.deg2rad(g) for g in grid_deg)
    thetas = np.arange(0.0, np.pi / 2 - 1e-12, g_th)
    phis = -np.pi + g_ph * np.arange(1, int(round(2 * np.pi / g_ph)) + 1)
    gammas = -np.pi + g_ga * np.arange(1, int(round(2 * np.pi / g_ga)) + 1)
    th_mesh, ph_mesh = np.meshgrid(thetas, phis, indexing="ij")
    geometry = _power_geometry(
        th_mesh.ravel(),
        ph_mesh.ravel(),
        np.asarray(antenna_azimuths),
        np.zeros(th_mesh.size),
        modes,
    )
    pair_dl = np.array([li - lj for li, lj in _mode_pairs(modes)])
    d = geometry[0].reshape(len(thetas), len(phis), -1)
    model = np.exp(-2j * d[..., :, None] * pair_dl).reshape(len(thetas), len(phis), -1)
    waves = np.exp(-2j * np.unique(pair_dl)[:, None] * gammas)
    return thetas, phis, gammas, geometry, model, np.stack([-waves.imag, waves.real], 1)


def _power_geometry(
    theta: np.ndarray, phi: np.ndarray, phi_m: np.ndarray, gamma: np.ndarray, modes
):
    """Frequency-independent geometry of the matched-power probe.

    For candidate angles (theta, phi, gamma) of shape (n,) and element
    azimuths ``phi_m`` of shape (Q,), returns delta_m and rho_m of shape
    (n, Q), sin(theta) of shape (n, 1), cos(phi - phi_m) of shape (n, Q) and
    the twist e^{il(delta_m + gamma)} of each of ``modes``, (n_modes, n, Q).
    """
    th = theta[:, None]
    ph = phi[:, None]
    d_m = delta(th, ph, phi_m[None, :])
    return (
        d_m,
        rho(th, ph, phi_m[None, :]),
        np.sin(th),
        np.cos(ph - phi_m),
        np.exp(1j * np.asarray(modes)[:, None, None] * (d_m + gamma[:, None])),
    )


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
    arbitrated jointly afterwards.  Gamma per cell is read off the loss
    along its own axis.  Returns (theta, phi, gamma, loss) tuples.
    """
    thetas, phis, gammas, geometry, model, basis = _grid_tables(
        tuple(config.grid_deg),
        tuple(scenario.rx.element_azimuths[list(config.antennas)]),
        config.modes,
    )
    # Group the gamma dependence: per distinct delta-l the model picks up
    # exp(-2i dl gamma), so the correlation along the gamma axis is a real
    # product of [Im c, Re c] with the cached [sin; cos](2 dl gamma).  In this
    # order an FMA kernel rounds it as numpy's complex product does, so ties
    # between the gamma-periodic copies of a minimum break as in that product.
    coef = terms.weight * terms.target
    total = float(2.0 * terms.weight.sum())
    corr = 0.0
    for dl, basis_dl in zip(np.unique(terms.dl), basis):
        sel = terms.dl == dl
        c = np.einsum("xyt,t->xy", model[:, :, sel], coef[sel]).ravel()
        corr = corr + np.column_stack([c.imag, c.real]) @ basis_dl
    loss_by_cell = total - 2.0 * corr.max(axis=1)
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
    out = []
    for it, ip in cells:
        losses = total - 2.0 * corr[it * n_phi + ip]
        ig = int(np.argmin(losses))
        out.append(
            (float(thetas[it]), float(phis[ip]), float(gammas[ig]), float(losses[ig]))
        )
    return out


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
    for f in subs:
        k = wavenumber(f)
        # Includes the candidate mask: conj of the tilt-induced spatial phase.
        spatial = np.exp(1j * k * rx.radius_m * sin_th * cos_u)
        arg = k * rx.radius_m * scenario.tx.radius_m * rho_m / r
        ki = tensor.subcarrier_index(f)
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


def _phase_misfit_nll(x: np.ndarray, terms: CrossModalPhaseSet) -> np.ndarray:
    """Cross-modal phase misfit in (scaled) log-likelihood units, per candidate.

    Each term is weighted by the inverse of its phase variance.
    """
    return np.abs(terms.target - _model(x, terms)) ** 2 @ terms.inv_var


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


def _refine_cells(
    cells: list[tuple[float, float, float, float]],
    terms: CrossModalPhaseSet,
    config: EstimationConfig,
) -> list[tuple[np.ndarray, float, int]]:
    """Box-constrained Levenberg-Marquardt refinement of all cells at once.

    Refinement is local by design: the loss valley trades phi against gamma
    almost freely at weakly-conditioned poses, so each cell is confined to
    a box of one grid step in theta and phi and two in gamma around its
    coarse candidate.  Each iteration solves the Marquardt-scaled damped
    normal equations of every active cell; a gradient component pushing
    out of the box at an active bound is dropped, and the trial point is
    clipped into the box.  The damping shrinks after an accepted step, down
    to a floor, and grows after a rejected one.  A cell stops when its step moves less than
    1e-9 rad, when an accepted step lowers its cost by no more than
    ``config.refine_tol`` relative, or after ``config.refine_max_iter``
    steps.  Returns (x, cost, iterations) per cell, in input order.
    """
    x = np.array([cell[:3] for cell in cells], dtype=float)
    reach = np.deg2rad(config.grid_deg) * np.array([1.0, 1.0, 2.0])
    lower = x - reach
    upper = x + reach
    lower[:, 0] = np.maximum(lower[:, 0], 0.0)
    upper[:, 0] = np.minimum(upper[:, 0], np.pi / 2 - 1e-12)
    # delta depends on theta through cos(theta), so every gradient vanishes
    # in theta at theta = 0: a cell on that row starts half a step inside.
    x[:, 0] = np.maximum(x[:, 0], 0.5 * reach[0])
    res, jac = _residuals(x, terms)
    cost = np.sum(res**2, axis=1)
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
        scale = np.maximum(curv, _LM_SCALE_FLOOR * curv.max(axis=1, keepdims=True))
        lhs = np.einsum("ntj,ntk->njk", jf, jf) + (
            damping[act][:, None, None] * scale[:, :, None] * np.eye(3)
        )
        step = np.linalg.solve(lhs, -(grad * free)[..., None])[..., 0]
        trial = np.clip(xa + step, lower[act], upper[act])
        res_t, jac_t = _residuals(trial, terms)
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

    Coarse grid search over the enforced ranges, batched box-constrained
    Levenberg-Marquardt refinement of the most promising cells, then one
    joint arbitration over the refined solutions and their half-turn
    azimuth twins that combines the phase misfit with the corrected
    received power.
    """
    _validate_config(config, scenario.rx.n_elements)
    terms = cross_modal_phase_set(tensor, config, scenario.rx.n_elements)
    cells = _coarse_candidates(terms, config, tensor, scenario)
    refined = _refine_cells(cells, terms, config)

    # The loss cannot distinguish phi from phi + pi (with gamma shifted by
    # -pi), so every refined candidate enters the pool together with its
    # half-turn twin (identical loss by symmetry).  One joint likelihood
    # score then arbitrates: the cross-modal phase misfit (inverse-variance
    # weighted, which the measured amplitudes supply) plus the corrected
    # matched-power deficit; both scale with 1/noise, so the noise level
    # cancels from the ranking and the twin comparison is exactly the
    # higher-corrected-power rule.  Even pool rows hold the refined
    # candidates, odd rows their twins.
    pool_x = np.repeat(np.array([x for x, _f, _n in refined]), 2, axis=0)
    pool_x[1::2, 1] = np.angle(np.exp(1j * (pool_x[1::2, 1] + np.pi)))
    pool_x[1::2, 2] = np.angle(np.exp(1j * (pool_x[1::2, 2] - np.pi)))
    ring_azimuths = scenario.rx.element_azimuths[tensor.antennas]
    powers = _matched_power(
        tensor,
        scenario,
        config,
        _power_geometry(
            pool_x[:, 0], pool_x[:, 1], ring_azimuths, pool_x[:, 2], config.modes
        ),
        antennas=None,
        normalized=True,
    )
    misfits = _phase_misfit_nll(pool_x, terms)
    scores = misfits + (powers.max() - powers)
    best = int(np.argmin(scores))
    x_hat = pool_x[best]
    cell_idx = best // 2
    _x, residual, n_iter = refined[cell_idx]
    theta_hat = float(np.clip(x_hat[0], 0.0, np.pi / 2 - 1e-12))
    phi_hat = float(np.angle(np.exp(1j * x_hat[1])))
    gamma_hat = float(np.angle(np.exp(1j * x_hat[2])))
    twin_idx = best + 1 if best % 2 == 0 else best - 1

    return MisalignmentEstimate(
        theta=theta_hat,
        phi=phi_hat,
        gamma=gamma_hat,
        residual=residual,
        diagnostics={
            "grid_theta": cells[cell_idx][0],
            "grid_phi": cells[cell_idx][1],
            "grid_gamma": cells[cell_idx][2],
            "grid_loss": cells[cell_idx][3],
            "refine_iterations": n_iter,
            "corrected_power_kept": float(powers[best]),
            "corrected_power_rejected": float(powers[twin_idx]),
        },
    )
