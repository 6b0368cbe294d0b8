"""Per-layer metrics of a traced run, computed from its spans.

Each metric names the end-to-end metric and workload it should move:

* geometry.ms_per_item: items_per_ref; near zero everywhere, kept so a
  regression there shows.
* channel.*: items_per_ref on angle-exact-p64 and validate-model; flat on
  ccdf-farfield.
* estimator.estimate_ms_*, self_ms_per_item, delta_calls_per_item,
  refine_iterations_mean: items_per_ref on ccdf-farfield; flat on
  validate-model.  estimator.phases_ms_per_item: items_per_ref on
  angle-exact-p64.  estimator.twin_margin_db_p05: the twin flips inside
  within_tolerance_share.
* correction.*: items_per_ref on angle-exact-p64.
* harness.self_ms_per_item and harness.output_bytes: items_per_ref on
  validate-model.

A metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import math
import statistics

from spans import LAYERS, NO_PARENT, self_times

FIELD_CALLS = ("channel.exact_received_signal", "channel.farfield_antenna_vector")
SCORE_CALLS = ("correction.phase_mask", "correction.sir", "correction.capacity",
               "correction.sir_gain")

# Quality numbers of the traced chunks, reported under the layer they judge.
QUALITY_NAMES = {
    "mae_theta_deg": "estimator.mae_theta_deg",
    "mae_phi_deg": "estimator.mae_phi_deg",
    "twin_flip_share": "estimator.twin_flip_share",
    "sir_gain_db": "correction.sir_gain_db",
    "capacity_ratio": "correction.capacity_ratio",
    "min_correlation": "channel.min_correlation",
    "failed_share": "harness.failed_share",
}


class Probe:
    """Tracer hooks that keep the facts only arguments or results carry."""

    def __init__(self) -> None:
        self.exact_pairs = 0
        self.refine_iterations: list[int] = []
        self.twin_margins_db: list[float] = []

    def hooks(self) -> dict:
        return {
            "channel.exact_received_signal": self._exact,
            "estimator.estimate": self._estimate,
        }

    def _exact(self, _idx, args, kwargs, _result) -> None:
        scenario = args[0] if args else kwargs["scenario"]
        self.exact_pairs += scenario.rx.n_elements * scenario.tx.n_elements

    def _estimate(self, _idx, _args, _kwargs, result) -> None:
        diag = result.diagnostics
        self.refine_iterations.append(diag["refine_iterations"])
        kept, rejected = diag["corrected_power_kept"], diag["corrected_power_rejected"]
        if kept > 0 and rejected > 0:
            self.twin_margins_db.append(10.0 * math.log10(kept / rejected))


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(tracer, probe: Probe, items: int, traced_s: float,
              untraced_s: float, output_bytes: int, quality: dict) -> dict[str, float]:
    """Every per-layer metric; ``items`` completed in ``traced_s`` seconds."""
    n = len(tracer)
    names = [tracer.span_name(i) for i in range(n)]
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    own = self_times(tracer.start, tracer.end, tracer.parent)

    def per_item(value: float) -> float:
        return value / items if items else 0.0

    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        self_s[name.split(".")[0]] += own[i]
        inclusive[name] = inclusive.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1

    def incl_ms(name: str) -> float:
        return per_item(1e3 * inclusive.get(name, 0.0))

    def share(seconds: float) -> float:
        return seconds / traced_s if traced_s > 0 else 0.0

    estimate_ms = [1e3 * dur[i] for i, name in enumerate(names)
                   if name == "estimator.estimate"]
    delta_from_estimator = sum(
        1 for i, name in enumerate(names)
        if name == "channel.delta" and tracer.parent[i] != NO_PARENT
        and names[tracer.parent[i]].startswith("estimator.")
    )
    score_s = sum(
        dur[i] for i, name in enumerate(names)
        if name in SCORE_CALLS
        and (tracer.parent[i] == NO_PARENT or names[tracer.parent[i]] not in SCORE_CALLS)
    )

    metrics = {
        "geometry.ms_per_item": per_item(1e3 * self_s["geometry"]),
        "channel.simulate_ms_per_item": incl_ms("channel.simulate_measurement"),
        "channel.exact_ms_per_item": incl_ms("channel.exact_received_signal"),
        "channel.field_calls_per_item": per_item(sum(calls.get(c, 0) for c in FIELD_CALLS)),
        "channel.exact_pairs_per_item": per_item(probe.exact_pairs),
        "estimator.estimate_ms_p50": percentile(estimate_ms, 50),
        "estimator.estimate_ms_p95": percentile(estimate_ms, 95),
        "estimator.estimate_samples": len(estimate_ms),
        "estimator.delta_calls_per_item": per_item(delta_from_estimator),
        "estimator.refine_iterations_mean": (
            statistics.fmean(probe.refine_iterations) if probe.refine_iterations else 0.0
        ),
        "estimator.phases_ms_per_item": incl_ms("estimator.cross_modal_phase_set"),
        "estimator.twin_margin_db_p05": percentile(probe.twin_margins_db, 5),
        "correction.imi_calls_per_item": per_item(calls.get("correction.imi_matrix", 0)),
        "correction.imi_ms_per_item": incl_ms("correction.imi_matrix"),
        "correction.score_ms_per_item": per_item(1e3 * score_s),
        "harness.output_bytes": output_bytes,
        "estimator.estimate_share": share(inclusive.get("estimator.estimate", 0.0)),
        "estimator.phases_share": share(inclusive.get("estimator.cross_modal_phase_set", 0.0)),
        "channel.simulate_share": share(inclusive.get("channel.simulate_measurement", 0.0)),
        "channel.exact_share": share(inclusive.get("channel.exact_received_signal", 0.0)),
        "correction.imi_share": share(inclusive.get("correction.imi_matrix", 0.0)),
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        "trace.spans_per_item": per_item(n),
    }
    for layer in LAYERS:
        if layer != "geometry":
            metrics[f"{layer}.self_ms_per_item"] = per_item(1e3 * self_s[layer])
        metrics[f"{layer}.self_share"] = share(self_s[layer])
    for key, name in QUALITY_NAMES.items():
        metrics[name] = quality.get(key, 0.0)
    return metrics
