"""A seeded fuzz of the experiment configs: every run loads or is refused.

Every setting is checked when the spec loads, so a run with any config
exits 0 with finite numbers, or exits 2 with a message that names a config
key; it never exits 3 after the spec has loaded.  The configs set keys of
``BASE_DEFAULTS`` and ``KIND_DEFAULTS`` to edge values from ``EDGES``: each
value alone on every kind, then 1-3 keys at a time on a drawn kind, drawn
by a fixed-seed ``random.Random``.  Each run is one trial at one pose,
through ``main`` in-process: about 650 runs in 2-4 s.
"""

import json
import math
import random
import re

from vortex_align.harness import BASE_DEFAULTS, EXIT_CONFIG, EXIT_OK, KIND_DEFAULTS, main

NAN, INF = float("nan"), float("inf")
KINDS = ["angle-sweep", "ccdf", "subcarrier-sweep", "antenna-sweep", "imi-demo",
         "validate-model"]


def pose(rot_y_deg, rot_x_deg=0.0):
    return {"rot_y_deg": rot_y_deg, "rot_x_deg": rot_x_deg}


# Edge values per config key.  A tuple of keys takes a tuple of values, for
# settings that are only wrong together.
EDGES = {
    "scenario.tx.n": [1, 3, 2.5],
    "scenario.tx.radius_m": [0.0, 1e-4, 0.1],
    ("scenario.rx.n", "estimation.q"): [(4, 3), (3, 3), (16, 8)],
    "scenario.rx.n": [1, 4, 5],
    "scenario.rx.radius_m": [-0.008, 1e-4, 0.05],
    "scenario.distance_m": [0.0, 0.1, 0.2, 1e4, None, [0.4]],
    "scenario.carrier_hz": [0.0, 1e9, INF, 2e12, 1e308],
    "scenario.subcarriers.start_hz": [0.0, NAN, "1e11"],
    "scenario.subcarriers.step_hz": [0.0, -1e7, 1e10],
    "scenario.subcarriers.count": [0, 1, True],
    "poses": [[], [pose(0.0)], [pose(89.0)], [pose(120.0)], [pose(NAN)],
              [{"rot_y_deg": 10.0}], 5],
    "estimation.modes": [[], [1], [1, 1], [-10, 10], [-2, 0, 2], [0, 1.5], 5],
    "estimation.q": [2, 3, 20, 21],
    "estimation.p": [0, 1, 71, 72],
    "noise.snr_db": [None, -10.0, 300.0, -INF, [25.0]],
    "trials": [0, True, 1.5],
    "seed": [-1, 0, 2**63, None, [42]],
    "model": ["exact", "farfield", "magic"],
    "subcarrier_counts": [[], [0], [1, 1], [71], [72]],
    "antenna_counts": [[], [2], [3, 3], [3, 20], [21], 5],
    "demo_tilt_deg": [0.0, 89.0, 120.0, -95.0],
    "demo_modes": [[], [0], [1, 1], [-12, 12]],
    "rings": [[], [{"radius_m": 0.02, "n": 4}], [{"radius_m": 11.0, "n": 16}],
              [{"radius_m": 0.02}], [{"radius_m": 0.02, "n": 8}] * 2, [5],
              [{"radius_m": 0.02, "n": 8, "extra": 1}]],
    "validate_modes": [[], [0], [0, 0], [-100, 100]],
}
# The cheapest run of every kind: one trial at one pose, two sweep counts.
BASE = {"poses": [pose(25.0, 18.0)], "trials": 1, "subcarrier_counts": [1, 2],
        "antenna_counts": [3, 6]}
RANDOM_RUNS = 30


def leaf_keys(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, prefix + key + ".")
        else:
            yield prefix + key


def with_values(keys, values):
    cfg = json.loads(json.dumps(BASE))
    for key, value in zip(keys, values):
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    return cfg


def settings(key, value):
    """The keys and values that entry ``key`` of ``EDGES`` sets to ``value``."""
    return (key, value) if isinstance(key, tuple) else ((key,), (value,))


def fuzz_cases():
    """(kind, config) pairs: each edge value alone, on every kind, then
    ``RANDOM_RUNS`` configs of 1-3 keys on drawn kinds."""
    cases = [(kind, with_values(*settings(key, value)))
             for key, values in EDGES.items() for value in values for kind in KINDS]
    rng = random.Random(31)
    for _ in range(RANDOM_RUNS):
        keys, values = (), ()
        for key in rng.sample(list(EDGES), rng.randint(1, 3)):
            more_keys, more_values = settings(key, rng.choice(EDGES[key]))
            keys, values = keys + more_keys, values + more_values
        cases.append((rng.choice(KINDS), with_values(keys, values)))
    return cases


CASES = fuzz_cases()
# A key is named as a whole word: a dotted path, any head of it, or any part.
KEY_NAMES = {"rot_y_deg", "rot_x_deg"}  # the pose entries' keys
for parts in (key.split(".") for key in leaf_keys(BASE_DEFAULTS)):
    KEY_NAMES |= {*parts, *(".".join(parts[:i]) for i in range(2, len(parts) + 1))}
NAMES_A_KEY = re.compile(r"(?<![\w.])(%s)(?![\w])" % "|".join(
    sorted(map(re.escape, KEY_NAMES), key=len, reverse=True)))


def all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(all_finite, value.values()))
    if isinstance(value, list):
        return all(map(all_finite, value))
    return True


def test_edge_table_covers_every_config_key():
    keys = {k for key in EDGES for k in settings(key, None)[0]}
    defaults = set(leaf_keys(BASE_DEFAULTS))
    for overrides in KIND_DEFAULTS.values():
        defaults |= set(leaf_keys(overrides))
    assert keys == defaults


def test_edge_table_holds_the_holes_mended_last():
    # Each exited 3 mid-run: a far-field link too short for the model, three
    # antennas of a 4-element ring, and an empty demo mode list.
    assert 0.1 in EDGES["scenario.distance_m"] and 0.2 in EDGES["scenario.distance_m"]
    assert (4, 3) in EDGES[("scenario.rx.n", "estimation.q")]
    assert all([] in EDGES[key] for key in ("demo_modes", "validate_modes", "poses",
                                            "estimation.modes", "subcarrier_counts",
                                            "antenna_counts", "rings"))


def test_edge_table_holds_wrong_shapes():
    # Each ended in a message that named no key, or loaded: None or a list for
    # a number, a number for a list, a ring entry that is a number or holds an
    # extra key, and a carrier far from its tones (exit 0 at 2 THz, exit 3 at
    # 1e308 Hz).
    for key in ("seed", "noise.snr_db", "scenario.distance_m"):
        assert None in EDGES[key] and any(isinstance(v, list) for v in EDGES[key])
    assert all(5 in EDGES[key] for key in ("estimation.modes", "poses", "antenna_counts"))
    assert [5] in EDGES["rings"] and [{"radius_m": 0.02, "n": 8, "extra": 1}] in EDGES["rings"]
    assert 2e12 in EDGES["scenario.carrier_hz"] and 1e308 in EDGES["scenario.carrier_hz"]


def test_every_config_exits_ok_or_config(tmp_path, capsys):
    outcomes = []
    for n, (kind, cfg) in enumerate(CASES):
        path, out = tmp_path / f"config{n}.json", tmp_path / f"out{n}"
        path.write_text(json.dumps(cfg))
        code = main([kind, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if code == EXIT_OK:
            summary = json.loads((out / "summary.json").read_text())
            fault = None if all_finite(summary) else "non-finite summary"
            for csv_path in sorted(out.glob("*.csv")):
                lines = csv_path.read_text().splitlines()
                if not lines[0].startswith("# spec_hash="):
                    fault = f"{csv_path.name} lacks its spec_hash line"
                elif len(set(lines[2:])) < len(lines) - 2:
                    fault = f"{csv_path.name} repeats a row"
        elif code == EXIT_CONFIG:
            fault = None if NAMES_A_KEY.search(err) else "names no config key"
        else:
            fault = f"exit {code}"
        if fault:
            outcomes.append(f"{kind} {json.dumps(cfg)}: {fault}: {err.strip()}")
    assert not outcomes, "\n".join(outcomes)
