"""Pinned reference outputs: the summary and per-row estimates and gains of
eight runs, kept in ``tests/reference/<case>.json``.

    PYTHONPATH=src python tests/make_reference.py

rewrites every reference file from the current code.  ``test_reference.py``
runs the same cases and compares them with these files; it never writes
them.  A change that moves outputs on purpose regenerates the references
and lists the moved rows in CHANGES.md.

A record keeps, for every CSV a run writes, its column names and row count,
and the values of the columns in ``KEPT`` (every column of a file not named
there); ``validate_phases.csv`` keeps antenna 0 of each (pose, ring, mode)
block.  Floats are kept to 10 significant digits.

Comparison (``differences``): column names, row counts, ints, strings and
bools must be equal.  Floats may differ, since their last bits depend on the
platform (an AVX-512 CPU fuses complex multiplies) and on a trial's batch:
by 1e-6 deg on ``*_deg`` and 1e-8 rad on ``*_rad`` values (both modulo a
full turn), by 1e-6 dB on ``*_db`` values, and by 1e-6 of the largest
magnitude in their column (or of themselves, in a summary) elsewhere.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from vortex_align import harness

REFERENCE = Path(__file__).resolve().parent / "reference"

# case: (kind, config, extra CLI arguments)
CASES = {
    "ccdf": ("ccdf", {}, []),
    "ccdf_modes3": ("ccdf", {"estimation": {"modes": [-1, 0, 1]}}, ["--trials", "2"]),
    "angle_exact_p64": ("angle-sweep", {"model": "exact", "estimation": {"p": 64, "q": 12},
                                        "noise": {"snr_db": 10.0}}, ["--trials", "4"]),
    "ccdf_modes202": ("ccdf", {"estimation": {"modes": [-2, 0, 2]}}, ["--trials", "2"]),
    "subcarrier_sweep": ("subcarrier-sweep", {}, ["--trials", "1"]),
    "antenna_sweep": ("antenna-sweep", {}, ["--trials", "1"]),
    "validate_model": ("validate-model", {}, []),
    "imi_demo": ("imi-demo", {}, []),
}

KEPT = {
    "results.csv": ("point_index", "trial_index", "trial_seed", "theta_est_deg",
                    "phi_est_deg", "residual", "sir_before_db", "sir_after_db",
                    "sir_gain_true_db", "capacity_ratio"),
    # Their "ccdf" column is (n - i - 1) / n whatever the values.
    "ccdf_sir_gain.csv": ("sir_gain_db",),
    "ccdf_capacity_gain.csv": ("capacity_ratio",),
}
INT_COLUMNS = {"point_index", "trial_index", "trial_seed", "p", "q", "u", "pose_index",
               "ring_index", "ring_elements", "mode", "antenna", "decoded\\transmitted"}
STR_COLUMNS = {"kind"}


def _cell(column: str, text: str):
    if column in INT_COLUMNS:
        return int(text)
    if column in STR_COLUMNS:
        return text
    return float(f"{float(text):.10g}")


def _table(path: Path) -> dict:
    with open(path, newline="") as fh:
        next(fh)  # the spec-hash line
        reader = csv.reader(fh)
        columns = next(reader)
        rows = list(reader)
    kept = KEPT.get(path.name, columns)
    if path.name == "validate_phases.csv":
        rows = [row for row in rows if row[columns.index("antenna")] == "0"]
    at = [columns.index(c) for c in kept]
    return {"columns": columns, "rows": len(rows), "kept": list(kept),
            "values": [[_cell(c, row[i]) for c, i in zip(kept, at)] for row in rows]}


def record(case: str, out_dir: Path) -> dict:
    """Run ``case`` into ``out_dir`` and return its record."""
    kind, config, extra = CASES[case]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    run_dir = out_dir / case
    code = harness.main([kind, "--config", str(path), "--out", str(run_dir), *extra])
    if code != harness.EXIT_OK:
        raise RuntimeError(f"{case} exited {code}")
    summary = json.loads((run_dir / "summary.json").read_text())
    tables = {p.name: _table(p) for p in sorted(run_dir.glob("*.csv"))}
    return {"summary": summary, "files": tables}


def _float_differs(key: str, got: float, want: float, scale: float) -> bool:
    if key.endswith(("_deg", "_rad")):
        turn = 360.0 if key.endswith("_deg") else 2.0 * math.pi
        tol = 1e-6 if key.endswith("_deg") else 1e-8
        return not abs((got - want + turn / 2) % turn - turn / 2) <= tol
    if key.endswith("_db"):
        return not abs(got - want) <= 1e-6
    return not abs(got - want) <= 1e-6 * scale


def _compare(got, want, key: str, where: str, scale: float | None, out: list) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if _float_differs(key, float(got), want, abs(want) if scale is None else scale):
            out.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, key, f"{where}[{i}]", scale, out)
    elif isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for k in want:
            _compare(got[k], want[k], k, f"{where}.{k}", scale, out)
    elif type(got) is not type(want) or got != want:
        out.append(f"{where}: {got!r} != {want!r}")


def differences(got: dict, want: dict) -> list[str]:
    """Every place where record ``got`` differs from reference ``want``."""
    out: list[str] = []
    _compare(got["summary"], want["summary"], "", "summary", None, out)
    if got["files"].keys() != want["files"].keys():
        return out + [f"files {sorted(got['files'])} != {sorted(want['files'])}"]
    for name, table in want["files"].items():
        mine = got["files"][name]
        fields = [f for f in ("columns", "rows", "kept") if mine[f] != table[f]]
        out += [f"{name} {f}: {mine[f]!r} != {table[f]!r}" for f in fields]
        if fields or len(mine["values"]) != len(table["values"]):
            continue
        for j, column in enumerate(table["kept"]):
            want_col = [row[j] for row in table["values"]]
            scale = max((abs(v) for v in want_col if isinstance(v, float)), default=0.0)
            for i, (row, w) in enumerate(zip(mine["values"], want_col)):
                _compare(row[j], w, column, f"{name} row {i} {column}", scale, out)
    return out


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            rec = record(case, Path(tmp))
            # One line per innermost list: a row of values, or a header.
            text = re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group(0).split()),
                          json.dumps(rec, sort_keys=True, indent=1))
            (REFERENCE / f"{case}.json").write_text(text + "\n")
            print(f"wrote {case}.json ({len(text)} bytes)", file=sys.stderr)


if __name__ == "__main__":
    main()
