"""Each pinned run still writes its reference outputs (``make_reference.py``).

A failure lists where a run's record left its reference: a column renamed
or moved, a row count, an int or string, or a float beyond its stated
tolerance.  If the change meant to move outputs, regenerate the references
with ``PYTHONPATH=src python tests/make_reference.py`` and list the moved
rows in CHANGES.md.
"""

import json

import pytest

from make_reference import CASES, REFERENCE, differences, record


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_its_reference(tmp_path, case):
    want = json.loads((REFERENCE / f"{case}.json").read_text())
    problems = differences(record(case, tmp_path), want)
    assert not problems, f"{len(problems)} differences:\n" + "\n".join(problems[:20])
