"""The README's library quick start runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # The example tilts the receiver to (30 deg, -120 deg) and prints the
    # estimated angles and the SIR gain of the correction.
    theta_deg, phi_deg, gain_db = map(float, capsys.readouterr().out.split())
    assert abs(theta_deg - 30.0) < 2.0
    assert abs(phi_deg + 120.0) < 2.0
    assert gain_db > 10.0
