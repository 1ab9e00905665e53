"""Behaviour gate: reports over a fixed run matrix stay byte-identical.

``perfbench/run.py --digests`` builds ``report.json`` for a fixed matrix
of runs (both simulators, three seeds, every partition strategy and
scoring rule) and compares their SHA-256 with
``perfbench/report_digests.txt``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_match_reference():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--digests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "0 report digest(s) differ from the reference" in proc.stderr
