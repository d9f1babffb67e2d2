"""Each quick demo runs to completion in a fresh interpreter.

``remeasure_regression.py`` is left out: it re-measures the frozen constants
and takes minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# numbers a demo prints, pinned: they come from fixed seeds, so moving one
# means the recovery asks differently
PRINTED = {
    "coin_weighing": [
        "1440 columns, 384 rows",
        "390 sum queries in 390 blocks (binary-split)",
        "1298 add queries (2.54 per pair)",
    ],
}


@pytest.mark.parametrize(
    "demo",
    ["learn_hidden_partition", "learn_partition_matroid", "coin_weighing", "query_benchmark"],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for text in PRINTED.get(demo, []):
        assert text in proc.stdout, (text, proc.stdout)
    if demo == "query_benchmark":
        assert (tmp_path / "demo_sweep.csv").is_file()
