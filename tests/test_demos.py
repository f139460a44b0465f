"""The narrated demos run and still show what the README says they show."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run_and_tell_their_story():
    # Demo 05 writes its SVGs beside itself, so it is left out.
    demos = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
    assert [d.name[:2] for d in demos] == ["01", "02", "03", "04"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, f"{demo.name}: {done.stderr}"
        out[demo.name[:2]] = done.stdout
    # Demo 03's last case: on this feasible instance pruning costs nodes.
    case = out["03"].split("pruning is not a free lunch:")[1]
    plain, enhanced = map(int, re.search(r"plain (\d+), enhanced (\d+)", case).groups())
    assert enhanced > plain
    # Demo 04: no box of the 3D configuration escapes.
    assert "escaping box: None" in out["04"].splitlines()
