"""The narrated demos run and still show what the README says they show."""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run_and_tell_their_story():
    # Demo 05 writes its SVGs beside itself, so the next test runs a copy.
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
    # Demo 03: on the feasible instance with slack pruning costs nodes; on
    # its zero-slack twin, branching on the lowest free cell saves them.
    for label, costs in (("pruning is not a free lunch:", True), ("a perfect tiling:", False)):
        case = out["03"].split(label)[1]
        plain, enhanced = map(int, re.search(r"plain (\d+), enhanced (\d+)", case).groups())
        assert (enhanced > plain) is costs, label
    # Demo 04: no box of the 3D configuration escapes.
    assert "escaping box: None" in out["04"].splitlines()


def test_readme_library_example_prints_what_it_says():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", example], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "SolveStatus.FEASIBLE\n[(0, 0), (2, 0)]\n"


def test_readme_command_line_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 7 and all(line.startswith("cornerpack ") for line in lines)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli = f"{shlex.quote(sys.executable)} -m cornerpack"
    for line in lines:
        done = subprocess.run(
            cli + line[len("cornerpack") :],
            shell=True,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            cwd=tmp_path,
        )
        # The generated instance is feasible, so every line exits 0.
        assert done.returncode == 0, f"{line}: {done.stderr}"
    assert done.stdout.splitlines()[-1] == "no escaper exists: true"


def test_render_gallery_demo_writes_four_svgs(tmp_path):
    # Run a copy of demo 05 in a scratch directory, so its gallery is
    # written there and not into the source tree.
    demo = Path(shutil.copy(ROOT / "demos" / "05_render_gallery.py", tmp_path))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("wrote gallery/") for line in lines)
    files = sorted((tmp_path / "gallery").iterdir())
    assert [f"wrote gallery/{f.name}" for f in files] == sorted(lines)
    assert all(f.read_text(encoding="utf-8").startswith("<svg") for f in files)
