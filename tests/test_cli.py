import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from cornerpack import (
    emit_instance,
    emit_solution,
    is_bottom_left_stable,
    is_feasible,
    parse_instance,
    parse_solution,
)
from cornerpack.cli import main

from conftest import make_packing

FEASIBLE_INSTANCE = '{"container": {"width": 4, "height": 4}, "rectangles": [{"width": 2, "height": 4}, {"width": 2, "height": 4}]}'
INFEASIBLE_INSTANCE = '{"container": {"width": 3, "height": 3}, "rectangles": [{"width": 2, "height": 2}, {"width": 2, "height": 2}]}'


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return tmp_path, write


def test_solve_feasible_emits_certified_solution(workdir, capsys):
    _, write = workdir
    path = write("inst.json", FEASIBLE_INSTANCE)
    code = main(["solve", path])
    out, err = capsys.readouterr()
    assert code == 0
    instance = parse_instance(FEASIBLE_INSTANCE)
    packing = parse_solution(out, instance)
    assert is_feasible(packing) and packing.is_complete
    assert is_bottom_left_stable(packing)
    assert "nodes=" in err
    # Canonical output round-trips byte-identically.
    assert emit_solution(packing) == out


def test_solve_infeasible_exits_one(workdir, capsys):
    _, write = workdir
    code = main(["solve", write("inst.json", INFEASIBLE_INSTANCE)])
    out, _ = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {"feasible": False}


def test_solve_limit_exits_two_with_no_document(workdir, capsys):
    _, write = workdir
    path = write(
        "inst.json",
        '{"container": {"width": 5, "height": 5}, "rectangles": '
        '[{"width": 2, "height": 2}, {"width": 2, "height": 3}, {"width": 3, "height": 2}]}',
    )
    code = main(["solve", "--node-limit", "1", path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "unknown" in err


def test_solve_flag_variants_keep_verdicts(workdir, capsys):
    _, write = workdir
    path = write("inst.json", FEASIBLE_INSTANCE)
    for flags in (["--no-enhanced"], ["--order", "input"], ["--order", "perimeter"]):
        assert main(["solve", *flags, path]) == 0
        capsys.readouterr()


def test_invalid_time_limits_exit_three(workdir, capsys):
    _, write = workdir
    path = write("inst.json", FEASIBLE_INSTANCE)
    for value in ("nan", "0", "-1"):
        assert main(["solve", "--time-limit", value, path]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "time_limit" in err


def test_missing_and_malformed_inputs_exit_three(workdir, capsys):
    tmp, write = workdir
    assert main(["solve", str(tmp / "absent.json")]) == 3
    assert main(["solve", write("bad.json", "{oops")]) == 3
    assert main(["solve", write("neg.json", '{"container": {"width": -1, "height": 2}, "rectangles": []}')]) == 3
    capsys.readouterr()


def test_deeply_nested_json_exits_three_not_four(workdir, capsys):
    # The JSON decoder recurses once per nesting level; running out of
    # stack there is malformed input, not a bug.
    _, write = workdir
    assert main(["solve", write("deep.json", "[" * 100_000)]) == 3
    _, err = capsys.readouterr()
    assert err.startswith("error: invalid JSON")


def test_overlong_integer_literal_exits_three_as_a_format_error(workdir, capsys):
    _, write = workdir
    text = FEASIBLE_INSTANCE.replace('"width": 4', '"width": 1' + "0" * 4_300)
    assert main(["solve", write("huge.json", text)]) == 3
    _, err = capsys.readouterr()
    assert err.startswith("error: invalid JSON")
    assert "set_int_max_str_digits" not in err


def test_internal_error_exits_four_not_infeasible(workdir, monkeypatch, capsys):
    import cornerpack.cli as cli

    def broken_solve(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "solve", broken_solve)
    _, write = workdir
    code = main(["solve", write("inst.json", FEASIBLE_INSTANCE)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL_ERROR == 4
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: boom"]


def test_uncertified_result_exits_four(workdir, monkeypatch, capsys):
    import cornerpack.cli as cli

    monkeypatch.setattr(cli, "certify", lambda instance, result: False)
    _, write = workdir
    code = main(["solve", write("inst.json", FEASIBLE_INSTANCE)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL_ERROR == 4
    assert out == ""
    assert err.splitlines() == [
        "internal error: RuntimeError: solver emitted a result that fails certification"
    ]


def test_failed_replay_exits_four(workdir, monkeypatch, capsys):
    import cornerpack.cli as cli
    from cornerpack.decompose import PlacementOrder

    replay = PlacementOrder.replay

    def replay_to_the_empty_packing(order):
        states = replay(order)
        return states[:-1] + states[:1]

    monkeypatch.setattr(PlacementOrder, "replay", replay_to_the_empty_packing)
    _, write = workdir
    packing = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    inst_path = write("inst.json", emit_instance(packing.instance))
    code = main(["decompose", inst_path, write("sol.json", emit_solution(packing))])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL_ERROR == 4
    assert out == ""
    assert err.splitlines() == [
        "internal error: RuntimeError: replay failed to reproduce the packing it was derived from"
    ]


@pytest.mark.parametrize("module", ["cornerpack", "cornerpack.cli"])
def test_python_dash_m_runs_the_cli(module):
    # ``-m cornerpack`` runs __main__.py, ``-m cornerpack.cli`` the module's own guard.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", module, "check3d"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "no escaper exists: true"


def test_usage_errors_exit_three_not_two(capsys):
    assert main(["no-such-command"]) == 3
    assert main(["gen", "--container", "nonsense", "--count", "1"]) == 3
    assert main(["gen", "--container", "4x4", "--count", "-1"]) == 3
    _, err = capsys.readouterr()
    assert "error" in err
    # A parsed but empty container names the rule it breaks.
    for sides in ("0x5", "3x0"):
        assert main(["gen", "--container", sides, "--count", "1"]) == 3
        _, err = capsys.readouterr()
        assert f"argument --container: container sides must be integers >= 1, got {sides}\n" in err


def test_compact_moves_floating_rect(workdir, capsys):
    _, write = workdir
    packing = make_packing(5, 5, (2, 2, 3, 3))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    code = main(["compact", inst_path, sol_path])
    out, err = capsys.readouterr()
    assert code == 0
    moved = parse_solution(out, packing.instance)
    rect = moved.placed_rect(0)
    assert (rect.x, rect.y) == (0, 0)
    assert "moves=" in err and "l=6->0" in err


def test_compact_keeps_stable_input_unchanged(workdir, capsys):
    _, write = workdir
    packing = make_packing(5, 5, (2, 2, 0, 0), (1, 3, 2, 0))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_text = emit_solution(packing)
    code = main(["compact", inst_path, write("sol.json", sol_text)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == sol_text


def test_compact_rejects_overlapping_solution(workdir, capsys):
    _, write = workdir
    packing = make_packing(4, 4, (3, 3, 0, 0), (3, 3, 1, 1))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    assert main(["compact", inst_path, sol_path]) == 3
    capsys.readouterr()


def test_compact_rejects_infeasible_marker_file(workdir, capsys):
    _, write = workdir
    inst_path = write("inst.json", FEASIBLE_INSTANCE)
    sol_path = write("sol.json", '{"feasible": false}\n')
    assert main(["compact", inst_path, sol_path]) == 3
    _, err = capsys.readouterr()
    assert "marked infeasible" in err


def test_decompose_reports_order_and_supports(workdir, capsys):
    _, write = workdir
    packing = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    code = main(["decompose", inst_path, sol_path])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("order: ")
    assert len(lines) == 3
    assert "supports: borders" in lines[1]
    assert err == ""


def test_decompose_prints_rotation_and_every_support(workdir, capsys):
    # The third box lies rotated across both 2x1 boxes; the 2x2 is unplaced.
    _, write = workdir
    packing = make_packing(
        4, 3, (2, 1, 0, 0), (2, 1, 2, 0), (1, 4, 0, 1, True), (2, 2, None, None)
    )
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    assert main(["decompose", inst_path, sol_path]) == 0
    out, err = capsys.readouterr()
    assert out == (
        "order: 1 2 3\n"
        "step 1: rectangle 1 -> (0, 0), supports: borders\n"
        "step 2: rectangle 2 -> (2, 0), supports: 1\n"
        "step 3: rectangle 3 -> (0, 1) rotated, supports: 1, 2\n"
    )
    assert err == ""


def test_decompose_compacts_unstable_input_with_notice(workdir, capsys):
    _, write = workdir
    packing = make_packing(5, 5, (2, 2, 3, 3))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    code = main(["decompose", inst_path, sol_path])
    out, err = capsys.readouterr()
    assert code == 0
    assert "compacting" in err
    assert "rectangle 1 -> (0, 0)" in out


def test_decompose_rejects_infeasible_input_without_compaction_note(workdir, capsys):
    # An overlapping or protruding packing is rejected by the build-order
    # derivation itself; it is never announced as being compacted.
    _, write = workdir
    for packing in (
        make_packing(4, 4, (3, 3, 0, 0), (3, 3, 1, 1)),
        make_packing(4, 4, (2, 2, 3, 3)),
    ):
        inst_path = write("inst.json", emit_instance(packing.instance))
        sol_path = write("sol.json", emit_solution(packing))
        assert main(["decompose", inst_path, sol_path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot order an infeasible packing\n"


def test_decompose_single_rect(workdir, capsys):
    _, write = workdir
    packing = make_packing(3, 3, (2, 1, 0, 0))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    assert main(["decompose", inst_path, sol_path]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "order: 1"


def test_gen_is_deterministic_and_solvable(workdir, capsys):
    assert main(["gen", "--container", "8x6", "--count", "5", "--seed", "9"]) == 0
    first, _ = capsys.readouterr()
    assert main(["gen", "--container", "8x6", "--count", "5", "--seed", "9"]) == 0
    second, _ = capsys.readouterr()
    assert first == second

    tmp, write = workdir
    inst_path = write("gen.json", first)
    assert main(["solve", inst_path]) == 0
    capsys.readouterr()


def test_gen_writes_instance_and_witness_files(workdir, capsys):
    tmp, _ = workdir
    inst_path = str(tmp / "inst.json")
    sol_path = str(tmp / "sol.json")
    code = main(
        ["gen", "--container", "6x6", "--count", "4", "--seed", "3", "--out", inst_path, "--solution", sol_path]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == ""
    instance = parse_instance(Path(inst_path).read_text(encoding="utf-8"))
    witness = parse_solution(Path(sol_path).read_text(encoding="utf-8"), instance)
    assert is_feasible(witness) and witness.is_complete


def test_gen_corner_walk_mode(workdir, capsys):
    code = main(["gen", "--container", "7x7", "--count", "4", "--mode", "corner-walk"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert parse_instance(out).n == 4


def test_gen_witness_needs_guillotine_mode(workdir, capsys):
    tmp, _ = workdir
    code = main(
        ["gen", "--container", "7x7", "--count", "3", "--mode", "corner-walk", "--solution", str(tmp / "s.json")]
    )
    assert code == 3
    capsys.readouterr()


def test_gen_impossible_count_exits_three(capsys):
    assert main(["gen", "--container", "2x2", "--count", "9"]) == 3
    capsys.readouterr()


def test_render_outputs_well_formed_svg(workdir, capsys):
    tmp, write = workdir
    packing = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    code = main(["render", inst_path, sol_path])
    out, _ = capsys.readouterr()
    assert code == 0
    svg = ET.fromstring(out)
    assert len(svg.findall("{http://www.w3.org/2000/svg}rect")) == 3

    out_path = tmp / "drawing.svg"
    assert main(["render", inst_path, sol_path, "--out", str(out_path)]) == 0
    capsys.readouterr()
    ET.fromstring(out_path.read_text(encoding="utf-8"))


def test_render_refuses_infeasible_solution(workdir, capsys):
    _, write = workdir
    packing = make_packing(4, 4, (3, 3, 0, 0), (3, 3, 1, 1))
    inst_path = write("inst.json", emit_instance(packing.instance))
    sol_path = write("sol.json", emit_solution(packing))
    assert main(["render", inst_path, sol_path]) == 3
    capsys.readouterr()


def test_oracle_emits_witness_or_verdict(workdir, capsys):
    _, write = workdir
    path = write("inst.json", FEASIBLE_INSTANCE)
    assert main(["oracle", path]) == 0
    out, _ = capsys.readouterr()
    witness = parse_solution(out, parse_instance(FEASIBLE_INSTANCE))
    assert is_feasible(witness) and witness.is_complete

    bad = write("bad.json", INFEASIBLE_INSTANCE)
    assert main(["oracle", bad]) == 1
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"feasible": False}


def test_oracle_capacity_exits_two(workdir, capsys):
    _, write = workdir
    path = write("inst.json", FEASIBLE_INSTANCE)
    code = main(["oracle", "--max-states", "1", path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "unknown" in err


def test_check3d_report_is_exact(capsys):
    code = main(["check3d"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (
        "container: 3x2x3\n"
        "feasible: true\n"
        "box 1 at (2, 0, 0) size 1x2x1: blocked {+z}\n"
        "box 2 at (0, 1, 1) size 3x1x1: blocked {+z}\n"
        "box 3 at (0, 0, 2) size 1x2x1: blocked {+x}\n"
        "box 4 at (1, 0, 0) size 1x1x3: blocked {+x, +y}\n"
        "no escaper exists: true\n"
    )
