"""Command-line interface.

Subcommands: solve, compact, decompose, gen, render, oracle, check3d.
Exit codes are uniform across commands: 0 success/feasible, 1 infeasible
(after exhaustive search), 2 search gave up on a limit, 3 malformed or
unusable input, 4 internal error (a bug, never a verdict). Canonical
documents go to stdout; progress notes and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

from .decompose import NotBottomLeftStableError, placement_order
from .files import FileFormatError, emit_instance, emit_solution, parse_instance, parse_solution
from .corners import supporting_rects
from .generate import corner_walk_packing, guillotine_layout
from .geometry import Container, Packing
from .oracle import OracleCapacityError, OracleLimits, oracle_feasible
from .render import render_svg
from .solver import RECT_ORDERS, SolveStatus, SolverConfig, certify, solve
from .space3d import POS_X, POS_Y, POS_Z, blocked_directions3, find_escaper3, is_feasible3, table1_packing
from .stability import compact

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; that slot belongs to
    # "search hit a limit" here, so usage problems raise an input error.
    def error(self, message):
        raise ValueError(message)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_packing(instance_path: str, solution_path: str) -> Packing:
    instance = parse_instance(_read(instance_path))
    packing = parse_solution(_read(solution_path), instance)
    if packing is None:
        raise FileFormatError("solution is marked infeasible; nothing to work with")
    return packing


def _container_arg(text: str) -> Container:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")
    try:
        return Container(int(m.group(1)), int(m.group(2)))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def cmd_solve(args) -> int:
    instance = parse_instance(_read(args.instance))
    config = SolverConfig(
        enhanced_pruning=not args.no_enhanced,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        rect_order=args.order,
    )
    result = solve(instance, config)
    if not certify(instance, result):
        raise RuntimeError("solver emitted a result that fails certification")
    print(
        f"nodes={result.stats.nodes_expanded} depth={result.stats.max_depth} "
        f"time={result.stats.elapsed_seconds:.3f}s",
        file=sys.stderr,
    )
    if result.status is SolveStatus.FEASIBLE:
        sys.stdout.write(emit_solution(result.packing))
        return EXIT_FEASIBLE
    if result.status is SolveStatus.INFEASIBLE:
        sys.stdout.write(emit_solution(None))
        return EXIT_INFEASIBLE
    print("unknown: a search limit fired before the instance was decided", file=sys.stderr)
    return EXIT_UNKNOWN


def cmd_compact(args) -> int:
    packing = _load_packing(args.instance, args.solution)
    compacted, trace = compact(packing)
    print(
        f"moves={len(trace.steps)} distance={trace.total_distance} "
        f"l={trace.initial_l}->{trace.final_l}",
        file=sys.stderr,
    )
    sys.stdout.write(emit_solution(compacted))
    return EXIT_FEASIBLE


def cmd_decompose(args) -> int:
    packing = _load_packing(args.instance, args.solution)
    # An infeasible packing is left to placement_order, which rejects it.
    try:
        order = placement_order(packing)
    except NotBottomLeftStableError:
        print("input is not bottom-left stable; compacting it first", file=sys.stderr)
        packing, _trace = compact(packing)
        order = placement_order(packing)
    states = order.replay()
    if states[-1] != packing:
        raise RuntimeError("replay failed to reproduce the packing it was derived from")
    print("order:", " ".join(str(i + 1) for i in order.order))
    for step, action in enumerate(order.actions, start=1):
        i, corner = action.rect_index, action.corner
        rot = " rotated" if corner.rotated else ""
        sup = supporting_rects(states[step], i)
        sup_text = ", ".join(str(j + 1) for j in sorted(sup)) if sup else "borders"
        print(f"step {step}: rectangle {i + 1} -> ({corner.x}, {corner.y}){rot}, supports: {sup_text}")
    return EXIT_FEASIBLE


def cmd_gen(args) -> int:
    if args.solution is not None and args.mode != "guillotine":
        raise ValueError("--solution requires --mode guillotine")
    rng = random.Random(args.seed)
    if args.mode == "guillotine":
        packing = guillotine_layout(args.container, args.count, rng)
    else:
        packing = corner_walk_packing(args.container, args.count, rng)
    _write_or_print(emit_instance(packing.instance), args.out)
    if args.solution is not None:
        _write_or_print(emit_solution(packing), args.solution)
    return EXIT_FEASIBLE


def cmd_render(args) -> int:
    packing = _load_packing(args.instance, args.solution)
    _write_or_print(render_svg(packing), args.out)
    return EXIT_FEASIBLE


def cmd_oracle(args) -> int:
    instance = parse_instance(_read(args.instance))
    try:
        packing = oracle_feasible(instance, OracleLimits(max_states=args.max_states))
    except OracleCapacityError as e:
        print(f"unknown: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    sys.stdout.write(emit_solution(packing))
    return EXIT_FEASIBLE if packing is not None else EXIT_INFEASIBLE


def cmd_check3d(args) -> int:
    p = table1_packing()
    c = p.container
    feasible = is_feasible3(p)
    print(f"container: {c.width}x{c.depth}x{c.height}")
    print(f"feasible: {'true' if feasible else 'false'}")
    axis_order = (POS_X, POS_Y, POS_Z)
    for i, box in enumerate(p.boxes):
        blocked = blocked_directions3(i, p)
        names = ", ".join(d for d in axis_order if d in blocked)
        print(
            f"box {i + 1} at ({box.x}, {box.y}, {box.z}) "
            f"size {box.dims.width}x{box.dims.depth}x{box.dims.height}: "
            f"blocked {{{names}}}"
        )
    escaper = find_escaper3(p)
    print(f"no escaper exists: {'true' if escaper is None else 'false'}")
    return EXIT_FEASIBLE if feasible and escaper is None else EXIT_INFEASIBLE


def build_parser() -> _Parser:
    parser = _Parser(prog="cornerpack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide feasibility and print a solution file")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--no-enhanced", action="store_true", help="disable placement pruning")
    p.add_argument("--node-limit", type=int, default=None, help="max search states")
    p.add_argument("--time-limit", type=float, default=None, help="max seconds")
    p.add_argument("--order", choices=RECT_ORDERS, default="area")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compact", help="slide all rectangles maximally down and left")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("decompose", help="derive and verify a corner build order")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gen", help="generate a feasible-by-construction instance")
    p.add_argument("--container", type=_container_arg, required=True, metavar="WxH")
    p.add_argument("--count", type=int, required=True, help="number of rectangles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("guillotine", "corner-walk"), default="guillotine")
    p.add_argument("--out", default=None, help="instance output path (default stdout)")
    p.add_argument("--solution", default=None, help="also write the witness solution (guillotine only)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("render", help="draw a solution as SVG")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--out", default=None, help="SVG output path (default stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="brute-force feasibility check")
    p.add_argument("instance")
    p.add_argument("--max-states", type=int, default=OracleLimits().max_states)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check3d", help="verify the 3D no-escaper configuration")
    p.set_defaults(func=cmd_check3d)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
