"""Command-line front end.

Subcommands: check, order, split, draw, validate, gen, bench.
Exit codes: 0 success, 1 rejection (check, order or straight-line draw
of a non-bitonic graph, a drawing that fails validation or a bench
drawing that fails its checks), 2 malformed input or a file that cannot
be read or written.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import StGraphError
from .generate import RNG_ALGORITHM, GeneratorConfig, generate_random_st_graph
from .io import (drawing_from_text, drawing_to_text, graph_to_text,
                 load_graph, read_text)
from .layout import draw_polyline, draw_straightline, emit_svg
from .ordering import (RejectionWitness, find_bitonic_ordering,
                       ordering_to_text, witness_to_text)
from .splitting import (minimum_split_plan, plan_to_text,
                        transitive_split_plan)
from .validate import check_bounds, check_upward_planar


def _cmd_order(args) -> int:
    """``check`` prints accept, ``order`` the ordering, ``draw`` a drawing.

    All but ``draw --mode poly`` need the ordering and reject alike: the
    witness on stdout, exit code 1.
    """
    g = load_graph(args.graph)
    if args.command == "draw" and args.mode == "poly":
        d = draw_polyline(g)
    else:
        res = find_bitonic_ordering(g)
        if isinstance(res, RejectionWitness):
            sys.stdout.write(witness_to_text(res))
            return 1
        if args.command != "draw":
            sys.stdout.write(ordering_to_text(res)
                             if args.command == "order" else "accept\n")
            return 0
        d = draw_straightline(g, res)
    # the SVG first: a file that cannot be written leaves stdout empty
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(emit_svg(d, scale=args.scale))
    sys.stdout.write(drawing_to_text(g, d))
    return 0


def _cmd_split(args) -> int:
    g = load_graph(args.graph)
    plan = (transitive_split_plan(g) if args.all_transitive
            else minimum_split_plan(g))
    sys.stdout.write(plan_to_text(g, plan))
    return 0


def _cmd_validate(args) -> int:
    g = load_graph(args.graph)
    d = drawing_from_text(read_text(args.drawing), g)
    report = check_upward_planar(g, d)
    sys.stdout.write(report.to_json() + "\n" if args.json
                     else report.to_text())
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(n_target=args.n, seed=args.seed)
    g = generate_random_st_graph(cfg)
    sys.stdout.write(f"# generated n={args.n} seed={args.seed} "
                     f"rng={RNG_ALGORITHM}\n")
    sys.stdout.write(graph_to_text(g))
    return 0


def _cmd_bench(args) -> int:
    """Generate, draw poly-line and check each size: one CSV row per size.

    ``ms_total`` times the drawing and ``ms_validate`` the upward-planarity
    and bound checks.  The rows are written after the last size, so a size
    that raises prints none of them.
    """
    rows, failed = [], []
    for n in args.sizes:
        g = generate_random_st_graph(GeneratorConfig(n_target=n,
                                                     seed=args.seed))
        t0 = time.perf_counter()
        d = draw_polyline(g)
        t1 = time.perf_counter()
        ok = (check_upward_planar(g, d).ok
              and check_bounds(d, g.n, "polyline"))
        t2 = time.perf_counter()
        if not ok:
            failed.append(str(n))
        bends = len(d.bent)  # one per split edge
        rows.append(f"{n},{g.m},{bends},{bends},{d.width},{d.height},"
                    f"{(t1 - t0) * 1000.0:.1f},{(t2 - t1) * 1000.0:.1f}\n")
    sys.stdout.write("n,edges,splits,bends,width,height,ms_total,"
                     "ms_validate\n")
    sys.stdout.writelines(rows)
    if failed:
        sys.stderr.write(f"error: the drawing fails its checks for "
                         f"n = {', '.join(failed)}\n")
        return 1
    return 0


def int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}, got {value}")
        return value
    return integer


def size_list(text: str) -> list[int]:
    return list(map(int_at_least(2), text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stlayout",
        description="Upward planar grid drawings of embedded planar "
                    "st-graphs via bitonic st-orderings.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="accept/reject bitonic orderability")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_order)

    sp = sub.add_parser("order", help="emit a bitonic st-ordering")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_order)

    sp = sub.add_parser("split", help="emit the minimum split plan")
    sp.add_argument("graph")
    sp.add_argument("--all-transitive", action="store_true",
                    help="baseline: split every transitive edge")
    sp.set_defaults(func=_cmd_split)

    sp = sub.add_parser("draw", help="draw straight-line or poly-line")
    sp.add_argument("graph")
    sp.add_argument("--mode", choices=("straight", "poly"), default="poly")
    sp.add_argument("--svg", help="also write an SVG file")
    sp.add_argument("--scale", type=int_at_least(1), default=20,
                    help="SVG pixels per grid unit, at least 1")
    sp.set_defaults(func=_cmd_order)

    sp = sub.add_parser("validate", help="verify a drawing file")
    sp.add_argument("graph")
    sp.add_argument("drawing")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("gen", help="generate a random planar st-graph")
    sp.add_argument("--n", type=int_at_least(2), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="scaling benchmark")
    sp.add_argument("--sizes", type=size_list, required=True,
                    help="comma separated vertex counts, each at least 2")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_bench)
    return p


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except StGraphError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
