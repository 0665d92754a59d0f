"""Command-line front end: aggregation, group checks, escape calculus.

Exit codes: 0 success, 1 a verified property failed (that would be a bug),
2 bad input, 3 word not realizable.  Output is deterministic JSON: same
request, same bytes.  A request for more than MAX_CHIPS chips, a word
longer than MAX_SYNTHESIS_LETTERS to ``escape synthesize``, or an ``--out``
or ``--dot`` path that cannot be written exits 2 before any work.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from rotorlab import acceptance
from rotorlab.escape import (
    NotRealizableError,
    WordError,
    residues,
    synthesize_branch,
    synthesize_tree,
    descriptor_to_branch_config,
    validate_word,
    violating_window,
)
from rotorlab.graph import (GraphError, TooLargeError, check_enumeration_limit,
                            graph_from_json)
from rotorlab.group import (CHECK_LIMIT, check_work_limit, order_of_generator,
                            verify_isomorphism)
from rotorlab.lazytree import (
    LazyTreeConfig,
    LazyTreeError,
    NotAcyclicError,
    aggregate,
    ball_size,
    dot_blocks,
    alternating_tree_config,
    run_chips_infinite,
    uniform_config,
)
from rotorlab.trees import build_wired_tree

OK, VERDICT_FAIL, INPUT_ERROR, NOT_REALIZABLE = 0, 1, 2, 3

# The most chips one command walks (aggregate, escape simulate, and the
# round trip of escape synthesize).  Larger requests exit 2 before any
# walking, so all three end in bounded time.
MAX_CHIPS = 10 ** 6

# The longest word ``escape synthesize`` takes.  The configuration of a
# sparse valid word grows about quadratically with its length, so the chip
# limit does not bound that command's time; this does.  It keeps the
# 1,203-letter word 110 0^1200 (a 1,200-level descriptor) accepted.
MAX_SYNTHESIS_LETTERS = 1_250


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _unwritable(path: str) -> str | None:
    """Why no file can be written at ``path``, or None if one can."""
    if os.path.isdir(path):
        return "is a directory"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"no directory {folder}"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "permission denied"
    return None


def _check_chips(request: str, chips: int) -> None:
    if chips > MAX_CHIPS:
        raise ValueError(f"{request} is above the chip limit {MAX_CHIPS}")


def _radius_chips(d: int, radius: int) -> int:
    """b_radius, checked against MAX_CHIPS.  b_radius > 2^radius, so a
    radius past MAX_CHIPS.bit_length() is refused before the power that
    ball_size would take."""
    if radius > MAX_CHIPS.bit_length():
        raise ValueError(f"--radius {radius} (b_{radius} > 2^{radius} chips) "
                         f"is above the chip limit {MAX_CHIPS}")
    chips = ball_size(d, radius)
    _check_chips(f"--radius {radius} (b_{radius} = {chips} chips)", chips)
    return chips


def cmd_aggregate(args) -> int:
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = LazyTreeConfig.from_json(fh.read())
            if cfg.d != args.d:
                return _fail("config degree does not match --d", INPUT_ERROR)
        else:
            cfg = uniform_config(args.d, 1)
        if args.radius is not None and args.chips is not None:
            return _fail("--chips and --radius are mutually exclusive",
                         INPUT_ERROR)
        if args.radius is not None:
            chips = _radius_chips(args.d, args.radius)
        elif args.chips is None:
            return _fail("need --chips or --radius", INPUT_ERROR)
        elif args.chips < 1:
            return _fail("--chips must be at least 1", INPUT_ERROR)
        else:
            chips = args.chips
            _check_chips(f"--chips {chips}", chips)
    except (OSError, ValueError, LazyTreeError) as exc:
        return _fail(str(exc), INPUT_ERROR)

    try:
        res = aggregate(cfg, chips)
    except (LazyTreeError, NotAcyclicError) as exc:
        return _fail(str(exc), INPUT_ERROR)

    payload = {
        "d": args.d,
        "chips": chips,
        "cluster_size": len(res.occupied),
        "max_depth": res.max_depth,
        "ball_checks": [{"rho": r, "exact": ok} for r, ok in res.ball_checks],
        "sandwich_ok": res.sandwich_ok,
    }
    if args.radius is not None:
        payload["final_exact_ball"] = res.is_exact_ball(args.radius)
    _emit(payload, args.out)
    if args.dot:
        with open(args.dot, "w") as fh:
            for block in dot_blocks(res.rotors, cfg.d, cluster=res.occupied):
                fh.write(block + "\n")
    all_ok = (res.sandwich_ok and all(ok for _, ok in res.ball_checks)
              and payload.get("final_exact_ball", True))
    return OK if all_ok else VERDICT_FAIL


def cmd_group(args) -> int:
    path = args.graph if args.graph_pos is None else args.graph_pos
    if (args.graph_pos, args.graph, args.wired).count(None) != 2:
        return _fail("need exactly one of a graph file or --wired D N",
                     INPUT_ERROR)
    try:
        if args.wired:
            d, n = args.wired
            if d >= 3 and n >= 2:   # (d-1)^k rotors of degree d on level k
                check_enumeration_limit(
                    (d for k in range(n - 1) for _ in range((d - 1) ** k)),
                    CHECK_LIMIT)
                check_work_limit([d] * (((d - 1) ** (n - 1) - 1) // (d - 2)))
            g, _ = build_wired_tree(d, n)
        else:
            with open(path) as fh:
                g = graph_from_json(fh.read())
            degrees = list(map(g.outdeg, g.rotor_vertices))
            check_enumeration_limit(degrees, CHECK_LIMIT)
            check_work_limit(degrees)
    except TooLargeError as exc:
        return _fail(f"graph too large to check exhaustively: {exc}",
                     INPUT_ERROR)
    except (OSError, json.JSONDecodeError, GraphError) as exc:
        return _fail(str(exc), INPUT_ERROR)

    report = verify_isomorphism(g)
    payload = report.to_json_dict()
    if args.wired:
        root_order = order_of_generator(g, "r", verify_witnesses=1)
        payload["root_order"] = root_order
    _emit(payload, args.out)
    return OK if report.ok else VERDICT_FAIL


def _load_escape_config(args) -> LazyTreeConfig:
    if args.preset:
        if args.preset == "alternating":
            return alternating_tree_config()
        if args.preset.startswith("uniform-"):
            match = re.fullmatch(r"uniform-([0-9]+)-([0-9]+)", args.preset)
            if not match:
                raise ValueError(f"malformed preset {args.preset!r}: expected "
                                 "uniform-<D>-<C> with decimal integers")
            return uniform_config(int(match[1]), int(match[2]))
        raise ValueError(f"unknown preset {args.preset!r}")
    with open(args.config) as fh:
        return LazyTreeConfig.from_json(fh.read())


def cmd_escape(args) -> int:
    if args.action == "check":
        try:
            word = validate_word(args.word)
        except WordError as exc:
            return _fail(str(exc), INPUT_ERROR)
        if args.tree:
            windows = [(r, violating_window(r)) for r in residues(word)]
            valid = all(win is None for _, win in windows)
            payload = {
                "word": word, "mode": "tree", "valid": valid,
                "residues": [
                    {"word": r, "valid": win is None,
                     "violating_window": _window_dict(win)}
                    for r, win in windows
                ],
            }
        else:
            win = violating_window(word)
            valid = win is None
            payload = {
                "word": word, "mode": "branch", "valid": valid,
                "violating_window": _window_dict(win),
            }
        _emit(payload, args.out)
        return OK if valid else NOT_REALIZABLE

    if args.action == "synthesize":
        try:
            word = validate_word(args.word)
            _check_chips(f"a word of {len(word)} letters", len(word))
            if len(word) > MAX_SYNTHESIS_LETTERS:
                raise ValueError(f"a word of {len(word)} letters is above the "
                                 f"synthesis limit {MAX_SYNTHESIS_LETTERS}")
        except ValueError as exc:
            return _fail(str(exc), INPUT_ERROR)
        try:
            if args.tree:
                cfg = synthesize_tree(word)
            else:
                cfg = descriptor_to_branch_config(synthesize_branch(word))
        except NotRealizableError as exc:
            return _fail(str(exc), NOT_REALIZABLE)
        check = run_chips_infinite(cfg, len(word)).word
        payload = {
            "word": word,
            "mode": "tree" if args.tree else "branch",
            "config": cfg.to_json_dict(),
            "simulated": check,
            "round_trip_ok": check == word,
        }
        _emit(payload, args.out)
        return OK if check == word else VERDICT_FAIL

    if args.action == "simulate":
        try:
            cfg = _load_escape_config(args)
            _check_chips(f"--m {args.m}", args.m)
        except (OSError, ValueError, LazyTreeError) as exc:
            return _fail(str(exc), INPUT_ERROR)
        if args.m < 0:
            return _fail("--m must be nonnegative", INPUT_ERROR)
        try:
            res = run_chips_infinite(cfg, args.m)
        except LazyTreeError as exc:
            return _fail(str(exc), INPUT_ERROR)
        payload = {
            "m": args.m,
            "word": res.word,
            "returns": res.returns,
            "escapes": res.escapes,
        }
        _emit(payload, args.out)
        return OK

    return _fail(f"unknown escape action {args.action!r}", INPUT_ERROR)


def _window_dict(win: tuple[int, int, int] | None) -> dict | None:
    if win is None:
        return None
    k, start, end = win
    return {"k": k, "start": start, "end": end}


def cmd_verify_all(args) -> int:
    results = acceptance.run_all()
    failed = [r for r in results if not r.ok]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return OK if not failed else VERDICT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: argparse objects form
    reference cycles, so a parser per call would leave garbage for the
    cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="rotorlab",
        description="rotor-router walks, groups, and escape sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_agg = sub.add_parser("aggregate", help="grow a rotor-router cluster")
    p_agg.add_argument("--d", type=int, required=True, help="tree degree")
    p_agg.add_argument("--chips", type=int,
                       help=f"number of chips (at most {MAX_CHIPS})")
    p_agg.add_argument("--radius", type=int,
                       help="grow exactly b_radius chips (b_radius at most "
                            f"{MAX_CHIPS})")
    p_agg.add_argument("--config", help="lazy tree config JSON path")
    p_agg.add_argument("--out", help="write the JSON report here")
    p_agg.add_argument("--dot", help="write a DOT snapshot here")
    p_agg.set_defaults(func=cmd_aggregate)

    p_grp = sub.add_parser("group", help="verify the group isomorphism")
    p_grp.add_argument("graph_pos", nargs="?", metavar="GRAPH",
                       help="graph JSON path")
    p_grp.add_argument("--graph", help="graph JSON path")
    p_grp.add_argument("--wired", nargs=2, type=int, metavar=("D", "N"),
                       help="use the wired regular tree")
    p_grp.add_argument("--out", help="write the JSON report here")
    p_grp.set_defaults(func=cmd_group)

    p_esc = sub.add_parser("escape", help="escape-sequence calculus")
    p_esc.add_argument("action", choices=["check", "synthesize", "simulate"])
    p_esc.add_argument("word", nargs="?",
                       help="binary word (synthesize: at most "
                            f"{MAX_SYNTHESIS_LETTERS} letters)")
    kind = p_esc.add_mutually_exclusive_group()
    kind.add_argument("--branch", action="store_true",
                      help="single branch (default)")
    kind.add_argument("--tree", action="store_true", help="full ternary tree")
    p_esc.add_argument("--config", help="config JSON path (simulate)")
    p_esc.add_argument("--preset",
                       help="simulate preset: alternating or uniform-D-C")
    p_esc.add_argument("--m", type=int, default=0,
                       help=f"number of chips (simulate; at most {MAX_CHIPS})")
    p_esc.add_argument("--out", help="write the JSON report here")
    p_esc.set_defaults(func=cmd_escape)

    p_all = sub.add_parser("verify-all", help="run the full acceptance suite")
    p_all.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "escape":
        if args.action in ("check", "synthesize") and args.word is None:
            parser.error("check/synthesize need a word")
        if args.action == "simulate" and not (args.config or args.preset):
            parser.error("simulate needs --config or --preset")
    for flag in ("out", "dot"):
        path = getattr(args, flag, None)
        problem = path and _unwritable(path)
        if problem:
            return _fail(f"cannot write --{flag} {path}: {problem}",
                         INPUT_ERROR)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
