"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails (a depth > norm
violation, a failed relator or injectivity check, a broken transfer bound),
2 on usage or input errors, each reported as one `error: ...` line, and on
an unexpected internal error, reported as `error: internal error: ...`.
All output is deterministic given the inputs.
"""

from __future__ import annotations

import argparse
import sys

from .graph import load_graph
from .lab import depth_function, enumerate_elements, verify_depth_bound
from .magnus import lcs_depth, mu
from .surface import (check_injectivity_criterion, check_relator,
                      load_dissection, phi, standard_dissection,
                      surface_depth_check)
from .words import parse_word


def _positive(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_graph(parser):
    parser.add_argument("--graph", required=True, metavar="FILE",
                        help="graph file (vertices:/edges: lines)")


def _add_surface_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dissection", metavar="FILE", help="dissection file")
    group.add_argument("--genus", type=_positive, metavar="G",
                       help="use the bundled standard genus-G curve system")


class _Parser(argparse.ArgumentParser):
    # A usage error is one `error: ...` line and exit code 2; the subcommand
    # parsers are built from this class too.
    def error(self, message):
        print("error: " + " ".join(message.splitlines()), file=sys.stderr)
        self.exit(2)


def build_parser():
    parser = _Parser(
        prog="raaglcs",
        description="Lower central series depth in graph groups, with a "
                    "crossing-sequence transfer from surface group words.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("nf", help="canonical normal form of a word")
    _add_graph(p)
    p.add_argument("word")

    p = sub.add_parser("norm", help="geodesic word norm")
    _add_graph(p)
    p.add_argument("word")

    p = sub.add_parser("eq", help="do two words represent the same element?")
    _add_graph(p)
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("magnus", help="truncated series image of a word")
    _add_graph(p)
    p.add_argument("--cap", type=_positive, required=True, metavar="K")
    p.add_argument("word")

    p = sub.add_parser("depth", help="lower central series depth of a word")
    _add_graph(p)
    p.add_argument("--cap", type=_positive, metavar="K",
                   help="truncation cap (default: word norm + 1, always exact)")
    p.add_argument("word")

    p = sub.add_parser("enum", help="list all elements up to a norm bound")
    _add_graph(p)
    p.add_argument("--max-norm", type=_positive, metavar="N",
                   help="norm bound (default: 6 for <= 3 vertices, else 5)")

    p = sub.add_parser("dfun", help="depth function value by exhaustive search")
    _add_graph(p)
    p.add_argument("--k", type=_positive, required=True, metavar="K")
    p.add_argument("--max-norm", type=_positive, metavar="N")

    p = sub.add_parser("verify", help="check depth <= norm for all elements up to a bound")
    _add_graph(p)
    p.add_argument("--max-norm", type=_positive, metavar="N")

    p = sub.add_parser("surface-phi", help="image of a surface word over the curves")
    _add_surface_source(p)
    p.add_argument("word")

    p = sub.add_parser("surface-check", help="relator and injectivity-criterion checks")
    _add_surface_source(p)

    p = sub.add_parser("surface-depth", help="depth transfer check for a surface word")
    _add_surface_source(p)
    p.add_argument("word")

    return parser


def _default_max_norm(args, graph):
    if args.max_norm is not None:
        return args.max_norm
    return 6 if len(graph.vertices) <= 3 else 5


def _dispatch(args):
    if args.command.startswith("surface-"):
        dissection = (load_dissection(args.dissection) if args.dissection
                      else standard_dissection(args.genus))
    else:
        graph = load_graph(args.graph)

    if args.command == "nf":
        print(parse_word(args.word, graph).canonical())
        return 0

    if args.command == "norm":
        print(parse_word(args.word, graph).norm())
        return 0

    if args.command == "eq":
        w1 = parse_word(args.word1, graph)
        w2 = parse_word(args.word2, graph)
        print("equal" if w1.equals(w2) else "not-equal")
        return 0

    if args.command == "magnus":
        print(mu(parse_word(args.word, graph), args.cap))
        return 0

    if args.command == "depth":
        result = lcs_depth(parse_word(args.word, graph), args.cap)
        if result.kind == "infinite":
            print("identity")
        elif result.kind == "exact":
            print(f"depth={result.depth}")
        else:
            print(f"depth>={result.bound}")
        return 0

    if args.command == "enum":
        for word in enumerate_elements(graph, _default_max_norm(args, graph)):
            print(word)
        return 0

    if args.command == "dfun":
        row = depth_function(graph, args.k, _default_max_norm(args, graph))
        if row.kind == "exact":
            print(f"d({row.k}) = {row.norm} (exact) witness={row.minimal_witness}")
        else:
            print(f"d({row.k}) = {row.norm} (lower-bound)")
        return 0

    if args.command == "verify":
        report = verify_depth_bound(graph, _default_max_norm(args, graph))
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    if args.command == "surface-phi":
        print(phi(args.word, dissection).canonical())
        return 0

    if args.command == "surface-check":
        relator_ok = check_relator(dissection)
        print(f"relator: {'ok' if relator_ok else 'FAIL'}")
        code = 0 if relator_ok else 1
        if dissection.components is None:
            print("injectivity: skipped (no component data)")
        else:
            report = check_injectivity_criterion(dissection)
            for check in report.components:
                if check.passed:
                    print(f"component {check.index}: ok")
                else:
                    e1, e2, reason = check.violation
                    print(f"component {check.index}: FAIL {e1},{e2}: {reason}")
            if not report.passed:
                code = 1
        return code

    if args.command == "surface-depth":
        report = surface_depth_check(args.word, dissection)
        if report.trivial_image:
            print(f"|w|_S={report.surface_length} phi(w)=1")
            return 0
        status = "ok" if report.bound_holds else "FAIL"
        print(f"|w|_S={report.surface_length} |phi(w)|_T={report.image_norm} "
              f"depth={report.depth} 4*|w|_S>=depth: {status}")
        return 0 if report.bound_holds else 1

    raise AssertionError(f"unhandled command {args.command!r}")


def run(argv=None):
    """Run one CLI invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 2
    try:
        return _dispatch(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a bug must not read as a failed verification (exit 1)
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
