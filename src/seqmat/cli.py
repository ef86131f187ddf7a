"""Command-line surface: deterministic text in, deterministic text out.

Exit status 0 on success, 1 on domain errors, running out of memory or
an interrupt (one-line diagnostic on stderr), 2 on usage errors.
Matrix/vector arguments are file paths; "-" reads standard input (at
most one argument per invocation).
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import DEFAULT_MAX_ITER, census, orbit, phi
from .errors import ParseError, SeqmatError
from .fields import FieldSpec
from .formats import (
    format_coding,
    format_matrix,
    format_program,
    format_vector,
    parse_matrix,
    parse_vector,
)
from .graphs import Digraph, chain_rewrite, constructs, linorder_rewrite, to_dot
from .matrix import Matrix, Vector, parallel_apply, seq_apply, seq_equivalent, seq_matrix, seq_program
from .regularize import regularize_general, regularize_trace
from .sequentialize import preimage_search, sequentialize, sequentialize_perm


def _read(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # file descriptor 0 was closed
                raise ParseError("standard input is closed")
            # Decoded here, strictly, because the text layer of stdin
            # follows the locale and may smuggle bad bytes in as surrogates.
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load_matrix(path: str) -> Matrix:
    return parse_matrix(_read(path))


def _parse_units(text: str, field: FieldSpec, n: int) -> Vector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"--units needs {n} comma-separated scalars, got {len(parts)}")
    return Vector(field, tuple(field.parse_scalar(p) for p in parts))


# -- handlers: each returns the text it prints ------------------------------


def _cmd_apply(args) -> str:
    M = _load_matrix(args.matrix)
    X = parse_vector(_read(args.vector))
    out = parallel_apply(M, X) if args.mode == "parallel" else seq_apply(M, X)
    return format_vector(out)


def _cmd_smatrix(args) -> str:
    return format_matrix(seq_matrix(_load_matrix(args.matrix)))


def _cmd_program(args) -> str:
    return format_program(seq_program(_load_matrix(args.matrix)))


def _cmd_sequentialize(args) -> str:
    M = _load_matrix(args.matrix)
    if args.method == "perm":
        program, coding = sequentialize_perm(M)
    else:
        program, coding = sequentialize(M)
    return format_program(program) + "\n" + format_coding(coding)


def _cmd_preimage(args) -> str:
    found = preimage_search(_load_matrix(args.matrix))
    return "none\n" if found is None else format_matrix(found)


def _cmd_regularize(args) -> str:
    M = _load_matrix(args.matrix)
    if args.trace:
        return "\n".join(format_matrix(step) for step in regularize_trace(M))
    ones = Vector(M.field, (M.field.one,) * M.n)
    units = ones if args.units is None else _parse_units(args.units, M.field, M.n)
    return format_matrix(regularize_general(M, units))


def _cmd_phi(args) -> str:
    return format_matrix(phi(_load_matrix(args.matrix)))


def _cmd_orbit(args) -> str:
    report = orbit(_load_matrix(args.matrix), args.max_iter)
    return f"cycle_length {report.cycle_length}\n"


def _cmd_census(args) -> str:
    report = census(args.n, force=args.force)
    lines = [f"{length} {count}\n" for length, count in report.histogram.items()]
    return "".join(lines) + f"max {report.max_cycle_length}\n"


def _cmd_equiv(args) -> str:
    a = _load_matrix(args.matrix)
    b = _load_matrix(args.other)
    return "true\n" if seq_equivalent(a, b) else "false\n"


def _cmd_graph_constructs(args) -> str:
    G = Digraph(_load_matrix(args.matrix))
    return format_matrix(constructs(G).adjacency)


def _cmd_graph_chain(args) -> str:
    G = Digraph(_load_matrix(args.matrix))
    out = chain_rewrite(G, args.p, args.q, args.i, args.j)
    return format_matrix(out.adjacency)


def _cmd_graph_linorder(args) -> str:
    G = Digraph(_load_matrix(args.matrix))
    out = linorder_rewrite(G, args.p, args.q)
    return format_matrix(out.adjacency)


def _cmd_graph_dot(args) -> str:
    return to_dot(Digraph(_load_matrix(args.matrix)))


# -- parser -----------------------------------------------------------------


def _matrix_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("matrix", help="matrix file, or - for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmat",
        description="In-place interpretation of matrices over exact fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("apply", help="apply a matrix to a vector")
    sub.add_argument("--mode", choices=("parallel", "sequential"), required=True)
    _matrix_arg(sub)
    sub.add_argument("vector", help="vector file, or - for stdin")
    sub.set_defaults(handler=_cmd_apply)

    sub = subs.add_parser("smatrix", help="matrix of the in-place interpretation")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_smatrix)

    sub = subs.add_parser("program", help="print the n-step in-place program")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_program)

    sub = subs.add_parser(
        "sequentialize", help="compile the ordinary map into an in-place program"
    )
    sub.add_argument(
        "--method",
        choices=("fixups", "perm"),
        default="fixups",
        help="fixups: <= 2n-1 steps coded as matrix + fix-up list; "
        "perm: n steps coded as matrix + row permutation",
    )
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_sequentialize)

    sub = subs.add_parser("preimage", help="first matrix whose in-place map equals this ordinary map")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_preimage)

    sub = subs.add_parser("regularize", help="regular constructor with matching off-diagonal")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--units", help="comma-separated diagonal entries (default: all ones)")
    group.add_argument("--trace", action="store_true",
                       help="print the working matrix after every step of the GF(2) procedure")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_regularize)

    sub = subs.add_parser("phi", help="inverse of regularize on regular GF(2) matrices")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_phi)

    sub = subs.add_parser("orbit", help="cycle length of repeated regularize from a regular matrix")
    sub.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_orbit)

    sub = subs.add_parser("census", help="cycle-length histogram over all regular n x n matrices")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--force", action="store_true", help="allow n above the size guard")
    sub.set_defaults(handler=_cmd_census)

    sub = subs.add_parser("equiv", help="do two matrices have the same in-place map?")
    _matrix_arg(sub)
    sub.add_argument("other", help="second matrix file")
    sub.set_defaults(handler=_cmd_equiv)

    graph = subs.add_parser("graph", help="digraph operations on GF(2) adjacency matrices")
    gsubs = graph.add_subparsers(dest="graph_command", required=True)

    sub = gsubs.add_parser("constructs", help="the graph this graph builds")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_graph_constructs)

    sub = gsubs.add_parser("chain", help="redirect a chain arc, preserving the built graph")
    for flag in ("--p", "--q", "--i", "--j"):
        sub.add_argument(flag, type=int, required=True)
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_graph_chain)

    sub = gsubs.add_parser("linorder", help="collapse a linear order, preserving the built graph")
    for flag in ("--p", "--q"):
        sub.add_argument(flag, type=int, required=True)
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_graph_linorder)

    sub = gsubs.add_parser("dot", help="DOT rendering of the digraph")
    _matrix_arg(sub)
    sub.set_defaults(handler=_cmd_graph_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [getattr(args, name, None) for name in ("matrix", "vector", "other")].count("-") > 1:
        parser.error("standard input ('-') can be read for at most one argument")
    try:
        sys.stdout.write(args.handler(args))
        return 0
    except (SeqmatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
