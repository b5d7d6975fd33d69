"""Command line front end.

Exit codes: 0 for positive certificates (or plain computations), 1 for
refutation certificates, 2 for usage and format errors, 3 for internal
failures (a failed self-check, exhausted recursion or memory), which print
an ``internal error:`` line on stderr.  Everything printed has been
re-verified against the matrix by the constructing factory.
"""

from __future__ import annotations

import argparse
import math
import sys

from .certify import Bijection, Sdr, certify_columns, diagonalize
from .files import parse_field_token, parse_matrix, parse_stream_row
from .linalg import SparseMatrix, Vector, kernel_basis, rank, solve
from .strings import (MuValue, OrdinalString, SaturatedString, _require_vertices,
                      _saturated_in, lemma_witness, mu_ordinal, parse_string_literal,
                      parse_vertex)
from .stream import StreamState

__all__ = ["main", "run"]


def _load(path: str) -> SparseMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _format_mu(value: MuValue) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return str(value)


def _cmd_rank(args: argparse.Namespace) -> int:
    print(f"rank: {rank(_load(args.matrix))}")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    basis = kernel_basis(_load(args.matrix))
    if not basis:
        print("kernel: trivial")
        return 0
    print("kernel basis:")
    for vec in basis:
        print(vec)
    return 1


def _cmd_solve(args: argparse.Namespace) -> int:
    matrix = _load(args.matrix)
    scalars = args.rhs.split()
    if len(scalars) != matrix.num_rows:
        raise ValueError(f"right-hand side needs {matrix.num_rows} scalars, got {len(scalars)}")
    rhs = Vector.from_dense(matrix.spec, [matrix.spec.parse_raw(s) for s in scalars])
    outcome = solve(matrix, rhs)
    if isinstance(outcome, Vector):
        print(f"solution: {outcome}")
        return 0
    print(f"unsolvable, certificate: {outcome.y}")
    return 1


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = certify_columns(_load(args.matrix), via_violator=args.via_violator)
    if isinstance(cert, Sdr):
        print("SDR:")
        for j, i in cert.assignment.items():
            print(f"c{j} -> r{i}")
        return 0
    print(f"KERNEL: {cert.vector}")
    return 1


def _cmd_diagonalize(args: argparse.Namespace) -> int:
    outcome = diagonalize(_load(args.matrix))
    if isinstance(outcome, Bijection):
        print("PERMUTATION:")
        for j, i in outcome.col_to_row.items():
            print(f"c{j} -> r{i}")
        return 0
    side = "row side" if outcome.side == "row" else "column side"
    print(f"KERNEL ({side}): {outcome.vector}")
    return 1


def _cmd_mu(args: argparse.Namespace) -> int:
    matrix = _load(args.matrix)
    string = parse_string_literal(args.string)
    if isinstance(string, OrdinalString):
        print(f"mu = {_format_mu(mu_ordinal(string))}")
        return 0
    # Read off the matrix's nonzeros, as lemma_witness does: no support graph.
    value = _require_vertices(string._raw, range(matrix.num_rows), range(matrix.num_cols))
    flag = "true" if _saturated_in(matrix, string._raw) else "false"
    print(f"mu = {value}, saturated = {flag}")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    matrix = _load(args.matrix)
    string = parse_string_literal(args.string)
    if not isinstance(string, SaturatedString):
        raise ValueError("witness extraction needs a finite string")
    base = []
    for tok in args.include.split():
        v = parse_vertex(tok)
        if not v.is_row:
            raise ValueError(f"--include takes row vertices, got {tok!r}")
        base.append(v.index)
    pair = lemma_witness(matrix, string, base)
    rows = sorted(pair.rows)
    cols = sorted(pair.cols)
    # lemma_witness has checked the string's vertices against the matrix.
    mu = len(string.row_range) - len(string.col_range)
    print("I' = {" + ", ".join(f"r{i}" for i in rows) + "}")
    print("J' = {" + ", ".join(f"c{j}" for j in cols) + "}")
    # WitnessPair.checked has proved mu = |I'| - rank(A[I', J']).
    print(f"mu = {mu} = |I'| - rank = {len(rows)} - {len(rows) - mu}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    spec = parse_field_token(args.field)
    state = StreamState(spec)
    for line in sys.stdin:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        pairs, rhs = parse_stream_row(line, spec)
        state.push(pairs, rhs)
    if state.is_solvable:
        print("all prefixes solvable")
        return 0
    status = state.status
    core = " ".join(str(i) for i in sorted(status.core))
    print(f"unsolvable at prefix {status.prefix_len}, core: {core}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thincert",
        description="Certifying exact linear algebra over Q and GF(p).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str) -> argparse.ArgumentParser:
        """A command whose first argument is a matrix file."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("matrix")
        return p

    add("rank", _cmd_rank, "rank of a matrix file")
    add("kernel", _cmd_kernel, "canonical kernel basis of the columns")
    p = add("solve", _cmd_solve, "solve A x = b or print a refutation")
    p.add_argument("rhs", help="dense right-hand side, e.g. '2 3'")
    p = add("certify", _cmd_certify, "column injection or kernel vector")
    p.add_argument("--via-violator", action="store_true",
                   help="localize the kernel vector to a covering violator")
    add("diagonalize", _cmd_diagonalize, "two-sided diagonal rearrangement")
    p = add("mu", _cmd_mu, "mu value of a vertex string")
    p.add_argument("string", help="e.g. 'r0 c0' or '[r0 | r1 c1]* r9'")
    p = add("witness", _cmd_witness, "rank witness for a saturated string")
    p.add_argument("string")
    p.add_argument("--include", default="",
                   help="rows that must be in I'; I' holds every listed row")
    p = sub.add_parser("stream", help="read '<rhs> ; <col>:<scalar> ...' rows from stdin")
    p.set_defaults(fn=_cmd_stream)
    p.add_argument("--field", default="rational", help="'rational' or 'gf:<p>'")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RecursionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
