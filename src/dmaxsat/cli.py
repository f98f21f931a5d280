"""Command-line interface: counting, gadget emission, reduction audit,
solving, and randomized self-verification.

Counts print in full decimal, gadget subcommands emit canonical circuit
text plus one JSON audit line, and identical invocations produce identical
stdout (selftest included, given a seed). Exit codes: 0 success (and a
"yes" dmax verdict), 1 a "no" dmax verdict or failed selftest, 2 bad input,
3 enumeration limit exceeded, 4 internal failure (any other exception, for
example the recursion limit, which counting still meets on a single very
deep conjunct), reported as one ``error: internal failure: ...`` line on
stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field

from .counting import (
    DEFAULT_LIMIT,
    ScopeLimitError,
    count_bruteforce,
    count_fast,
    threshold_check,
)
from .formats import print_circuit, read_formula
from .gadgets import less_than_const, pack_many, psi_gadget
from .reduction import EqualityQuery, combine_equalities, eq_to_geq, split_target
from .selftest import run_selftest
from .solver import SplitInstance, dmax_decide, dmax_pruned, max_count, parse_blocks


@dataclass
class RunReport:
    """One invocation's outcome; ``lines`` is exactly what goes to stdout."""

    lines: list[str] = field(default_factory=list)
    exit_code: int = 0


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _emit_formula(args, formula, audit: dict) -> RunReport:
    report = RunReport()
    text = print_circuit(formula)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        report.lines.append(text)
    report.lines.append(json.dumps(audit, sort_keys=True))
    return report


def cmd_count(args) -> RunReport:
    report = RunReport()
    f = read_formula(args.path, args.format)
    if args.bound is not None:
        if args.bound < 0:
            raise ValueError(f"bound must be nonnegative, got {args.bound}")
        if args.engine == "brute":
            verdict = count_bruteforce(f, args.limit) >= args.bound
        else:
            verdict = threshold_check(f, args.bound)
        report.lines.append("yes" if verdict else "no")
    else:
        if args.engine == "brute":
            count = count_bruteforce(f, args.limit)
        else:
            count = count_fast(f)
        report.lines.append(str(count))
    return report


def cmd_size(args) -> RunReport:
    report = RunReport()
    f = read_formula(args.path, args.format)
    report.lines.append(str(f.size()))
    return report


def cmd_pack(args) -> RunReport:
    operands = [read_formula(p, args.format) for p in args.paths]
    packed = pack_many(operands)
    audit = {
        "cmd": "pack",
        "digit_width": operands[0].scope,
        "digit_count": len(operands),
        "scope": packed.scope,
        "size": packed.size(),
        "digest": _digest("pack", *[_file_bytes(p) for p in args.paths]),
    }
    return _emit_formula(args, packed, audit)


def cmd_mkless(args) -> RunReport:
    formula = less_than_const(args.n, args.c)
    audit = {
        "cmd": "mkless",
        "n": args.n,
        "c": str(args.c),
        "scope": formula.scope,
        "size": formula.size(),
        "digest": _digest("mkless", args.n, args.c),
    }
    return _emit_formula(args, formula, audit)


def cmd_psi(args) -> RunReport:
    f = read_formula(args.path, args.format)
    gadget = psi_gadget(f, args.delta)
    audit = {
        "cmd": "psi",
        "n": f.scope,
        "delta": str(args.delta),
        "scope": gadget.scope,
        "size": gadget.size(),
        "digest": _digest("psi", _file_bytes(args.path), args.delta),
    }
    return _emit_formula(args, gadget, audit)


def cmd_eq2geq(args) -> RunReport:
    h = read_formula(args.path, args.format)
    query = eq_to_geq(h, args.target)
    branch, delta = split_target(h.scope, args.target)
    audit = {
        "cmd": "eq2geq",
        "n": h.scope,
        "y": str(args.target),
        "branch": branch,
        "delta": str(delta),
        "bound": str(query.bound),
        "scope": query.formula.scope,
        "size": query.formula.size(),
        "digest": _digest("eq2geq", _file_bytes(args.path), args.target),
    }
    return _emit_formula(args, query.formula, audit)


def cmd_combine(args) -> RunReport:
    queries = []
    payload: list[object] = []
    for entry in args.claims:
        path, sep, raw = entry.rpartition(":")
        if not sep or not path:
            raise ValueError(f"expected FILE:CLAIM, got {entry!r}")
        try:
            claimed = int(raw)
        except ValueError:
            raise ValueError(f"bad claimed count {raw!r} in {entry!r}") from None
        payload.extend((_file_bytes(path), claimed))
        queries.append(EqualityQuery(read_formula(path, args.format), claimed))
    collapse = combine_equalities(queries)
    audit = {
        "cmd": "combine",
        "digit_width": queries[0].formula.scope,
        "digit_count": len(queries),
        "digits": [str(d) for d in collapse.digits],
        "y": str(collapse.target),
        "branch": collapse.branch,
        "delta": str(collapse.delta),
        "bound": str(collapse.query.bound),
        "packed_scope": collapse.packed.scope,
        "scope": collapse.query.formula.scope,
        "size": collapse.query.formula.size(),
        "digest": _digest("combine", *payload),
    }
    return _emit_formula(args, collapse.query.formula, audit)


def _witness_text(x_vars, witness) -> str:
    parts = [f"x{v}={int(b)}" for v, b in zip(x_vars, witness.values)]
    parts.append(f"count={witness.achieved}")
    return " ".join(parts)


def _split_instance(args, bound: int | None) -> SplitInstance:
    f = read_formula(args.path, args.format)
    x_vars, y_vars = parse_blocks(args.blocks, f.scope)
    return SplitInstance(f, x_vars, y_vars, bound)


def cmd_dmax(args) -> RunReport:
    report = RunReport()
    instance = _split_instance(args, args.bound)
    engine = dmax_decide if args.engine == "plain" else dmax_pruned
    witness = engine(instance, limit=args.limit)
    if witness is None:
        report.lines.append("no")
        report.exit_code = 1
    else:
        report.lines.append(f"yes {_witness_text(instance.x_vars, witness)}")
    return report


def cmd_maxcount(args) -> RunReport:
    report = RunReport()
    instance = _split_instance(args, None)
    witness = max_count(instance, limit=args.limit)
    report.lines.append(_witness_text(instance.x_vars, witness))
    return report


def cmd_selftest(args) -> RunReport:
    report = RunReport()
    ok = run_selftest(args.seed, args.budget, emit=report.lines.append)
    report.exit_code = 0 if ok else 1
    return report


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("circuit", "dimacs"),
        default=None,
        help="input format; default is by file suffix (.ckt/.cnf)",
    )


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out", default=None, help="write the circuit to FILE instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmaxsat",
        description="Model counting, count-shaping gadgets, and chooser-block maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="model count of a formula file")
    p.add_argument("path")
    p.add_argument("--engine", choices=("brute", "fast"), default="fast")
    p.add_argument("--bound", type=int, default=None, help="print yes/no for count >= BOUND")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT, help="brute-force scope limit")
    _add_format(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("size", help="operator count of a formula file")
    p.add_argument("path")
    _add_format(p)
    p.set_defaults(handler=cmd_size)

    p = sub.add_parser("pack", help="pack same-scope formulas into one digit-packed circuit")
    p.add_argument("paths", nargs="+", metavar="FILE")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=cmd_pack)

    p = sub.add_parser("mkless", help="emit the n-variable circuit with exactly c models")
    p.add_argument("n", type=int)
    p.add_argument("c", type=int)
    _add_out(p)
    p.set_defaults(handler=cmd_mkless)

    p = sub.add_parser("psi", help="route a circuit's count through the parabola gadget")
    p.add_argument("path")
    p.add_argument("--delta", type=int, required=True)
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=cmd_psi)

    p = sub.add_parser("eq2geq", help="turn a count-equality claim into a threshold query")
    p.add_argument("path")
    p.add_argument("target", type=int, help="the claimed model count")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=cmd_eq2geq)

    p = sub.add_parser("combine", help="collapse FILE:CLAIM equality claims into one query")
    p.add_argument("claims", nargs="+", metavar="FILE:CLAIM")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=cmd_combine)

    p = sub.add_parser("dmax", help="decide whether some chooser reaches the bound")
    p.add_argument("path")
    p.add_argument("blocks", help="block declaration, e.g. 'x: 1 3 / y: 2 4'")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--engine", choices=("plain", "pruned"), default="pruned")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    _add_format(p)
    p.set_defaults(handler=cmd_dmax)

    p = sub.add_parser("maxcount", help="find the chooser maximizing the counted block")
    p.add_argument("path")
    p.add_argument("blocks", help="block declaration, e.g. 'x: 1 3 / y: 2 4'")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    _add_format(p)
    p.set_defaults(handler=cmd_maxcount)

    p = sub.add_parser("selftest", help="run the randomized law suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100, help="inputs drawn per suite")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except ScopeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # never a traceback, and never exit 1, which reads as a "no" verdict
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal failure: {detail}", file=sys.stderr)
        return 4
    for line in report.lines:
        print(line)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
