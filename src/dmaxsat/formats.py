"""Text formats: the s-expression circuit format and DIMACS CNF.

Circuit files carry a ``(scope N)`` header followed by one expression over
the atoms ``true``, ``false``, ``xK`` and the operators ``not``, ``and``,
``or``; only space, tab, CR and LF separate tokens, and numbers are ASCII
digits. Canonical output is strictly binary; the parser also accepts n-ary
``and``/``or`` and folds them to the right, so printing then re-parsing is
the structural identity. Neither walk recurses, so any depth round-trips.

Each parse checks a distinct atom (circuit) or literal (DIMACS) token once,
in a table that lives for that call only, and every later occurrence of the
token shares its node. Equality stays structural: a parse equals any tree of
the same shape, and two parses of one text share no node.
"""

from __future__ import annotations

import re

from .formula import (
    FALSE,
    TRUE,
    And,
    Formula,
    Node,
    Not,
    Or,
    Var,
    _Const,
    and_all,
    or_all,
)


class ParseError(ValueError):
    """Syntax or scope problem in an input file, with its 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")
_VAR_ATOM = re.compile(r"x([0-9]+)")
_HEADER = re.compile(r"p\s+cnf\s+([0-9]+)\s+[0-9]+")
_WORD = re.compile(r"\S+")


def _error(text: str, index: int, message: str) -> ParseError:
    """The error at token ``index``, or just past the last token if there is none."""
    offset = 0
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            offset = match.start()
            break
        offset = match.end()
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _expect(text: str, tokens: list[str | None], i: int, expected: str | None) -> str:
    """Token ``i``, which must be ``expected`` unless that is None."""
    token = tokens[i]
    if token is None:
        expected = expected or "a token"
        raise _error(text, i, f"unexpected end of input, expected {expected}")
    if expected is not None and token != expected:
        raise _error(text, i, f"expected {expected!r}, got {token!r}")
    return token


def parse_circuit(text: str) -> Formula:
    """Parse circuit text into a Formula; errors carry line and column."""
    tokens: list[str | None] = _TOKEN.findall(text)
    tokens.append(None)  # end of input
    _expect(text, tokens, 0, "(")
    _expect(text, tokens, 1, "scope")
    raw = _expect(text, tokens, 2, None)
    if not (raw.isascii() and raw.isdigit()):
        raise _error(text, 3, f"scope must be a nonnegative integer, got {raw!r}")
    _expect(text, tokens, 3, ")")
    scope = int(raw)
    # each atom token is checked once; its later occurrences share the node
    atoms: dict[str, Node] = {"true": TRUE, "false": FALSE}
    stack: list[tuple[str, list[Node]]] = []  # open (op, operands) frames
    i = 4
    while True:
        token = tokens[i]
        if token == "(":
            op = _expect(text, tokens, i + 1, None)
            if op not in ("not", "and", "or"):
                raise _error(text, i + 1, f"expected 'not', 'and' or 'or', got {op!r}")
            stack.append((op, []))
            i += 2
            continue
        if stack and stack[-1][0] != "not" and token in (")", None):
            op, operands = stack.pop()
            if token is None:
                raise _error(text, i, "unexpected end of input, expected ')'")
            if len(operands) == 2:
                node = (And if op == "and" else Or)(*operands)
            elif len(operands) < 2:
                raise _error(text, i, f"'{op}' needs at least two operands")
            else:
                node = and_all(operands) if op == "and" else or_all(operands)
        elif token is None:
            raise _error(text, i, "unexpected end of input, expected a formula")
        else:
            node = atoms.get(token)
            if node is None:
                match = _VAR_ATOM.fullmatch(token)
                if not match:
                    raise _error(text, i, f"expected a formula, got {token!r}")
                index = int(match.group(1))
                if index < 1:
                    raise _error(text, i, "variable index must be >= 1")
                if index > scope:
                    message = f"variable x{index} exceeds declared scope {scope}"
                    raise _error(text, i, message)
                node = atoms[token] = Var(index)
        i += 1
        while stack and stack[-1][0] == "not":
            _expect(text, tokens, i, ")")
            stack.pop()
            node = Not(node)
            i += 1
        if not stack:
            break
        stack[-1][1].append(node)
    if tokens[i] is not None:
        raise _error(text, i, f"unexpected trailing input {tokens[i]!r}")
    return Formula(node, scope)


def print_circuit(f: Formula) -> str:
    """Canonical one-line circuit text; parse_circuit inverts it exactly."""
    pieces = [f"(scope {f.scope}) "]
    stack: list[Node | str] = [f.node]  # nodes still to print, and closing text
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            pieces.append(node)
        elif kind is Var:
            pieces.append(f"x{node.index}")
        elif kind is And or kind is Or:
            pieces.append("(and " if kind is And else "(or ")
            stack += (")", node.right, " ", node.left)
        elif kind is Not:
            pieces.append("(not ")
            stack += (")", node.child)
        elif kind is _Const:
            pieces.append("true" if node.value else "false")
        else:
            raise TypeError(f"unknown node type {kind.__name__}")
    return "".join(pieces)


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF into the conjunction of its clause disjunctions.

    The declared variable count becomes the scope; a file with no clauses
    parses to the true constant over that scope. Clauses may span lines and
    must end with 0.
    """
    n_vars: int | None = None
    # each literal token is checked once; "0" and its spellings map to None
    literals: dict[str, Node | None] = {}
    clauses: list[list[Node]] = []
    pending: list[Node] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError("duplicate DIMACS header", line_no, 1)
            header = _HEADER.fullmatch(line)
            if header is None:
                raise ParseError(f"malformed header {line!r}", line_no, 1)
            n_vars = int(header.group(1))
            continue
        if n_vars is None:
            raise ParseError("clause line before the 'p cnf' header", line_no, 1)
        for token in line.split():
            if token in literals:
                node = literals[token]
            else:
                # accepts exactly [+-]?[0-9]+, which int alone would widen
                ascii_int = token.isascii() and token[token[0] in "+-":].isdigit()
                literal = int(token) if ascii_int else None
                if literal is None or abs(literal) > n_vars:
                    # every earlier token on the line was accepted, so none equals it
                    column = next(m.start() for m in _WORD.finditer(raw) if m[0] == token)
                    raise ParseError(
                        f"non-integer literal {token!r}"
                        if literal is None
                        else f"literal {literal} exceeds declared variable count {n_vars}",
                        line_no,
                        column + 1,
                    )
                if literal > 0:
                    node = Var(literal)
                elif literal < 0:
                    node = Not(Var(-literal))
                else:
                    node = None
                literals[token] = node
            if node is None:
                clauses.append(pending)
                pending = []
            else:
                pending.append(node)
    if n_vars is None:
        raise ParseError("missing 'p cnf' header", max(last_line, 1), 1)
    if pending:
        raise ParseError(
            "unterminated clause at end of input", max(last_line, 1), 1
        )
    node = and_all([or_all(clause) for clause in clauses])
    return Formula(node, n_vars)


def read_formula(path: str, fmt: str | None = None) -> Formula:
    """Load a formula file, picking the format from ``fmt`` or the suffix."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if fmt is None:
        if path.endswith(".cnf"):
            fmt = "dimacs"
        elif path.endswith(".ckt"):
            fmt = "circuit"
        else:
            raise ValueError(
                f"cannot infer format of {path!r}; pass --format circuit|dimacs"
            )
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt == "circuit":
        return parse_circuit(text)
    raise ValueError(f"unknown format {fmt!r}")
