"""Circuit and DIMACS parsing, printing, and error positions."""

import gc
import sys
import weakref

import pytest
from hypothesis import given

from dmaxsat import (
    FALSE,
    TRUE,
    And,
    Formula,
    Not,
    Or,
    ParseError,
    Var,
    and_all,
    count_bruteforce,
    count_fast,
    or_all,
    parse_circuit,
    parse_dimacs,
    print_circuit,
    read_formula,
)

from strategies import cnf_formulas, deep_formulas, formulas


def test_parse_circuit_examples():
    assert parse_circuit("(scope 2) (or x1 x2)") == Formula(Or(Var(1), Var(2)), 2)
    assert parse_circuit("(scope 3) (and x1 (not x2))") == Formula(
        And(Var(1), Not(Var(2))), 3
    )
    assert parse_circuit("(scope 0) true") == Formula(TRUE, 0)
    assert parse_circuit("(scope 2) false") == Formula(FALSE, 2)
    assert parse_circuit("(scope 5) x4") == Formula(Var(4), 5)


def test_parse_circuit_rejects_out_of_scope_variable():
    with pytest.raises(ParseError, match="exceeds declared scope"):
        parse_circuit("(scope 1) (or x1 x2)")


def test_nary_operators_fold_right():
    assert parse_circuit("(scope 3) (and x1 x2 x3)") == Formula(
        And(Var(1), And(Var(2), Var(3))), 3
    )
    assert parse_circuit("(scope 4) (or x1 x2 x3 x4)") == Formula(
        Or(Var(1), Or(Var(2), Or(Var(3), Var(4)))), 4
    )


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_circuit("(scope 2)\n(and x1\n x3)")
    assert err.value.line == 3
    assert err.value.column == 2

    with pytest.raises(ParseError) as err:
        parse_circuit("(scope 2) (or x1 x2) junk")
    assert err.value.line == 1
    assert err.value.column == 22


_DEEP_UNCLOSED = "(scope 1) " + "(not " * 2000 + "x1"

# each bad input with the message, line and column of its ParseError
_BAD_CIRCUITS = {
    "": ("unexpected end of input, expected (", 1, 1),
    "scope": ("expected '(', got 'scope'", 1, 1),
    "(scope": ("unexpected end of input, expected a token", 1, 7),
    "(scope 2": ("unexpected end of input, expected )", 1, 9),
    "(scope -1) true": ("scope must be a nonnegative integer, got '-1'", 1, 10),
    "(scope two) true": ("scope must be a nonnegative integer, got 'two'", 1, 11),
    "(scope \u00b2) true": ("scope must be a nonnegative integer, got '\u00b2'", 1, 9),
    "(scope 2) (xor x1 x2)": ("expected 'not', 'and' or 'or', got 'xor'", 1, 12),
    "(scope 2) (": ("unexpected end of input, expected a token", 1, 12),
    "(scope 2) ()": ("expected 'not', 'and' or 'or', got ')'", 1, 12),
    "(scope 2) (not x1 x2)": ("expected ')', got 'x2'", 1, 19),
    "(scope 2)\n(not x1\n  x2)": ("expected ')', got 'x2'", 3, 3),
    "(scope 2) (and x1)": ("'and' needs at least two operands", 1, 18),
    "(scope 2) (or)": ("'or' needs at least two operands", 1, 14),
    "(scope 2) (and x1 x2": ("unexpected end of input, expected ')'", 1, 21),
    "(scope 2) (and x1 (not": ("unexpected end of input, expected a formula", 1, 23),
    _DEEP_UNCLOSED: ("unexpected end of input, expected )", 1, 10013),
    "(scope 2) x0": ("variable index must be >= 1", 1, 11),
    "(scope 2) y1": ("expected a formula, got 'y1'", 1, 11),
    "(scope 3) x\u0662": ("expected a formula, got 'x\u0662'", 1, 11),
    "(scope 2)": ("unexpected end of input, expected a formula", 1, 10),
    "(scope 2) )": ("expected a formula, got ')'", 1, 11),
    "(scope 2) (or x1 x2))": ("unexpected trailing input ')'", 1, 21),
    "(scope 2)\f(or x1 x2)": ("expected a formula, got '\\x0c'", 1, 10),
    # a bad token after accepted repeats of other atoms, or repeated itself
    "(scope 2) (and x1 (or x1 x3))": ("variable x3 exceeds declared scope 2", 1, 26),
    "(scope 2) (and x2 (not x2 x1))": ("expected ')', got 'x1'", 1, 27),
    "(scope 2) (or x2 (and x2 x0))": ("variable index must be >= 1", 1, 26),
    "(scope 3) (and x1 (or x3 (and x1 y1)))": ("expected a formula, got 'y1'", 1, 34),
    "(scope 2) (or x1 (or x1 x3 x3))": ("variable x3 exceeds declared scope 2", 1, 25),
    "(scope 2)\n(and x1\n  (or x2 x1)\n  (and x1 x02 true true x3))": (
        "variable x3 exceeds declared scope 2",
        4,
        25,
    ),
    "(scope 2) (and true (or true x1 (not x1) x01 x2 x\u0662))": (
        "expected a formula, got 'x\u0662'",
        1,
        49,
    ),
}


@pytest.mark.parametrize(
    "text",
    list(_BAD_CIRCUITS),
    ids=lambda text: "unclosed-2000-deep-not" if text == _DEEP_UNCLOSED else None,
)
def test_parse_circuit_rejects_bad_input(text):
    message, line, column = _BAD_CIRCUITS[text]
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@given(formulas(max_scope=7))
def test_print_parse_round_trip(f):
    assert parse_circuit(print_circuit(f)) == f


@given(deep_formulas())
def test_print_parse_round_trip_on_deep_formulas(f):
    parsed = parse_circuit(print_circuit(f))
    assert parsed == f
    assert count_fast(parsed) == count_fast(f)


def test_parse_whitespace_and_newlines():
    text = "(scope 3)\n  (and\n    x1\n    (or x2 x3))"
    assert parse_circuit(text) == Formula(And(Var(1), Or(Var(2), Var(3))), 3)


def test_parse_dimacs_example():
    f = parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")
    assert f == Formula(And(Or(Var(1), Var(2)), Or(Not(Var(1)), Var(3))), 3)
    assert count_bruteforce(f) == 4


def test_parse_dimacs_no_clauses_is_true():
    f = parse_dimacs("p cnf 2 0\n")
    assert f == Formula(TRUE, 2)
    assert count_bruteforce(f) == 4


def test_parse_dimacs_tautologous_clause():
    f = parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert count_bruteforce(f) == 4


def test_parse_dimacs_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\nc another\n1 2\n3 0\n-2 0\n"
    f = parse_dimacs(text)
    assert f == Formula(
        And(Or(Var(1), Or(Var(2), Var(3))), Not(Var(2))), 3
    )


def test_parse_dimacs_empty_clause_is_false():
    f = parse_dimacs("p cnf 2 1\n0\n")
    assert count_bruteforce(f) == 0


@pytest.mark.parametrize(
    "text,match",
    [
        ("p cnf x 2\n1 0\n", "malformed header"),
        ("p dnf 2 1\n1 0\n", "malformed header"),
        ("1 0\n", "before the 'p cnf' header"),
        ("p cnf 2 1\n3 0\n", "exceeds declared variable count"),
        ("p cnf 2 1\n1 2\n", "unterminated clause"),
        ("p cnf 2 1\n1 a 0\n", "non-integer literal"),
        ("", "missing 'p cnf' header"),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate"),
        ("p cnf 1_0 1\n1 0\n", "malformed header 'p cnf 1_0 1'"),
        ("p cnf +2 1\n1 0\n", "malformed header 'p cnf \\+2 1'"),
        ("p cnf 12 1\n1 1_0 0\n", "non-integer literal '1_0'"),
        ("p cnf 2 1\n-1 \u0662 0\n", "non-integer literal '\u0662'"),
    ],
)
def test_parse_dimacs_rejects_bad_input(text, match):
    with pytest.raises(ParseError, match=match):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("p cnf 2 1\n3 0\n", 2, 1),
        ("p cnf 2 1\n1 -3 0\n", 2, 3),
        ("p cnf 2 1\n1 a 0\n", 2, 3),
        ("p cnf 2 1\n 1\ta 0\n", 2, 4),
        ("p cnf 2 1\n-1 - 0\n", 2, 4),
        ("p cnf 12 1\n1 1_0 0\n", 2, 3),
    ],
)
def test_parse_dimacs_literal_errors_name_their_column(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert (err.value.line, err.value.column) == (line, column)


# a bad literal after accepted repeats, repeated itself on a later line
_BAD_DIMACS = {
    "p cnf 2 3\n1 -2 0\n-2 3 0\n3 0\n": (
        "literal 3 exceeds declared variable count 2",
        3,
        4,
    ),
    "p cnf 2 2\n1 2 0\n2 a 0\na 0\n": ("non-integer literal 'a'", 3, 3),
    "p cnf 2 2\n1 1 0\n1 -1 -5 0\n-5 0\n": (
        "literal -5 exceeds declared variable count 2",
        3,
        6,
    ),
    "p cnf 2 2\n-1 0\n-1 2 -1 1_0 0\n1_0 0\n": ("non-integer literal '1_0'", 3, 9),
    "p cnf 2 2\n01 -02 0\n01 +2 -3 0\n-3 0\n": (
        "literal -3 exceeds declared variable count 2",
        3,
        7,
    ),
}


@pytest.mark.parametrize("text", list(_BAD_DIMACS))
def test_parse_dimacs_rejects_bad_repeated_literal(text):
    message, line, column = _BAD_DIMACS[text]
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_dimacs_literal_spellings_parse_alike():
    plain = parse_dimacs("p cnf 2 3\n1 0\n-1 2 0\n1 0\n")
    assert parse_dimacs("p cnf 2 3\n01 0\n-01 +2 00\n+1 -0\n") == plain
    assert parse_dimacs("p cnf 2 3\n01 +0\n-1 02 0\n1 0\n") == plain


def test_parse_shares_each_atom_within_one_call():
    f = parse_circuit("(scope 3) (and x1 (or (not x1) (and x2 (or x1 x2))))")
    assert f.node.left is f.node.right.left.child is f.node.right.right.right.left
    assert f.node.right.right.left is f.node.right.right.right.right
    again = parse_circuit("(scope 3) (and x1 (or (not x1) (and x2 (or x1 x2))))")
    assert again == f and again.node.left is not f.node.left

    g = parse_dimacs("p cnf 3 3\n1 -2 0\n-2 3\n0 -2 1 0\n")
    first, second, third = g.node.left, g.node.right.left, g.node.right.right
    assert first.right is second.left is third.left
    assert first.right == Not(Var(2))
    assert first.left is third.right
    other = parse_dimacs("p cnf 3 3\n1 -2 0\n-2 3\n0 -2 1 0\n")
    assert other == g and other.node.left.left is not first.left

    shifted = f.shift(2)
    assert shifted.node.left == Var(3)
    assert shifted.node.left is shifted.node.right.left.child
    assert shifted.node.left is shifted.node.right.right.right.left


def test_parse_tables_do_not_outlive_the_call():
    f = parse_circuit("(scope 2) (or x1 (and x1 (not x2)))")
    g = parse_dimacs("p cnf 2 3\n1 -2 0\n-2 0\n1 -2 0\n")
    x1, not_x2 = f.node.left, g.node.left.right
    # each leaf is held by its parents in the tree, the local name and the call
    assert sys.getrefcount(x1) == 2 + 2
    assert sys.getrefcount(not_x2) == 3 + 2
    refs = [weakref.ref(f), weakref.ref(g)]
    del f, g
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert sys.getrefcount(x1) == sys.getrefcount(not_x2) == 2


def test_nary_operators_with_repeated_atoms_fold_right():
    f = parse_circuit("(scope 2) (and x1 x1 (or x2 x1 x2))")
    assert f == Formula(And(Var(1), And(Var(1), Or(Var(2), Or(Var(1), Var(2))))), 2)
    assert f.node.left is f.node.right.left is f.node.right.right.right.left
    assert f.node.right.right.left is f.node.right.right.right.right
    assert count_fast(f) == count_bruteforce(f) == 2


def _clauses(node):
    """The conjuncts of a CNF-shaped tree in order, each as its literals."""
    out = []
    pending = [node]
    while pending:
        top = pending.pop()
        if type(top) is And:
            pending += (top.right, top.left)
        elif top != TRUE:
            out.append(_disjuncts(top))
    return out


def _disjuncts(node):
    if type(node) is Or:
        return _disjuncts(node.left) + _disjuncts(node.right)
    return [] if node == FALSE else [node]


def _dimacs(f):
    clauses = _clauses(f.node)
    lines = [f"p cnf {f.scope} {len(clauses)}"]
    for clause in clauses:
        lits = [f"-{x.child.index}" if type(x) is Not else f"{x.index}" for x in clause]
        lines.append(" ".join(lits + ["0"]))
    return "\n".join(lines) + "\n"


@given(cnf_formulas())
def test_dimacs_round_trip(f):
    clauses = _clauses(f.node)
    parsed = parse_dimacs(_dimacs(f))
    assert parsed == Formula(and_all(or_all(clause) for clause in clauses), f.scope)
    assert count_fast(parsed) == count_bruteforce(parsed) == count_bruteforce(f)


def test_read_formula_by_suffix(tmp_path):
    ckt = tmp_path / "f.ckt"
    ckt.write_text("(scope 2) (or x1 x2)\n")
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert read_formula(str(ckt)) == parse_circuit("(scope 2) (or x1 x2)")
    assert read_formula(str(cnf)) == parse_dimacs("p cnf 2 1\n1 2 0\n")
    other = tmp_path / "f.txt"
    other.write_text("(scope 1) x1\n")
    with pytest.raises(ValueError, match="cannot infer format"):
        read_formula(str(other))
    assert read_formula(str(other), "circuit") == Formula(Var(1), 1)
