"""Circuit and DIMACS parsing, printing, and error positions."""

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
    count_bruteforce,
    count_fast,
    parse_circuit,
    parse_dimacs,
    print_circuit,
    read_formula,
)

from strategies import deep_formulas, formulas


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
