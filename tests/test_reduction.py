"""Equality-to-threshold rewriting and multi-claim collapsing."""

import pickle
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dmaxsat import (
    FALSE,
    And,
    EqualityQuery,
    Formula,
    Or,
    ThresholdQuery,
    Var,
    combine_equalities,
    count_bruteforce,
    eq_to_geq,
    parse_circuit,
    print_circuit,
    split_target,
    verify_threshold,
)
from dmaxsat.generate import random_formula
from dmaxsat.reduction import Collapse
from dmaxsat.selftest import SuiteResult, expected_psi_size

from strategies import formulas


OR2 = Formula(Or(Var(1), Var(2)), 2)  # 3 models
AND2 = Formula(And(Var(1), Var(2)), 2)  # 1 model


def test_eq_to_geq_true_claim():
    query = eq_to_geq(OR2, 3)
    assert query.bound == 9  # k_value(2, 1, 3)
    assert count_bruteforce(query.formula) == 9
    assert verify_threshold(query) is True


def test_eq_to_geq_false_claim_high_branch():
    query = eq_to_geq(OR2, 2)
    assert query.bound == 4  # k_value(2, 0, 2)
    assert count_bruteforce(query.formula) == 3  # k_value(2, 0, 3)
    assert verify_threshold(query) is False


def test_eq_to_geq_false_claim_low_branch():
    query = eq_to_geq(OR2, 1)
    branch, delta = split_target(2, 1)
    assert (branch, delta) == ("low", 1)
    assert verify_threshold(query) is False


def test_eq_to_geq_rejects_bad_input():
    with pytest.raises(ValueError, match="scope variable"):
        eq_to_geq(Formula(FALSE, 0), 0)
    with pytest.raises(ValueError, match="outside"):
        eq_to_geq(OR2, 5)
    with pytest.raises(ValueError, match="outside"):
        eq_to_geq(OR2, -1)


def test_split_target():
    assert split_target(3, 4) == ("high", 0)
    assert split_target(3, 8) == ("high", 4)
    assert split_target(3, 0) == ("low", 4)
    assert split_target(3, 3) == ("low", 1)
    with pytest.raises(ValueError):
        split_target(0, 0)


@settings(max_examples=40)
@given(formulas(min_scope=1, max_scope=3))
def test_eq_to_geq_sound_complete_and_apex_bounded(h):
    true_count = count_bruteforce(h)
    for y in range((1 << h.scope) + 1):
        query = eq_to_geq(h, y)
        gadget_count = count_bruteforce(query.formula)
        assert gadget_count <= query.bound
        assert (gadget_count >= query.bound) == (true_count == y)
        assert verify_threshold(query) == (true_count == y)


def test_combine_true_claims():
    collapse = combine_equalities(
        [EqualityQuery(AND2, 1), EqualityQuery(OR2, 3)]
    )
    assert collapse.target == 25
    assert collapse.digits == (1, 3)
    assert collapse.branch == "low"
    assert collapse.delta == 7
    assert collapse.packed.scope == 6
    assert count_bruteforce(collapse.packed) == 25
    assert collapse.query.bound == 1521  # 39 * (64 - 39 + 14)
    assert collapse.query.formula.scope == 13
    assert count_bruteforce(collapse.query.formula) == 1521
    assert verify_threshold(collapse.query) is True


def test_combine_wrong_claim():
    collapse = combine_equalities(
        [EqualityQuery(AND2, 2), EqualityQuery(OR2, 3)]
    )
    assert collapse.target == 26
    assert verify_threshold(collapse.query) is False


def test_combine_singleton_zero_claim():
    collapse = combine_equalities([EqualityQuery(Formula(FALSE, 1), 0)])
    assert verify_threshold(collapse.query) is True


def test_combine_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        combine_equalities([])
    with pytest.raises(ValueError, match="scope"):
        combine_equalities(
            [EqualityQuery(Formula(Var(1), 1), 1), EqualityQuery(OR2, 1)]
        )
    with pytest.raises(ValueError, match="claimed count"):
        EqualityQuery(OR2, 5)
    with pytest.raises(ValueError, match="claimed count"):
        EqualityQuery(OR2, -1)


def test_threshold_query_validates_bound():
    ThresholdQuery(OR2, 5)  # 2**2 + 1 is allowed: unsatisfiable-by-bound
    with pytest.raises(ValueError, match="bound"):
        ThresholdQuery(OR2, 6)
    with pytest.raises(ValueError, match="bound"):
        ThresholdQuery(OR2, -1)


_OR2_TEXT = "Formula(node=Or(x1, x2), scope=2)"


@pytest.mark.parametrize(
    "cls,fields,change,shown",
    [
        (EqualityQuery, {"formula": OR2, "claimed": 3}, {"claimed": 2},
         f"EqualityQuery(formula={_OR2_TEXT}, claimed=3)"),
        (ThresholdQuery, {"formula": OR2, "bound": 4}, {"formula": AND2},
         f"ThresholdQuery(formula={_OR2_TEXT}, bound=4)"),
        (Collapse,
         {"query": ThresholdQuery(OR2, 4), "packed": OR2, "digits": (3,), "target": 3,
          "branch": "high", "delta": 1},
         {"branch": "low"},
         f"Collapse(query=ThresholdQuery(formula={_OR2_TEXT}, bound=4), "
         f"packed={_OR2_TEXT}, digits=(3,), target=3, branch='high', delta=1)"),
        (SuiteResult, {"name": "pair-law", "cases": 3}, {"failure": "  f = x1"},
         "SuiteResult(name='pair-law', cases=3, failure=None)"),
    ],
    ids=["EqualityQuery", "ThresholdQuery", "Collapse", "SuiteResult"],
)
def test_records_are_immutable_values(cls, fields, change, shown):
    # built by keyword as by position, and shown as the dataclasses they were
    record, other = cls(**fields), cls(**{**fields, **change})
    assert record == cls(*fields.values()) != other
    assert hash(record) == hash(cls(**fields))
    assert repr(record) == shown
    values = tuple(getattr(record, name) for name in cls.__match_args__)
    assert record != values and values != record
    assert len({record, cls(**fields), other}) == 2
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert pickle.loads(pickle.dumps(record)) == record


def test_verify_threshold_basics():
    assert verify_threshold(ThresholdQuery(OR2, 3)) is True
    assert verify_threshold(ThresholdQuery(OR2, 4)) is False


@settings(max_examples=40)
@given(st.data())
def test_collapse_size_stays_linear_in_operands(data):
    # exact construction accounting: packing adds 2 + (k-1)(2n+4) operators,
    # negation at most 1, and the psi stage doubles that and adds the
    # comparator over k(n+1) variables plus its 6 fixed operators
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    operands = [data.draw(formulas(min_scope=n, max_scope=n)) for _ in range(k)]
    claims = [data.draw(st.integers(0, 1 << n)) for _ in range(k)]
    collapse = combine_equalities(
        [EqualityQuery(f, c) for f, c in zip(operands, claims)]
    )
    total = sum(f.size() for f in operands)
    assert collapse.query.formula.size() <= 2 * total + 6 * k * n + 10 * k + 4


@pytest.mark.parametrize("last_claim", [0, 1 << 16])
def test_combine_builds_deep_batches_at_exact_size(last_claim):
    # 64 operands over 16 variables pack into a tree over a thousand
    # operators deep; the last claim picks the psi branch. The round trip
    # compares text because Node.__eq__ still recurses on depth
    rng = random.Random(1)
    operands = [random_formula(rng, 16, 34) for _ in range(64)]
    claims = [rng.randint(0, 1 << 16) for _ in range(63)] + [last_claim]
    collapse = combine_equalities(
        [EqualityQuery(f, c) for f, c in zip(operands, claims)]
    )
    assert collapse.branch == ("high" if last_claim else "low")
    h = collapse.packed if collapse.branch == "high" else collapse.packed.negate()
    assert collapse.query.formula.scope == 2 * 64 * 17 + 1
    assert collapse.query.formula.size() == expected_psi_size(h, collapse.delta)
    text = print_circuit(collapse.query.formula)
    parsed = parse_circuit(text)
    assert print_circuit(parsed) == text
    assert parsed.size() == collapse.query.formula.size()


@settings(max_examples=12)
@given(st.data())
def test_combine_accepts_exactly_the_true_vector(data):
    n = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 2))
    operands = [data.draw(formulas(min_scope=n, max_scope=n)) for _ in range(k)]
    true_counts = [count_bruteforce(f) for f in operands]

    true_collapse = combine_equalities(
        [EqualityQuery(f, c) for f, c in zip(operands, true_counts)]
    )
    assert verify_threshold(true_collapse.query) is True
    assert count_bruteforce(true_collapse.query.formula) == true_collapse.query.bound

    for position in range(k):
        for wrong in range((1 << n) + 1):
            if wrong == true_counts[position]:
                continue
            claims = list(true_counts)
            claims[position] = wrong
            collapse = combine_equalities(
                [EqualityQuery(f, c) for f, c in zip(operands, claims)]
            )
            assert verify_threshold(collapse.query) is False
            assert count_bruteforce(collapse.query.formula) < collapse.query.bound
