"""Split instances, block parsing, and the decision/maximization engines."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dmaxsat import (
    FALSE,
    TRUE,
    And,
    Formula,
    Not,
    Or,
    ScopeLimitError,
    SplitInstance,
    Var,
    Witness,
    count_given_x,
    dmax_decide,
    dmax_pruned,
    max_count,
    parse_blocks,
    parse_dimacs,
)
from dmaxsat.generate import random_split_instance
from dmaxsat.selftest import solver_law
from dmaxsat.solver import _relabel

from strategies import cnf_formulas


OR_XY = Formula(Or(Var(1), Var(2)), 2)
# (x1 and y1) or (not x1 and y1 and y2) with x = {1}, y = {2, 3}
MIXED = Formula(
    Or(And(Var(1), Var(2)), And(Not(Var(1)), And(Var(2), Var(3)))), 3
)


def test_count_given_x_examples():
    inst = SplitInstance(OR_XY, (1,), (2,))
    assert count_given_x(inst, (True,)) == 2
    assert count_given_x(inst, (False,)) == 1

    inst2 = SplitInstance(MIXED, (1,), (2, 3))
    assert count_given_x(inst2, (True,)) == 2
    assert count_given_x(inst2, (False,)) == 1

    dead = SplitInstance(Formula(FALSE, 2), (1,), (2,))
    assert count_given_x(dead, (True,)) == 0


def test_count_given_x_rejects_wrong_arity():
    inst = SplitInstance(OR_XY, (1,), (2,))
    with pytest.raises(ValueError, match="chooser variables"):
        count_given_x(inst, (True, False))


def test_dmax_examples():
    inst = SplitInstance(OR_XY, (1,), (2,), bound=2)
    assert dmax_decide(inst) == Witness((True,), 2)
    assert dmax_decide(dataclasses.replace(inst, bound=3)) is None
    assert dmax_decide(SplitInstance(MIXED, (1,), (2, 3), bound=2)) == Witness(
        (True,), 2
    )


def test_max_count_examples():
    assert max_count(SplitInstance(OR_XY, (1,), (2,))) == Witness((True,), 2)
    # all choosers tie: the lexicographically least (all false) wins
    assert max_count(SplitInstance(Formula(TRUE, 4), (1,), (2, 3, 4))) == Witness(
        (False,), 8
    )
    assert max_count(SplitInstance(MIXED, (1,), (2, 3))) == Witness((True,), 2)


def test_dmax_pruned_edges():
    inst = SplitInstance(OR_XY, (1,), (2,), bound=0)
    assert dmax_pruned(inst) == Witness((False,), 1)
    assert dmax_pruned(inst) == dmax_decide(inst)

    dead = SplitInstance(Formula(FALSE, 3), (1, 2), (3,), bound=1)
    assert dmax_pruned(dead) is None
    assert dmax_decide(dead) is None


def test_empty_chooser_block():
    inst = SplitInstance(OR_XY, (), (1, 2), bound=3)
    assert dmax_decide(inst) == Witness((), 3)
    assert dmax_pruned(inst) == Witness((), 3)
    assert max_count(inst) == Witness((), 3)


def test_zero_scope_instance():
    inst = SplitInstance(Formula(TRUE, 0), (), (), bound=1)
    assert count_given_x(inst, ()) == 1
    assert dmax_decide(inst) == Witness((), 1)
    assert max_count(inst) == Witness((), 1)


def test_bound_is_required_for_decisions():
    inst = SplitInstance(OR_XY, (1,), (2,))
    with pytest.raises(ValueError, match="no bound"):
        dmax_decide(inst)
    with pytest.raises(ValueError, match="no bound"):
        dmax_pruned(inst)


def test_enumeration_limits():
    inst = SplitInstance(Formula(TRUE, 6), (1, 2, 3), (4, 5, 6), bound=0)
    with pytest.raises(ScopeLimitError):
        dmax_decide(inst, limit=2)
    with pytest.raises(ScopeLimitError):
        dmax_pruned(inst, limit=2)
    with pytest.raises(ScopeLimitError):
        max_count(inst, limit=2)


def test_split_instance_validation():
    with pytest.raises(ValueError, match="listed twice"):
        SplitInstance(OR_XY, (1,), (1, 2))
    with pytest.raises(ValueError, match="missing"):
        SplitInstance(OR_XY, (1,), ())
    with pytest.raises(ValueError, match="outside scope"):
        SplitInstance(OR_XY, (1, 3), (2,))
    with pytest.raises(ValueError, match="bound"):
        SplitInstance(OR_XY, (1,), (2,), bound=4)
    SplitInstance(OR_XY, (1,), (2,), bound=3)  # 2**1 + 1 is allowed


def test_parse_blocks():
    assert parse_blocks("x: 1 3 / y: 2 4 5", 5) == ((1, 3), (2, 4, 5))
    assert parse_blocks("x:1", 3) == ((1,), (2, 3))
    assert parse_blocks("", 3) == ((), (1, 2, 3))
    assert parse_blocks("y: 2 / x: 3 1", 4) == ((3, 1), (2, 4))
    assert parse_blocks("x: / y: 1 2", 2) == ((), (1, 2))


@pytest.mark.parametrize(
    "declaration,match",
    [
        ("x: 1 1", "listed twice"),
        ("x: 1 / y: 1", "listed twice"),
        ("x: 9", "outside scope"),
        ("z: 1", "malformed block segment"),
        ("x 1", "malformed block segment"),
        ("x: one", "bad variable index"),
    ],
)
def test_parse_blocks_rejects_bad_input(declaration, match):
    # parse_blocks rejects bad syntax; an index outside the scope or listed
    # twice is rejected by SplitInstance
    with pytest.raises(ValueError, match=match):
        SplitInstance(Formula(TRUE, 3), *parse_blocks(declaration, 3))


def _oracle_best(instance):
    xs, ys = instance.x_vars, instance.y_vars
    best = None
    for x_mask in range(1 << len(xs)):
        values = tuple(bool((x_mask >> (len(xs) - 1 - j)) & 1) for j in range(len(xs)))
        base = 0
        for v, b in zip(xs, values):
            if b:
                base |= 1 << (v - 1)
        achieved = 0
        for y_mask in range(1 << len(ys)):
            mask = base
            for j, v in enumerate(ys):
                if (y_mask >> j) & 1:
                    mask |= 1 << (v - 1)
            if instance.formula.node.eval_mask(mask):
                achieved += 1
        if best is None or achieved > best[1]:
            best = (values, achieved)
    return best


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_engines_match_oracle_on_random_instances(seed):
    rng = random.Random(seed)
    instance = random_split_instance(rng, max_total=7)
    values, achieved = _oracle_best(instance)
    top = max_count(instance)
    assert (top.values, top.achieved) == (values, achieved)
    drawn = rng.randint(0, (1 << len(instance.y_vars)) + 1)
    for bound in (0, achieved, achieved + 1, drawn):
        bounded = dataclasses.replace(instance, bound=bound)
        plain = dmax_decide(bounded)
        pruned = dmax_pruned(bounded)
        assert plain == pruned
        assert (plain is not None) == (bound <= achieved)
        if plain is not None:
            assert plain.achieved >= bound
            assert count_given_x(instance, plain.values) == plain.achieved


def test_shared_subtree_under_unsorted_chooser_block():
    # one subtree object over y appears under several chooser prefixes, and
    # neither block is listed in ascending order
    shared = Or(Var(2), And(Var(4), Not(Var(5))))
    node = Or(
        And(Var(3), And(Var(1), shared)),
        And(Not(Var(3)), Or(And(Var(1), shared), And(Not(Var(1)), Var(4)))),
    )
    instance = SplitInstance(Formula(node, 5), (3, 1), (5, 2, 4))
    values, achieved = _oracle_best(instance)
    assert max_count(instance) == Witness(values, achieved)
    for bound in range((1 << 3) + 2):
        bounded = dataclasses.replace(instance, bound=bound)
        plain = dmax_decide(bounded)
        assert dmax_pruned(bounded) == plain
        assert (plain is not None) == (bound <= achieved)


@settings(max_examples=60)
@given(cnf_formulas(max_scope=7), st.data())
def test_engines_match_reference_on_cnf(f, data):
    order = data.draw(st.permutations(range(1, f.scope + 1)))
    cut = data.draw(st.integers(0, f.scope))
    instance = SplitInstance(f, tuple(order[:cut]), tuple(order[cut:]))
    best = max_count(instance)
    assert dmax_decide(dataclasses.replace(instance, bound=best.achieved)) == best
    drawn = data.draw(st.integers(0, (1 << len(instance.y_vars)) + 1))
    for bound in (0, best.achieved, best.achieved + 1, drawn):
        bounded = dataclasses.replace(instance, bound=bound)
        plain = dmax_decide(bounded)
        assert dmax_pruned(bounded) == plain
        assert (plain is not None) == (bound <= best.achieved)


def test_relabel_keeps_shared_subtrees_shared():
    shared = Or(Var(1), Not(Var(2)))
    formula = Formula(And(shared, Or(Var(3), shared)), 3)
    node = _relabel(SplitInstance(formula, (3,), (1, 2)))
    assert node.left is node.right.right
    assert node.right.left == Var(1) and node.left == Or(Var(2), Not(Var(3)))


def test_deep_chain_is_relabelled_and_solved():
    # x1 -> x2 -> ... -> x1501 has the models F^a T^(1501-a); with x1501 as
    # the chooser, True leaves 1501 of them and False only the all-false one
    n = 1501
    links = "".join(f"-{i} {i + 1} 0\n" for i in range(1, n))
    chain = parse_dimacs(f"p cnf {n} {n - 1}\n{links}")
    instance = SplitInstance(chain, (n,), tuple(range(1, n)))
    node = _relabel(instance)
    assert (node.ops, node.min_var, node.max_var) == (chain.node.ops, 1, n)
    assert max_count(instance, limit=n) == Witness((True,), n)


def test_deep_chooser_block_is_maximized():
    # x1 -> ... -> x1500 with x1..x1499 choosing: any True chooser forces
    # x1500, so only the all-False chooser leaves y free with 2 models
    n = 1500
    links = "".join(f"-{i} {i + 1} 0\n" for i in range(1, n))
    chain = parse_dimacs(f"p cnf {n} {n - 1}\n{links}")
    instance = SplitInstance(chain, tuple(range(1, n)), (n,))
    expected = Witness((False,) * (n - 1), 2)
    assert max_count(instance, limit=n) == expected
    assert dmax_pruned(dataclasses.replace(instance, bound=2), limit=n) == expected
    assert dmax_pruned(dataclasses.replace(instance, bound=3), limit=n) is None


def test_monotonicity_in_the_bound():
    rng = random.Random(5)
    for _ in range(30):
        instance = random_split_instance(rng, max_total=6)
        best = max_count(instance).achieved
        for bound in range(best + 2):
            bounded = dataclasses.replace(instance, bound=bound)
            assert (dmax_decide(bounded) is not None) == (bound <= best)


def test_solver_suite_passes():
    result = solver_law(random.Random(11), 80)
    assert result.ok, result.failure
