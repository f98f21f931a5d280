"""Split instances, block parsing, and the decision/maximization engines."""

import dataclasses
import gc
import random
import sys
import weakref

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
    count_bruteforce,
    count_fast,
    count_given_x,
    dmax_decide,
    dmax_pruned,
    max_count,
    parse_blocks,
    parse_circuit,
    parse_dimacs,
    print_circuit,
)
import dmaxsat.counting
import dmaxsat.selftest
from dmaxsat.counting import count_residue, residue_of
from dmaxsat.generate import random_cnf, random_split_instance
from dmaxsat.selftest import _solver_problem, solver_law
from dmaxsat.solver import _relabel

from strategies import at_each_width, cnf_formulas, deep_formulas, formulas


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


def test_reference_engine_leaves_the_counting_slot_alone():
    # dmax_decide counts each chooser on a fresh memo, so it neither reads
    # nor replaces the memo that count_fast keeps
    held = dmaxsat.counting._last
    inst = SplitInstance(MIXED, (1,), (2, 3), bound=2)
    assert dmax_decide(inst) == Witness((True,), 2)
    assert count_given_x(inst, (False,)) == 1
    assert dmaxsat.counting._last is held


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
@at_each_width
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
@at_each_width
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


def _fresh_reference(instance, bound=None):
    # dmax_decide on an equal but distinct copy of the formula; with no
    # bound, at the enumerated maximum, where it returns max_count's witness
    copy = parse_circuit(print_circuit(instance.formula))
    if bound is None:
        bound = _oracle_best(instance)[1]
    return dmax_decide(SplitInstance(copy, instance.x_vars, instance.y_vars, bound))


@settings(max_examples=60)
@given(
    st.one_of(formulas(max_scope=6), cnf_formulas(max_scope=6), deep_formulas(max_scope=6)),
    formulas(max_scope=5),
    st.data(),
)
@at_each_width
def test_solver_calls_in_any_order_match_the_reference(f, other, data):
    # one formula object under three splits (a drawn one, its x block
    # permuted, and the same order cut elsewhere), and another formula's
    # split, called in a drawn order at drawn bounds: each call reads or
    # replaces the solver's slot, and each answer is the reference's
    order = data.draw(st.permutations(range(1, f.scope + 1)))
    cut, recut = data.draw(st.integers(0, f.scope)), data.draw(st.integers(0, f.scope))
    xs, ys = tuple(order[:cut]), tuple(order[cut:])
    other_cut = data.draw(st.integers(0, other.scope))
    splits = [
        SplitInstance(f, xs, ys),
        SplitInstance(f, tuple(data.draw(st.permutations(xs))), ys),
        SplitInstance(f, tuple(order[:recut]), tuple(order[recut:])),
        SplitInstance(
            other, tuple(range(1, other_cut + 1)), tuple(range(other_cut + 1, other.scope + 1))
        ),
    ]
    calls = data.draw(
        st.lists(st.tuples(st.integers(0, len(splits) - 1), st.booleans()), min_size=1, max_size=8)
    )
    for which, decide in calls:
        instance = splits[which]
        if decide:
            bound = data.draw(st.integers(0, (1 << len(instance.y_vars)) + 1))
            bounded = dataclasses.replace(instance, bound=bound)
            assert dmax_pruned(bounded) == _fresh_reference(instance, bound)
        else:
            assert max_count(instance) == _fresh_reference(instance)


def test_one_variable_order_under_two_chooser_blocks():
    # x = {1}, y = {2} and x = {1, 2}, y = {} relabel x1 or x2 to the same
    # residue, but its value over 1..2 is 2 under the first and 1 under
    # the second, so the solver must not share their memo
    assert max_count(SplitInstance(OR_XY, (1,), (2,))) == Witness((True,), 2)
    assert max_count(SplitInstance(OR_XY, (1, 2), ())) == Witness((False, True), 1)
    assert max_count(SplitInstance(OR_XY, (1,), (2,))) == Witness((True,), 2)


def test_solver_keeps_one_formula_and_still_checks_limits():
    # (x1 and x2) or not x3 with x = {1}: True gives 3 models, False 2
    first = Formula(Or(And(Var(1), Var(2)), Not(Var(3))), 3)
    node = first.node
    refs = sys.getrefcount(node)
    instance = SplitInstance(first, (1,), (2, 3))
    assert max_count(instance) == Witness((True,), 3)
    assert sys.getrefcount(node) > refs  # held while it is the last formula
    with pytest.raises(ScopeLimitError):
        max_count(instance, limit=0)
    with pytest.raises(ScopeLimitError):
        dmax_pruned(dataclasses.replace(instance, bound=1), limit=1)
    assert dmax_pruned(dataclasses.replace(instance, bound=3)) == Witness((True,), 3)
    # one slot for every engine: a count on another formula frees this memo
    assert count_fast(OR_XY) == 3
    assert sys.getrefcount(node) == refs
    assert max_count(instance) == Witness((True,), 3)
    assert max_count(SplitInstance(OR_XY, (1,), (2,))) == Witness((True,), 2)
    assert sys.getrefcount(node) == refs
    formula = weakref.ref(first)
    del first, instance
    gc.collect()
    assert formula() is None


def _restrictions(monkeypatch):
    # the calls of counting.restrict_residue, which every search step makes
    calls = []
    real = dmaxsat.counting.restrict_residue

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dmaxsat.counting, "restrict_residue", counted)
    return calls


def test_decision_after_max_count_on_an_equal_parse_reads_the_root(monkeypatch):
    # the slot matches an equal but distinct parse with the same blocks, so
    # deciding one above the maximum is a lookup of the root's exact value
    f = random_cnf(random.Random(4), 11, 12)
    xs, ys = (2, 5, 7, 9, 11, 1), (3, 4, 6, 8, 10)
    best = max_count(SplitInstance(f, xs, ys))
    assert best.achieved == 6
    calls = _restrictions(monkeypatch)
    copy = parse_circuit(print_circuit(f))
    assert copy.node is not f.node
    assert dmax_pruned(SplitInstance(copy, xs, ys, best.achieved + 1)) is None
    assert calls == []
    # another chooser block is another root
    assert dmax_pruned(SplitInstance(copy, xs[:-1], (1, *ys), best.achieved + 1)) is None
    assert calls


@pytest.mark.parametrize("count_first", [True, False])
def test_count_and_empty_chooser_block_share_the_root(monkeypatch, count_first):
    # a max/sum memo over an empty chooser block is a count memo, so after
    # either engine the other's call on an equal parse is a root lookup.
    # Tables are off: the formula spans ten variables, and its root would
    # otherwise be counted from one table by either engine, slot or not
    monkeypatch.setattr(dmaxsat.counting, "TABLE_WIDTH", 0)
    f = random_cnf(random.Random(4), 10, 10)
    copy = parse_circuit(print_circuit(f))
    count = count_bruteforce(f)
    assert count == 32
    instance = SplitInstance(copy, (), tuple(range(1, 11)))
    assert count_fast(OR_XY) == 3  # the slot holds another formula
    calls = _restrictions(monkeypatch)
    if count_first:
        assert count_fast(f) == count
    else:
        assert max_count(instance) == Witness((), count)
    assert calls  # a root not in the slot is searched
    calls.clear()
    if count_first:
        assert max_count(instance) == Witness((), count)
    else:
        assert count_fast(f) == count
    assert calls == []


def test_selftest_decides_each_copy_on_an_empty_memo(monkeypatch):
    # the solver suite decides an equal copy of each instance after
    # max_count on the original: each such decision must search from scratch
    instance = SplitInstance(MIXED, (1,), (2, 3))
    calls = _restrictions(monkeypatch)
    cold = []
    real = dmaxsat.selftest.dmax_pruned

    def pruned(bounded):
        before = len(calls)
        result = real(bounded)
        if bounded.formula is not MIXED:
            cold.append(len(calls) - before)
        return result

    monkeypatch.setattr(dmaxsat.selftest, "dmax_pruned", pruned)
    assert _solver_problem(random.Random(1), instance) is None
    assert cold and all(cold)


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


def _max_sum(node, scope, k):
    # the best count over k+1..scope of any assignment to 1..k, enumerated
    return max(
        sum(node.eval_mask(x | y << k) for y in range(1 << (scope - k)))
        for x in range(1 << k)
    )


@settings(max_examples=60)
@given(st.one_of(formulas(max_scope=7), cnf_formulas(max_scope=7)), st.data())
@at_each_width
def test_max_sum_search_matches_enumeration_under_caps(f, data):
    # every chooser block size k of one drawn variable order; a capped
    # result is exact below its cap and at least the cap otherwise
    order = data.draw(st.permutations(range(1, f.scope + 1)))
    for k in range(f.scope + 1):
        node = _relabel(SplitInstance(f, tuple(order[:k]), tuple(order[k:])))
        best = _max_sum(node, f.scope, k)
        assert count_residue(residue_of(node), 1, f.scope, {}, None, k) == best
        drawn = data.draw(st.integers(1, (1 << f.scope) + 1))
        for cap in {1, best, best + 1, drawn} - {0}:
            value = count_residue(residue_of(node), 1, f.scope, {}, cap, k)
            if best < cap:
                assert value == best
            else:
                assert value >= cap


@settings(max_examples=60)
@given(deep_formulas(), st.data())
@at_each_width
def test_max_sum_search_on_deep_formulas_matches_enumeration(f, data):
    # the chooser block is x1..xk of the drawn tree as it stands
    k = data.draw(st.integers(0, f.scope))
    residue = residue_of(f.node)
    best = _max_sum(f.node, f.scope, k)
    assert count_residue(residue, 1, f.scope, {}, None, k) == best
    for cap in {best, best + 1} - {0}:
        value = count_residue(residue, 1, f.scope, {}, cap, k)
        if best < cap:
            assert value == best
        else:
            assert value >= cap


@settings(max_examples=60)
@given(st.one_of(formulas(max_scope=7), cnf_formulas(max_scope=7)), st.data())
@at_each_width
def test_max_sum_search_reads_lower_bounds_under_other_caps(f, data):
    # one memo for the searches at caps 1..best + 1 and then uncapped: a
    # lower bound stored under one cap answers only a search that it
    # reaches the cap of, and the next cap is one above it
    k = data.draw(st.integers(0, f.scope))
    residue = residue_of(f.node)
    best = _max_sum(f.node, f.scope, k)
    memo = {}
    for cap in [*range(1, best + 2), None]:
        value = count_residue(residue, 1, f.scope, memo, cap, k)
        if cap is None or best < cap:
            assert value == best
        else:
            assert value >= cap
