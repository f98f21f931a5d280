"""Counting engines: oracle behavior, equivalence, and threshold checks."""

import gc
import random
import sys
import weakref
from functools import partial, reduce
from pathlib import Path

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
    and_all,
    count_bruteforce,
    count_fast,
    dmax_decide,
    dmax_pruned,
    k_value,
    less_than_const,
    max_count,
    pack_many,
    parse_circuit,
    parse_dimacs,
    print_circuit,
    psi_gadget,
    threshold_check,
)

import dmaxsat.counting
from dmaxsat.counting import _decision, count_residue, residue_of
from dmaxsat.generate import random_formula

from strategies import (
    at_each_width,
    cnf_formulas,
    comparator_formulas,
    comparators,
    deep_formulas,
    formulas,
    gadget_formulas,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from corpus import random_3cnf  # noqa: E402

X1, X2, X3, X4, X5 = map(Var, range(1, 6))


def test_bruteforce_basics():
    assert count_bruteforce(Formula(TRUE, 3)) == 8
    assert count_bruteforce(Formula(And(Var(1), Not(Var(1))), 5)) == 0
    assert count_bruteforce(Formula(Or(Var(1), Var(2)), 2)) == 3
    assert count_bruteforce(Formula(TRUE, 0)) == 1
    assert count_bruteforce(Formula(FALSE, 0)) == 0


def test_bruteforce_refuses_above_limit():
    big = Formula(Var(1), 30)
    with pytest.raises(ScopeLimitError, match="limit of 24"):
        count_bruteforce(big)
    with pytest.raises(ScopeLimitError, match="limit of 4"):
        count_bruteforce(Formula(Var(1), 5), limit=4)
    assert count_bruteforce(Formula(Var(1), 5), limit=5) == 16


def test_fast_basics():
    f = parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")
    assert count_fast(f) == 4
    assert count_fast(Formula(Var(1), 10)) == 512
    assert count_fast(Formula(TRUE, 0)) == 1
    assert count_fast(Formula(FALSE, 7)) == 0


def test_fast_handles_unfolded_constant_trees():
    # operator trees that are constant without mentioning any variable
    assert count_fast(Formula(Not(TRUE), 3)) == 0
    assert count_fast(Formula(And(TRUE, Or(FALSE, TRUE)), 2)) == 4
    assert count_fast(Formula(Or(Var(2), And(TRUE, TRUE)), 3)) == 8
    assert count_fast(Formula(And(Var(1), Not(FALSE)), 4)) == 8


@given(formulas(max_scope=8))
@at_each_width
def test_fast_equals_bruteforce(f):
    assert count_fast(f) == count_bruteforce(f)


@given(formulas(max_scope=6), st.integers(1, 4))
@at_each_width
def test_scope_scaling(f, extra):
    widened = Formula(f.node, f.scope + extra)
    assert count_bruteforce(widened) == count_bruteforce(f) << extra
    assert count_fast(widened) == count_fast(f) << extra


@given(formulas(max_scope=7))
def test_negation_complement(f):
    assert count_fast(f.negate()) == (1 << f.scope) - count_fast(f)


@given(formulas(max_scope=4), formulas(max_scope=4))
def test_de_morgan_counts(f, g):
    scope = max(f.scope, g.scope)
    a, b = f.node, g.node
    lhs = Formula(Not(And(a, b)), scope)
    rhs = Formula(Or(Not(a), Not(b)), scope)
    assert count_fast(lhs) == count_fast(rhs)


def _cold(f, bound):
    # threshold_check's capped search on a fresh memo: after count_fast on
    # the same formula, threshold_check reads the root from the kept memo
    # and runs no capped search
    return bound <= 0 or count_residue(residue_of(f.node), 1, f.scope, {}, bound) >= bound


def test_threshold_basics():
    f = Formula(Or(Var(1), Var(2)), 2)
    assert threshold_check(f, 3) is True
    assert threshold_check(f, 4) is False
    assert threshold_check(f, 0) is True
    assert threshold_check(Formula(FALSE, 5), 0) is True
    assert threshold_check(Formula(FALSE, 5), 1) is False
    assert threshold_check(Formula(TRUE, 3), 9) is False


@settings(max_examples=60)
@given(formulas(max_scope=6))
@at_each_width
def test_threshold_agrees_with_count_for_every_bound(f):
    count = count_bruteforce(f)
    for bound in range((1 << f.scope) + 2):
        assert threshold_check(f, bound) == (count >= bound)


EDGE_SHAPES = {
    "unfolded false disjunct": Formula(And(Or(Var(1), Not(TRUE)), Var(2)), 2),
    "unfolded true conjunction": Formula(And(And(TRUE, TRUE), Var(1)), 1),
    "conjunct restricted to a conjunction": Formula(
        And(Or(Var(1), And(Var(2), Not(Var(3)))), Or(Var(3), Var(4))), 4
    ),
    "empty clause": parse_dimacs("p cnf 3 3\n1 -2 0\n0\n2 3 0\n"),
    "duplicate clauses": parse_dimacs("p cnf 3 4\n1 -2 0\n2 3 0\n1 -2 0\n1 -2 0\n"),
    "left-folded": Formula(
        reduce(And, [Or(Var(1), Var(3)), Not(Var(2)), Or(Var(2), Var(4))]), 4
    ),
    "mixed nest": Formula(
        And(
            And(Or(Var(1), Var(2)), Not(Var(3))),
            And(Var(4), And(Or(Not(Var(1)), Var(3)), Or(Var(2), Not(Var(4))))),
        ),
        4,
    ),
    "unused scope variables": Formula(And(Var(2), Or(Not(Var(5)), Var(2))), 7),
}


@pytest.mark.parametrize("f", EDGE_SHAPES.values(), ids=EDGE_SHAPES.keys())
@at_each_width
def test_edge_shapes_match_bruteforce(f):
    count = count_bruteforce(f)
    assert count_fast(f) == count
    for bound in (0, 1, count, count + 1, (1 << f.scope) + 1):
        assert threshold_check(f, bound) == _cold(f, bound) == (count >= bound)


@given(cnf_formulas(), st.data())
@at_each_width
def test_cnf_counts_and_thresholds_match_bruteforce(f, data):
    count = count_bruteforce(f)
    assert count_fast(f) == count
    drawn = data.draw(st.integers(0, (1 << f.scope) + 1))
    for bound in (1, count, count + 1, drawn):
        assert threshold_check(f, bound) == _cold(f, bound) == (count >= bound)


def test_searches_leave_no_reference_cycles():
    # with the cyclic collector off, reference counting alone must free
    # every search's memo
    f = parse_dimacs("p cnf 6 5\n1 -2 0\n2 3 -4 0\n-1 5 0\n4 6 0\n-3 -6 0\n")
    count = count_bruteforce(f)
    instance = SplitInstance(f, (5, 2), (1, 3, 4, 6))
    gc.collect()
    gc.disable()
    try:
        assert count_fast(f) == count
        assert threshold_check(f, count) and _cold(f, count)
        assert not threshold_check(f, count + 1) and not _cold(f, count + 1)
        best = max_count(instance)
        assert dmax_pruned(instance.with_bound(best.achieved)) == best
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=60)
@given(gadget_formulas(), st.data())
@at_each_width
def test_gadget_counts_and_thresholds_match_bruteforce(f, data):
    count = count_bruteforce(f)
    assert count_fast(f) == count
    drawn = data.draw(st.integers(0, (1 << f.scope) + 1))
    for bound in (0, 1, count, count + 1, drawn):
        assert threshold_check(f, bound) == _cold(f, bound) == (count >= bound)


@settings(max_examples=40)
@given(gadget_formulas(), st.data())
@at_each_width
def test_gadget_chooser_engines_match_enumeration(f, data):
    order = data.draw(st.permutations(range(1, f.scope + 1)))
    cut = data.draw(st.integers(0, f.scope))
    instance = SplitInstance(f, tuple(order[:cut]), tuple(order[cut:]))
    best = max_count(instance)
    assert dmax_decide(instance.with_bound(best.achieved)) == best
    bound = data.draw(st.integers(0, (1 << len(instance.y_vars)) + 1))
    bounded = instance.with_bound(bound)
    assert dmax_pruned(bounded) == dmax_decide(bounded)


@given(comparator_formulas(), st.data())
@at_each_width
def test_comparator_counts_and_thresholds_match_bruteforce(f, data):
    count = count_bruteforce(f)
    assert count_fast(f) == count
    drawn = data.draw(st.integers(0, (1 << f.scope) + 1))
    for bound in (1, count, count + 1, drawn):
        assert threshold_check(f, bound) == _cold(f, bound) == (count >= bound)


@given(comparators(), st.data())
@at_each_width
def test_psi_of_a_comparator_counts_its_parabola(comparator, data):
    n, c = comparator
    delta = data.draw(st.integers(0, (1 << n) >> 1))
    f = psi_gadget(less_than_const(n, c), delta)
    value = k_value(n, delta, c)
    assert count_fast(f) == value
    assert threshold_check(f, value) and _cold(f, value)
    assert not threshold_check(f, value + 1) and not _cold(f, value + 1)


def _searched(node, scope):
    # the memo that one uncapped search leaves, once its count is checked
    memo = {}
    value = count_residue(residue_of(node), 1, scope, memo, None)
    assert value == count_bruteforce(Formula(node, scope))
    return memo


@pytest.mark.usefixtures("split_only")
def test_forced_literal_is_split_first():
    # forcing the literal x2 above the lowest variable leaves the unit x3
    # next to Or(x1, x3), a residue that splitting on x1 first never meets
    memo = _searched(and_all([Or(X1, X3), X2, Or(Not(X2), X3)]), 3)
    assert residue_of(And(Or(X1, X3), X3)) in memo


@pytest.mark.usefixtures("split_only")
def test_interval_component_is_counted_alone():
    # Or(x1, x2) shares no variable with the conjuncts above it
    memo = _searched(and_all([Or(X1, X2), Or(X3, X4), Or(Not(X3), X5)]), 5)
    assert residue_of(Or(X1, X2)) in memo
    assert residue_of(And(Or(X3, X4), Or(Not(X3), X5))) in memo


@pytest.mark.usefixtures("split_only")
def test_single_negation_is_counted_as_a_complement():
    inner = Or(And(X1, X2), X3)
    memo = _searched(Not(inner), 3)
    assert residue_of(inner) in memo


@pytest.mark.usefixtures("split_only")
def test_selector_or_is_split_on_its_selector():
    # the sides pin x4 to opposite values, so the split on x4 comes before
    # the one on x1 and leaves each side alone
    low = And(Or(X1, X2), Not(X4))
    high = And(Or(X1, X3), X4)
    memo = _searched(Or(low, high), 4)
    assert residue_of(Or(X1, X2)) in memo
    assert residue_of(Or(X1, X3)) in memo


@pytest.mark.usefixtures("split_only")
def test_lone_or_is_split_on_its_top_literal():
    # the split on x3 sets the literal side and leaves the lower side as it
    # is, where a split on x1 would rebuild it
    memo = _searched(Or(Not(X3), Or(X1, X2)), 3)
    assert residue_of(Or(X1, X2)) in memo


@pytest.mark.usefixtures("split_only")
def test_false_side_leaves_the_selector_of_the_other():
    # the right side is false, as the comparator of psi_gadget(f, 0) is, so
    # the literal not x3 of the left side selects on its own
    low = And(Or(X1, X2), Not(X3))
    high = And(And(X2, FALSE), X3)
    memo = _searched(Or(low, high), 3)
    assert residue_of(Or(X1, X2)) in memo


@pytest.mark.usefixtures("split_only")
def test_forced_run_sets_its_literals_at_once():
    # x2 and x3 are forced by one restriction: the residue after both is
    # searched, the one after x2 alone never is
    rest = Or(Not(X2), Or(Not(X3), Or(X1, X5)))
    memo = _searched(and_all([Or(X1, X4), X2, X3, rest]), 5)
    assert residue_of(And(Or(X1, X4), Or(X1, X5))) in memo
    after_x2 = and_all([Or(X1, X4), X3, Or(Not(X3), Or(X1, X5))])
    assert residue_of(after_x2) not in memo


def _calls(monkeypatch, name):
    # the calls made from now on to the counting module's function name
    calls = []
    real = getattr(dmaxsat.counting, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dmaxsat.counting, name, counted)
    return calls


def _chain(low, high):
    # x_low -> ... -> x_high with (x_low or x_high): high - low + 1 models
    # over low..high, one per first true variable
    links = [Or(Not(Var(i)), Var(i + 1)) for i in range(low, high)]
    return and_all([*links, Or(Var(low), Var(high))])


def _span(residue):
    # the lowest and the highest variable of a nonempty residue
    return residue[0].min_var, max(c.max_var for c in residue)


def _cnf(w):
    # a random 3-CNF over x1..xw, seeded by w
    return parse_dimacs(random_3cnf(random.Random(w), w, 3.0).text()).node


@pytest.mark.parametrize(
    "shape, extra",
    [(partial(_chain, 1), 0), (partial(_chain, 1), 1), (_cnf, 0), (_cnf, 1)],
    ids=["TABLE_WIDTH", "TABLE_WIDTH + 1", "3-CNF, TABLE_WIDTH", "3-CNF, TABLE_WIDTH + 1"],
)
def test_only_a_residue_within_the_table_width_is_counted_from_its_table(
    monkeypatch, shape, extra
):
    # a chain or a random 3-CNF spanning x1..xw is counted outright, from
    # one table with no restriction and one memo entry, when w is the table
    # width; one variable more is split
    w = dmaxsat.counting.TABLE_WIDTH + extra
    node = shape(w)
    residue = residue_of(node)
    assert _span(residue) == (1, w)
    tables = _calls(monkeypatch, "_table_count")
    restricts = _calls(monkeypatch, "restrict_residue")
    memo = {}
    count = count_residue(residue, 1, w, memo, None)
    assert count == count_bruteforce(Formula(node, w))
    if extra:
        assert restricts and len(memo) > 1
    else:
        assert len(tables) == 1 and restricts == [] and list(memo) == [residue]


CONSTANT_LEAVES = {
    "true under and": Or(X2, And(TRUE, X3)),
    "false under or": And(Or(FALSE, X1), Not(And(X2, Not(FALSE)))),
    "false subtree": Or(And(X1, FALSE), Not(Or(TRUE, X2))),
    "true subtree": And(Or(X1, Not(And(FALSE, TRUE))), Or(Not(X3), X2)),
}


@pytest.mark.parametrize("node", CONSTANT_LEAVES.values(), ids=CONSTANT_LEAVES.keys())
def test_table_reads_constants_inside_trees(node):
    f = Formula(node, 4)
    memo = {}
    assert count_residue(residue_of(node), 1, 4, memo, None) == count_bruteforce(f)
    assert len(memo) == 1


def test_table_walks_a_shared_subtree_once():
    # a tower of 60 And(g, g) has 2**60 leaves written out and 61 distinct
    # nodes; under Not it is one conjunct, counted from one table
    g = Or(X1, Not(X2))
    for _ in range(60):
        g = And(g, g)
    f = Formula(Not(g), 3)
    assert count_fast(f) == 2
    assert threshold_check(f, 2) and not threshold_check(f, 3)


def test_table_above_the_lowest_variable_scales_to_the_scope():
    # a residue on x3..x7 of scope 12: its entry is its count over 3..12,
    # and thresholds at 0, 1, the count and one above it are exact
    f = Formula(Formula(_chain(1, 5), 5).shift(2).node, 12)
    count = count_bruteforce(f)
    assert count == 5 << 7
    memo = {}
    assert count_residue(residue_of(f.node), 1, 12, memo, None) == count
    assert memo == {residue_of(f.node): count >> 2}
    for bound in (0, 1, count, count + 1):
        assert threshold_check(f, bound) == _cold(f, bound) == (count >= bound)
    false = Formula(And(Or(X3, X4), And(Not(X3), Not(X4))), 12)
    for bound in (0, 1):
        assert threshold_check(false, bound) == _cold(false, bound) == (bound == 0)


def test_threshold_after_a_count_on_a_table_reads_the_root(monkeypatch):
    f = Formula(_chain(2, 8), 9)
    count = count_fast(f)
    assert count == 7 << 2
    tables = _calls(monkeypatch, "_table_count")
    restricts = _calls(monkeypatch, "restrict_residue")
    copy = parse_circuit(print_circuit(f))
    assert threshold_check(copy, count) and not threshold_check(copy, count + 1)
    assert tables == restricts == []


def test_chooser_search_counts_its_y_block_from_tables(monkeypatch):
    # with the chooser block set, each residue over the y block of
    # TABLE_WIDTH variables is counted from its table
    w = dmaxsat.counting.TABLE_WIDTH
    f = parse_dimacs(random_3cnf(random.Random(5), 4 + w, 2.0).text())
    instance = SplitInstance(f, (1, 2, 3, 4), tuple(range(5, 5 + w)))
    tables = _calls(monkeypatch, "_table_count")
    best = max_count(instance)
    assert tables
    bounded = instance.with_bound(best.achieved)
    assert dmax_decide(bounded) == best == dmax_pruned(bounded)
    above = instance.with_bound(best.achieved + 1)
    assert dmax_decide(above) is None is dmax_pruned(above)


def test_deep_negation_nest_is_one_table():
    # 3000 nested Not over x1: one walk on an explicit stack and one entry,
    # where the search would open one complement per level
    nest = X1
    for _ in range(3000):
        nest = Not(nest)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        memo = {}
        assert count_residue(residue_of(nest), 1, 2, memo, None) == 2
        assert len(memo) == 1
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("n", [13, 14, 15])
@at_each_width
def test_seeded_formulas_above_the_table_width_match_the_oracles(n):
    # scope 13..15: the search splits the top variables and reaches tables
    # below them (with tables on), or splits down to its leaves (off)
    rng = random.Random(n)
    cnf = parse_dimacs(random_3cnf(rng, n, 3.0).text())
    for f in (cnf, random_formula(rng, n, 3 * n)):
        count = count_bruteforce(f)
        assert count_fast(f) == count
        for bound in (1, count, count + 1):
            assert threshold_check(f, bound) == _cold(f, bound) == (count >= bound)
        instance = SplitInstance(f, (1, n, 2), tuple(range(3, n)))
        best = max_count(instance)
        assert dmax_decide(instance.with_bound(best.achieved)) == best
        for bound in (best.achieved, best.achieved + 1):
            bounded = instance.with_bound(bound)
            assert dmax_pruned(bounded) == dmax_decide(bounded)


# a residue of one conjunct over x1..x3, and near misses of its copy on
# x4..x6: (tree, whether it is the copy shifted by 3)
SHIFTED = Or(And(X1, Not(X2)), Or(X2, X3))
NEAR_MISSES = {
    "shifted copy": (lambda: Or(And(Var(4), Not(Var(5))), Or(Var(5), Var(6))), True),
    "one gap changed": (lambda: Or(And(Var(4), Not(Var(6))), Or(Var(5), Var(6))), False),
    "one literal flipped": (lambda: Or(And(Var(4), Var(5)), Or(Var(5), Var(6))), False),
    "a constant leaf": (lambda: Or(And(Var(4), Not(Var(5))), Or(FALSE, Var(6))), False),
    "a different width": (lambda: Or(And(Var(4), Not(Var(5))), Or(Var(5), Var(7))), False),
}


def _forge(node, like):
    # gives every operator of node the hash of like's operator at the same
    # place, as a hash collision would, so only the walk can tell them apart
    stack = [(node, like)]
    while stack:
        x, y = stack.pop()
        if type(x) in (Not, And, Or) and type(y) is type(x):
            x.hash_ = y.hash_
            if type(x) is Not:
                stack.append((x.child, y.child))
            else:
                stack += ((x.left, y.left), (x.right, y.right))
    return node


def _beside_its_complement(name, forged):
    # And(f, Not(g)): the parts f and Not(g), and the complement's child g;
    # forged hashes make g collide with f in the memo's dict buckets
    build, copy = NEAR_MISSES[name]
    g = _forge(build(), SHIFTED) if forged else build()
    assert (g == Formula(SHIFTED, 3).shift(3).node) == copy
    return And(SHIFTED, Not(g)), 7, [(SHIFTED,), (Not(g),), (g,)]


def _beside_its_copy():
    # the parts f and its copy on x4..x6
    copy = Formula(SHIFTED, 3).shift(3).node
    return And(SHIFTED, copy), 6, [(SHIFTED,), (copy,)]


def _psi(delta):
    # the parts f and the selector's Or, and the complement's child: the
    # mirror of f on x4..x6
    f = Formula(SHIFTED, 3)
    psi = psi_gadget(f, delta)
    return psi.node, psi.scope, [(SHIFTED,), (psi.node.right,), (f.shift(3).node,)]


ONE_MEMO_CASES = {
    **{
        f"{name}-{'forged hashes' if forged else 'hashed'}": partial(
            _beside_its_complement, name, forged
        )
        for name in NEAR_MISSES
        for forged in (False, True)
    },
    "beside its copy": _beside_its_copy,
    **{f"psi delta {delta}": partial(_psi, delta) for delta in range(5)},
}


@pytest.mark.parametrize("case", ONE_MEMO_CASES.values(), ids=ONE_MEMO_CASES)
@pytest.mark.usefixtures("split_only")
def test_one_memo_holds_copies_and_near_misses(case):
    # every complement's child and component part is searched as a residue
    # of the one memo, a shifted copy too, and every count stays exact,
    # capped or not
    node, scope, parts = case()
    f = Formula(node, scope)
    count = count_bruteforce(f)
    assert count_fast(f) == count
    assert threshold_check(f, count)
    assert not threshold_check(f, count + 1)
    for cap in (count, count + 1):
        assert count_residue(residue_of(node), 1, scope, {}, cap) == count
    memo = _searched(node, scope)
    for part in parts:
        assert part in memo


@settings(max_examples=60)
@given(formulas(max_scope=4), st.data())
@at_each_width
def test_shifted_copies_count_and_threshold_match_bruteforce(f, data):
    # a formula beside its shifted copy or its complement, the psi gadget
    # at a drawn delta, and pack_many with repeated operands all meet
    # shifted copies of one residue, whose hashes collide in the memo
    n = f.scope
    copy = f.shift(n).node
    repeated = data.draw(st.lists(st.sampled_from([f, f.negate()]), min_size=2, max_size=3))
    shapes = [
        Formula(And(f.node, Not(copy)), 2 * n),
        Formula(And(f.node, copy), 2 * n),
        psi_gadget(f, data.draw(st.integers(0, (1 << n) >> 1))),
        pack_many(repeated),
    ]
    for g in shapes:
        count = count_bruteforce(g)
        assert count_fast(g) == count
        assert threshold_check(g, count) and _cold(g, count)
        assert not threshold_check(g, count + 1) and not _cold(g, count + 1)


def test_caps_still_cut_the_search():
    cnf = random_3cnf(random.Random(1), 24, 3.0)
    residue = residue_of(parse_dimacs(cnf.text()).node)
    capped, exact = {}, {}
    count = count_residue(residue, 1, 24, exact, None)
    assert count > 0
    assert count_residue(residue, 1, 24, capped, 1) >= 1
    assert len(capped) < len(exact)


@pytest.mark.usefixtures("split_only")
def test_chooser_literal_is_forced_without_a_split():
    # with x1 and x2 maximized, the literal x2 is forced at x1 and leaves
    # the unit x3 next to Or(x1, x3); a split on x1 first would search the
    # residue after x1 = False instead. Tables off: the root is one table
    node = and_all([Or(X1, X3), X2, Or(Not(X2), X3)])
    memo = {}
    assert count_residue(residue_of(node), 1, 3, memo, None, 2) == 1
    assert residue_of(And(Or(X1, X3), X3)) in memo
    assert residue_of(and_all([X2, Or(Not(X2), X3), X3])) not in memo


@pytest.mark.usefixtures("split_only")
def test_capped_chooser_residue_keeps_a_lower_bound():
    # x1 and x2 maximized: under cap 1 the branch x1 = False reaches the
    # cap, and its residue keeps the lower bound 1, stored as -1; a search
    # under the same cap reads it, and an uncapped one stores the exact value.
    # Tables off: the root is one table, which stores no lower bound
    memo = {}
    assert count_residue(residue_of(And(Or(X1, X3), Or(X2, X3))), 1, 3, memo, 1, 2) == 1
    low = residue_of(And(Or(X2, X3), X3))
    assert memo[low] == -1
    entries = dict(memo)
    assert count_residue(low, 2, 3, memo, 1, 2) == 1
    assert memo == entries
    assert count_residue(low, 2, 3, memo, None, 2) == 1
    assert memo[low] == 1


def _against_the_reference(instance):
    # max_count and dmax_pruned against dmax_decide at the best and one
    # above it, which shows the best is the maximum; returns the best
    best = max_count(instance)
    bounded = instance.with_bound(best.achieved)
    assert dmax_decide(bounded) == best == dmax_pruned(bounded)
    above = instance.with_bound(best.achieved + 1)
    assert dmax_decide(above) is None is dmax_pruned(above)
    return best.achieved


# random trees over x_low..x_top under the chooser block x1..xk of a scope:
# (low, top, k, scope). The last two span the full table width, every
# variable a chooser or the block ending half way
W = dmaxsat.counting.TABLE_WIDTH
CHOOSER_TABLES = {
    "top < k": (1, 3, 5, 6),
    "top == k": (1, 4, 4, 6),
    "top > k": (1, 6, 3, 8),
    "above x1, top > k": (3, 8, 4, 9),
    "above x1, top < k": (2, 4, 6, 6),
    "full width, all choosers": (1, W, W, W + 1),
    "full width, above x1, top > k": (2, W + 1, W // 2, W + 2),
}


@pytest.mark.parametrize("shape", CHOOSER_TABLES.values(), ids=CHOOSER_TABLES.keys())
@at_each_width
def test_chooser_block_tables_match_the_reference(shape):
    # a residue starting in the chooser block and spanning at most
    # TABLE_WIDTH variables is one table, maximized over its chooser
    # variables; one above top adds no factor two. The value is the
    # reference's best, and the root's entry is exact under any cap. Some
    # of the drawn trees span all of x_low..x_top
    low, top, k, scope = shape
    rng = random.Random(top * 10 + k)
    spanning = 0
    for _ in range(25):
        node = random_formula(rng, top - low + 1, 14).shift(low - 1).node
        f = Formula(node, scope)
        instance = SplitInstance(f, tuple(range(1, k + 1)), tuple(range(k + 1, scope + 1)))
        best = _against_the_reference(instance)
        residue = residue_of(node)
        spanning += bool(residue) and _span(residue) == (low, top)
        for cap in (None, 1, best, best + 1):
            memo = {}
            value = count_residue(residue, 1, scope, memo, cap, k)
            assert (value == best) if cap is None or best < cap else (value >= cap)
            if residue and dmaxsat.counting.TABLE_WIDTH:
                v = residue[0].min_var
                assert memo == {residue: best >> max(v - k - 1, 0)}
    assert spanning


def test_lower_bound_is_replaced_by_the_exact_table_value(monkeypatch):
    # x1 and x2 maximized: with tables off, cap 1 leaves the lower bound -1
    # for the root and for the branch x1 = False. With tables on, the same
    # cap reads the bounds, and a search the bounds do not answer, uncapped
    # or capped above them, counts the residue from its table and stores
    # the exact value in place of the bound
    root = residue_of(And(Or(X1, X3), Or(X2, X3)))
    low = residue_of(And(Or(X2, X3), X3))
    memo = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dmaxsat.counting, "TABLE_WIDTH", 0)
        assert count_residue(root, 1, 3, memo, 1, 2) == 1
    assert memo[root] == memo[low] == -1
    tables = _calls(monkeypatch, "_table_count")
    assert count_residue(root, 1, 3, memo, 1, 2) == 1
    assert count_residue(low, 2, 3, memo, 1, 2) == 1
    assert tables == []
    assert count_residue(low, 2, 3, memo, None, 2) == 1
    assert memo[low] == 1
    assert count_residue(root, 1, 3, memo, 2, 2) == 2
    assert memo[root] == 2
    assert [args[1:] for args in tables] == [(2, 2, 1), (1, 3, 2)]
    instance = SplitInstance(Formula(And(Or(X1, X3), Or(X2, X3)), 3), (1, 2), (3,))
    assert _against_the_reference(instance) == 2


@at_each_width
def test_twelve_choosers_meet_tables_inside_the_block():
    # |x| = 12 > TABLE_WIDTH over a scope of 14: the root is too wide for a
    # table, so tables first appear part way down the chooser block, each
    # maximized over the choosers it spans (none with tables off)
    f = parse_dimacs(random_3cnf(random.Random(12), 14, 2.0).text())
    rng = random.Random(12)
    order = rng.sample(range(1, 15), 14)
    instance = SplitInstance(f, tuple(order[:12]), tuple(sorted(order[12:])))
    calls = []
    real = dmaxsat.counting._table_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            dmaxsat.counting, "_table_count", lambda *args: calls.append(args) or real(*args)
        )
        best = _against_the_reference(instance)
    assert best > 0
    in_block = [(v, m) for _, v, _, m in calls if m > 0]
    assert bool(in_block) == bool(dmaxsat.counting.TABLE_WIDTH)
    assert all(1 < v <= 12 for v, _ in in_block)


def test_caps_cut_the_chooser_search():
    # x1..x8 maximized: a search capped at the best stops at a choice that
    # reaches it, and one capped above the best stays exact
    cnf = random_3cnf(random.Random(0), 20, 2.5)
    residue = residue_of(parse_dimacs(cnf.text()).node)
    capped, exact = {}, {}
    best = count_residue(residue, 1, 20, exact, None, 8)
    assert best > 0
    assert count_residue(residue, 1, 20, capped, best, 8) >= best
    assert len(capped) < len(exact)
    assert count_residue(residue, 1, 20, {}, best + 1, 8) == best


def test_cnf_clauses_build_no_selector_residues(monkeypatch):
    # a clause of three literals has an Or as one side, which selects
    # nothing, so the decision skips it without building residues
    cnf = random_3cnf(random.Random(1), 12, 3.0)
    residue = residue_of(parse_dimacs(cnf.text()).node)
    calls = []

    def counted(node):
        calls.append(node)
        return residue_of(node)

    monkeypatch.setattr(dmaxsat.counting, "residue_of", counted)
    v = residue[0].min_var
    assert _decision(residue, v) == v
    assert calls == []


def test_deep_input_is_counted_without_recursion():
    # the search and the restriction of a long chain's flat residue run on
    # explicit stacks; a deep negation nest over a residue too wide for one
    # table is counted as nested complements, one memo entry per level
    n = 1500
    links = "".join(f"-{i} {i + 1} 0\n" for i in range(1, n))
    chain = parse_dimacs(f"p cnf {n} {n - 1}\n{links}")
    w = dmaxsat.counting.TABLE_WIDTH + 2
    nest = Or(X1, Var(w))
    for _ in range(3000):
        nest = Not(nest)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for f, count in ((chain, n + 1), (Formula(nest, w), 3 << (w - 2))):
            assert count_fast(f) == count
            assert not threshold_check(f, count + 1) and not _cold(f, count + 1)
            assert _cold(f, count)
        assert len(dmaxsat.counting._last[2]) > 3000
    finally:
        sys.setrecursionlimit(limit)


def test_deep_comparator_is_counted_without_recursion():
    # forced runs set a comparator's leading literals at once and each lone
    # Or is split on its top literal, so no restriction or memo lookup walks
    # the chain
    dense = random.Random(9).getrandbits(3000)
    comparators = [(less_than_const(3000, c), c) for c in (12345, dense)]
    psi = psi_gadget(less_than_const(1500, 12345), 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for f, count in comparators:
            assert count_fast(f) == count
            assert threshold_check(f, count) and _cold(f, count)
            assert not threshold_check(f, count + 1) and not _cold(f, count + 1)
        assert threshold_check(psi, 1) and _cold(psi, 1)
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=60)
@given(deep_formulas())
@at_each_width
def test_deep_formulas_count_and_threshold_match_bruteforce(f):
    # long chains and negation nests open deep stacks of searches: long
    # runs of splits, and one complement per Not
    count = count_bruteforce(f)
    assert count_fast(f) == count
    assert threshold_check(f, count) and _cold(f, count)
    assert not threshold_check(f, count + 1) and not _cold(f, count + 1)


@settings(max_examples=25)
@given(deep_formulas(max_depth=10_000), st.data())
def test_formulas_deeper_than_the_recursion_limit_match_the_oracles(f, data):
    # seeded chains and nests reach depth 10,000 here, past a recursion
    # limit of 1000: restrictions and evaluations fall back to walks on an
    # explicit stack
    order = data.draw(st.permutations(range(1, f.scope + 1)))
    k = data.draw(st.integers(0, f.scope))
    instance = SplitInstance(f, tuple(order[:k]), tuple(order[k:]), None)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        count = count_bruteforce(f)
        assert count_fast(f) == count
        assert threshold_check(f, count) and not threshold_check(f, count + 1)
        best = max_count(instance)
        assert dmax_decide(instance.with_bound(best.achieved)) == best
        assert dmax_decide(instance.with_bound(best.achieved + 1)) is None
    finally:
        sys.setrecursionlimit(limit)


def test_nest_and_chain_with_the_chooser_innermost_are_solved_in_process():
    # x1 at the bottom of a 10,000-deep negation nest, and innermost in a
    # 10,000-link alternating chain: every engine restricts it there. The
    # chain's counts under x1 = 0 and x1 = 1 differ by one, so x1 = 1 is
    # the best chooser, with (models + 1) / 2 models
    nest = Or(X1, X2)
    for _ in range(10_000):
        nest = Not(nest)
    nest = Formula(nest, 2)
    n = 10_000
    chain, models = X1, 1
    for i in range(2, n + 1):
        chain = Or(Var(i), chain) if i % 2 else And(Var(i), chain)
        models += (1 << (i - 1)) if i % 2 else 0
    chain = Formula(chain, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for f, best in ((nest, Witness((True,), 2)), (chain, Witness((True,), (models + 1) // 2))):
            instance = SplitInstance(f, (1,), tuple(range(2, f.scope + 1)), None)
            assert max_count(instance, limit=n) == best
            bounded = instance.with_bound(best.achieved)
            assert dmax_decide(bounded, limit=n) == best == dmax_pruned(bounded, limit=n)
            above = instance.with_bound(best.achieved + 1)
            assert dmax_decide(above, limit=n) is None is dmax_pruned(above, limit=n)
        assert count_bruteforce(nest) == 3 == count_fast(nest)
        assert [nest.evaluate((x1, False)) for x1 in (False, True)] == [False, True]
        assert count_fast(chain) == models
        assert threshold_check(chain, models) and not threshold_check(chain, models + 1)
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=80)
@given(st.lists(formulas(max_scope=5), min_size=1, max_size=3), st.data())
@at_each_width
def test_kept_memo_answers_every_sequence_exactly(fs, data):
    # count_fast, threshold_check, max_count and dmax_pruned in a drawn
    # order over a few formulas, their equal parses, the same node under one
    # more scope variable and a shifted copy, each split at a drawn chooser
    # block (moved with the copy) and at the empty one: every answer is
    # exact, whatever memo the slot holds
    shapes = []
    for f in fs:
        d = data.draw(st.integers(1, 3))
        order = data.draw(st.permutations(range(1, f.scope + 1)))
        xs = tuple(order[: data.draw(st.integers(0, f.scope))])
        copies = (f, 0), (parse_circuit(print_circuit(f)), 0), (Formula(f.node, f.scope + 1), 0)
        for g, offset in (*copies, (f.shift(d), d)):
            splits = []
            for chooser in (tuple(v + offset for v in xs), ()):
                rest = tuple(v for v in range(1, g.scope + 1) if v not in chooser)
                splits.append(SplitInstance(g, chooser, rest))
            shapes.append((g, count_bruteforce(g), splits))
    for _ in range(data.draw(st.integers(1, 12))):
        g, count, splits = data.draw(st.sampled_from(shapes))
        engine = data.draw(st.sampled_from(["count", "max_count", "dmax_pruned"]))
        if engine == "count":
            top = (1 << g.scope) + 1
            bound = data.draw(
                st.one_of(st.none(), st.sampled_from([count, count + 1]), st.integers(0, top))
            )
            if bound is None:
                assert count_fast(g) == count
            else:
                assert threshold_check(g, bound) == (count >= bound)
            continue
        instance = data.draw(st.sampled_from(splits))
        if engine == "max_count":
            best = max_count(instance)
            bounded = instance.with_bound(best.achieved)
            assert dmax_decide(bounded) == best
            assert dmax_decide(bounded.with_bound(best.achieved + 1)) is None
        else:
            bound = data.draw(st.integers(0, (1 << len(instance.y_vars)) + 1))
            bounded = instance.with_bound(bound)
            assert dmax_pruned(bounded) == dmax_decide(bounded)


def test_threshold_after_a_count_reads_the_root(monkeypatch):
    # thresholds on an equal, separately parsed copy of the formula last
    # counted are answered by the kept memo's root entry: no restriction
    # and no table
    cnf = random_3cnf(random.Random(1), 12, 3.0)
    f = parse_dimacs(cnf.text())
    count = count_fast(f)
    assert count > 0
    tables = _calls(monkeypatch, "_table_count")
    restricts = _calls(monkeypatch, "restrict_residue")
    copy = parse_dimacs(cnf.text())
    assert copy.node is not f.node
    assert threshold_check(copy, count)
    assert not threshold_check(copy, count + 1)
    assert tables == restricts == []
    # the same node under one more scope variable is another formula, a
    # miss that is split or counted from a table
    assert threshold_check(Formula(copy.node, 13), 2 * count)
    assert tables or restricts


def test_one_counted_memo_is_kept():
    # (x1 and x2) or not x3 has 5 models
    first = Formula(Or(And(Var(1), Var(2)), Not(Var(3))), 3)
    node = first.node
    refs = sys.getrefcount(node)
    assert count_fast(first) == 5
    assert sys.getrefcount(node) > refs  # held while it is the last formula
    assert threshold_check(first, 5)
    assert not threshold_check(first, 6)
    assert count_fast(Formula(Or(X1, X2), 2)) == 3
    assert sys.getrefcount(node) == refs
    formula = weakref.ref(first)
    del first
    gc.collect()
    assert formula() is None


def _assert_exact(scope, memo):
    # every entry is the exact count of its residue over min_var..scope
    for residue, value in memo.items():
        whole = count_bruteforce(Formula(and_all(list(residue)), scope))
        assert value == whole >> (residue[0].min_var - 1)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("stop, capped", [(0, False), (3, True), (10, False), (30, True)])
@pytest.mark.usefixtures("split_only")
def test_interrupted_search_leaves_an_exact_memo(monkeypatch, stop, capped):
    # a search stopped by an exception keeps the slot it filled: a count
    # and thresholds on an equal copy then reuse its memo, exactly
    cnf = random_3cnf(random.Random(2), 8, 3.0)
    f = parse_dimacs(cnf.text())
    count = count_bruteforce(f)
    assert count_fast(Formula(TRUE, 0)) == 1
    calls = []
    real = dmaxsat.counting.restrict_residue

    def failing(*args):
        if len(calls) == stop:
            raise _Stop
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dmaxsat.counting, "restrict_residue", failing)
    with pytest.raises(_Stop):
        if capped:
            threshold_check(f, count + 1)
        else:
            count_fast(f)
    monkeypatch.undo()
    (scope, chooser, node), held, memo = dmaxsat.counting._last
    assert (scope, chooser, node, held) == (8, (), f.node, residue_of(f.node))
    _assert_exact(scope, memo)
    copy = parse_dimacs(cnf.text())
    assert threshold_check(copy, count)
    assert not threshold_check(copy, count + 1)
    assert count_fast(copy) == count
    assert dmaxsat.counting._last[2] is memo


@pytest.mark.usefixtures("split_only")
def test_capped_calls_keep_only_exact_entries():
    # a k = 0 memo never holds the negative lower bounds of the chooser
    # search: thresholds below, at and above the count store exact values.
    # The formula spans eight variables, so tables are off for the capped
    # searches to run at all
    cnf = random_3cnf(random.Random(3), 8, 3.0)
    f = parse_dimacs(cnf.text())
    count = count_bruteforce(f)
    for bound in (1, count // 2, count + 1, count, 1 << 7):
        assert threshold_check(f, bound) == (count >= bound)
    (scope, _, _), _, memo = dmaxsat.counting._last
    assert len(memo) > 1
    assert min(memo.values()) >= 0
    _assert_exact(scope, memo)
