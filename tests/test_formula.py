"""Formula trees: evaluation, size, shift, scopes, structural equality."""

import copy
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dmaxsat import (
    FALSE,
    TRUE,
    And,
    Formula,
    Not,
    Or,
    ScopeError,
    Var,
    and_all,
    less_than_const,
    or_all,
    parse_circuit,
    print_circuit,
)
import dmaxsat
from dmaxsat.formula import _Const

from strategies import deep_formulas, formulas


def test_evaluate_truth_table_basics():
    conj = Formula(And(Var(1), Var(2)), 2)
    assert conj.evaluate([True, True]) is True
    assert conj.evaluate([True, False]) is False

    contradiction = Formula(And(Var(1), Not(Var(1))), 1)
    assert contradiction.evaluate([True]) is False
    assert contradiction.evaluate([False]) is False

    disj = Formula(Or(Var(1), Var(2)), 3)
    assert disj.evaluate([False, True, False]) is True
    assert disj.evaluate([False, False, True]) is False


def test_evaluate_rejects_wrong_length():
    f = Formula(Var(1), 2)
    with pytest.raises(ScopeError):
        f.evaluate([True])
    with pytest.raises(ScopeError):
        f.evaluate([True, False, True])


def test_size_counts_operators_only():
    assert Formula(Var(1), 1).size() == 0
    assert Formula(Not(Var(1)), 1).size() == 1
    assert Formula(And(Or(Var(1), Not(Var(2))), Var(3)), 3).size() == 3
    assert Formula(TRUE, 4).size() == 0


@given(formulas(max_scope=5), formulas(max_scope=5))
def test_size_is_monotone_under_composition(f, g):
    assert And(f.node, g.node).ops == f.size() + g.size() + 1
    assert Or(f.node, g.node).ops == f.size() + g.size() + 1
    assert Not(f.node).ops == f.size() + 1


def test_shift_examples():
    assert Formula(Var(1), 1).shift(2) == Formula(Var(3), 3)
    f = Formula(Or(Var(1), Var(2)), 2)
    assert f.shift(0) == f
    assert Formula(Not(Var(2)), 2).shift(3) == Formula(Not(Var(5)), 5)


def _same_shape(a, b, offset):
    if type(a) is not type(b):
        return False
    if type(a) is _Const:
        return a.value == b.value
    if type(a) is Var:
        return b.index == a.index + offset
    if type(a) is Not:
        return _same_shape(a.child, b.child, offset)
    return _same_shape(a.left, b.left, offset) and _same_shape(a.right, b.right, offset)


@given(formulas(max_scope=6), st.integers(0, 5))
def test_shift_preserves_size_and_shape(f, offset):
    shifted = f.shift(offset)
    assert shifted.size() == f.size()
    assert shifted.scope == f.scope + offset
    assert _same_shape(f.node, shifted.node, offset)


def test_shift_keeps_shared_subtrees_shared():
    shared = Or(Var(1), Not(Var(2)))
    node = Formula(And(shared, Or(Var(3), shared)), 3).shift(2).node
    assert node.left is node.right.right
    assert node.left == Or(Var(3), Not(Var(4))) and node.right.left == Var(5)
    # the second parent is reached only after the shared subtree is copied
    node = Formula(And(Or(Var(3), shared), Or(Not(Var(3)), shared)), 3).shift(2).node
    assert node.left.right is node.right.right


def test_shift_handles_deep_trees():
    # the comparator over 1500 variables nests 1500 operators deep
    shifted = less_than_const(1500, (1 << 1500) // 3).shift(7)
    assert shifted.scope == 1507
    node = shifted.node
    assert (node.ops, node.min_var, node.max_var) == (3000, 8, 1507)


def test_shift_rejects_negative_offset():
    with pytest.raises(ScopeError):
        Formula(Var(1), 1).shift(-1)


def test_scope_validation():
    with pytest.raises(ScopeError):
        Formula(Var(3), 2)
    with pytest.raises(ScopeError):
        Formula(TRUE, -1)
    with pytest.raises(ScopeError):
        Var(0)
    # scope may exceed the highest occurring variable
    Formula(Var(1), 10)


def test_structural_equality_and_hash():
    a = Formula(And(Var(1), Not(Var(2))), 2)
    b = Formula(And(Var(1), Not(Var(2))), 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Formula(And(Var(1), Not(Var(2))), 3)
    assert a != Formula(And(Not(Var(2)), Var(1)), 2)


def test_formula_contract():
    node = And(Var(1), Not(Var(2)))
    f = Formula(node, 3)
    assert (f.node, f.scope) == (node, 3)
    assert Formula(scope=3, node=node) == f
    with pytest.raises(ScopeError, match=r"^scope must be nonnegative, got -1$"):
        Formula(TRUE, -1)
    with pytest.raises(ScopeError, match=r"^variable x2 exceeds declared scope 1$"):
        Formula(node, 1)

    text = "(scope 3) (and x1 (not x2))"
    same, other = parse_circuit(text), parse_circuit("(scope 3) (and x1 (not x3))")
    assert same == f and hash(same) == hash(f) and same.node is not node
    assert other != f and not other == f
    assert Formula(node, 2) != f
    assert f != (node, 3) and (node, 3) != f
    assert repr(f) == "Formula(node=And(x1, Not(x2)), scope=3)"

    for name in ("node", "scope", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert (f.node, f.scope) == (node, 3)

    ref = weakref.ref(f)
    assert ref() is f
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(twin) is Formula and twin == f and hash(twin) == hash(f)


@given(formulas(max_scope=6), st.integers(0, 5))
def test_hashes_ignore_a_shift(f, offset):
    assert hash(f.shift(offset).node) == hash(f.node)


def test_equality_stays_absolute_across_equal_hashes():
    x1, x2, x3 = Var(1), Var(2), Var(3)
    assert hash(x1) == hash(x2) and x1 != x2
    assert hash(And(x1, x2)) == hash(And(x2, x3))
    assert And(x1, x2) != And(x2, x3)
    assert Or(x1, Not(x2)) != Or(x2, Not(x3))
    assert Not(Or(x1, x2)) != Not(Or(x2, x3))
    # the hash holds the gap between the children's lowest variables, and
    # a fixed stand-in for it beside a constant
    assert hash(And(x1, x2)) != hash(And(x1, x3))
    assert hash(And(x1, TRUE)) == hash(And(x2, TRUE))
    assert And(x1, TRUE) != And(x2, TRUE)
    # a hash collision at equal min_var: only the walk tells them apart
    a, b = Or(x1, Not(x2)), Or(x1, Not(x3))
    b.hash_ = a.hash_
    assert a != b and not a == b


def _text(node, scope):
    return print_circuit(Formula(node, scope))


@given(
    formulas(max_scope=6) | deep_formulas(max_scope=6, max_depth=60),
    formulas(max_scope=6) | deep_formulas(max_scope=6, max_depth=60),
    st.booleans(),
)
def test_equality_is_equal_circuit_text(f, g, copy):
    # b is either drawn on its own or a fresh parse of a's text; a and b are
    # equal exactly when they print alike
    a = f.node
    b = parse_circuit(print_circuit(f)).node if copy else g.node
    scope = max(f.scope, g.scope)
    assert (a == b) == (_text(a, scope) == _text(b, scope))
    assert (a != b) == (not a == b)
    if copy:
        assert a == b and hash(a) == hash(b)


def _replaced(node, path, leaf):
    # node with the leaf at path (child attribute names from the top) replaced
    if not path:
        return leaf
    if path[0] == "child":
        return Not(_replaced(node.child, path[1:], leaf))
    left, right = node.left, node.right
    if path[0] == "left":
        left = _replaced(left, path[1:], leaf)
    else:
        right = _replaced(right, path[1:], leaf)
    return type(node)(left, right)


@given(formulas(max_scope=6) | deep_formulas(max_scope=6, max_depth=60), st.data())
def test_equality_confirms_a_copy_and_refuses_a_near_miss(f, data):
    # a fresh copy of the tree equals it; the tree with one leaf replaced
    # (by a gap, a literal or a constant) does not
    node = f.node
    copy = parse_circuit(print_circuit(f)).node
    assert copy == node and node == copy
    leaves, stack = [], [(node, ())]
    while stack:
        x, path = stack.pop()
        if type(x) is Not:
            stack.append((x.child, path + ("child",)))
        elif type(x) in (And, Or):
            stack += ((x.left, path + ("left",)), (x.right, path + ("right",)))
        else:
            leaves.append((x, path))
    leaf, path = data.draw(st.sampled_from(leaves))
    if type(leaf) is Var:
        misses = [Var(leaf.index + 1), Not(leaf), TRUE]
    else:
        misses = [Var(1), FALSE if leaf is TRUE else TRUE]
    for miss in misses:
        assert _replaced(copy, path, miss) != node
        assert not node == _replaced(copy, path, miss)


def test_deep_trees_compare_by_one_walk():
    # two distinct equal 100,000-deep nests, at the default recursion limit
    a, b = Or(Var(1), Var(2)), Or(Var(1), Var(2))
    for _ in range(100_000):
        a, b = Not(a), Not(b)
    assert a is not b and a == b and not a != b


def test_fold_helpers():
    items = [Var(1), Var(2), Var(3)]
    assert and_all(items) == And(Var(1), And(Var(2), Var(3)))
    assert or_all(items) == Or(Var(1), Or(Var(2), Var(3)))
    assert and_all([]) == TRUE
    assert or_all([]) == FALSE
    assert and_all([Var(2)]) == Var(2)


def _truth_table_eval(node, values):
    kind = type(node)
    if kind is _Const:
        return node.value
    if kind is Var:
        return values[node.index]
    if kind is Not:
        return not _truth_table_eval(node.child, values)
    if kind is And:
        return _truth_table_eval(node.left, values) and _truth_table_eval(
            node.right, values
        )
    return _truth_table_eval(node.left, values) or _truth_table_eval(node.right, values)


@given(formulas(max_scope=4))
def test_evaluate_matches_truth_table_recomputation(f):
    for mask in range(1 << f.scope):
        assignment = [bool((mask >> i) & 1) for i in range(f.scope)]
        values = {i + 1: assignment[i] for i in range(f.scope)}
        assert f.evaluate(assignment) == _truth_table_eval(f.node, values)


@given(formulas(max_scope=6))
def test_negate_flips_every_assignment(f):
    negated = f.negate()
    for mask in range(min(1 << f.scope, 32)):
        assignment = [bool((mask >> i) & 1) for i in range(f.scope)]
        assert negated.evaluate(assignment) == (not f.evaluate(assignment))


_HASH_SCRIPT = """
from dmaxsat import FALSE, TRUE, And, Not, Or, Var, and_all
from dmaxsat.counting import residue_of
x1, x2, x3 = Var(1), Var(2), Var(3)
node = and_all(
    [Or(x1, x3), Or(Not(x1), x2), Not(And(x1, x2)), Or(x1, And(x2, TRUE)), x3]
)
print(Var(3).hash_, TRUE.hash_, FALSE.hash_)
print([c.hash_ for c in residue_of(node)])
print(residue_of(node))
"""


def test_hashes_do_not_depend_on_the_string_hash_seed():
    # residues are sorted by (min_var, hash_), so a hash that changed with
    # the per-process string-hash seed would change the search order
    src = str(Path(dmaxsat.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
