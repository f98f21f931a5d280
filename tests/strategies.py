"""Hypothesis strategies, and a runner for differential tests, shared by the
test modules."""

import functools

import hypothesis.strategies as st
import pytest

from dmaxsat import (
    FALSE,
    TRUE,
    And,
    Formula,
    Not,
    Or,
    Var,
    counting,
    less_than_const,
    pack_many,
    psi_gadget,
)
from dmaxsat.generate import folded


def nodes(max_index: int, max_leaves: int = 16) -> st.SearchStrategy:
    leaves = st.sampled_from([TRUE, FALSE])
    if max_index >= 1:
        leaves = leaves | st.integers(1, max_index).map(Var)
    return st.recursive(
        leaves,
        lambda inner: st.builds(Not, inner)
        | st.builds(And, inner, inner)
        | st.builds(Or, inner, inner),
        max_leaves=max_leaves,
    )


@st.composite
def formulas(draw, min_scope: int = 0, max_scope: int = 8) -> Formula:
    scope = draw(st.integers(min_scope, max_scope))
    return Formula(draw(nodes(scope)), scope)


@st.composite
def cnf_formulas(draw, max_scope: int = 8, max_clauses: int = 10) -> Formula:
    """CNF-shaped formulas: clauses of up to three literals, the empty clause
    among them, some clauses repeated, each clause and the conjunction
    folded to the right (and_all/or_all) or to the left."""
    scope = draw(st.integers(0, max_scope))
    literals = st.just([])
    if scope:
        literal = st.builds(
            lambda v, negated: Not(Var(v)) if negated else Var(v),
            st.integers(1, scope),
            st.booleans(),
        )
        literals = st.lists(literal, max_size=3)
    clause = st.builds(folded, st.just(Or), literals, st.booleans())
    clauses = draw(st.lists(clause, max_size=max_clauses))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
    return Formula(folded(And, clauses, draw(st.booleans())), scope)


@st.composite
def gadget_formulas(draw, max_scope: int = 11) -> Formula:
    """pack_many of one to three same-scope formulas, each sometimes negated,
    the packed formula sometimes negated and sometimes passed through
    psi_gadget with a drawn valid delta; the scope stays at most max_scope."""
    count = draw(st.integers(1, 3))
    n = draw(st.integers(0, max_scope // count - 1))
    operands = []
    for _ in range(count):
        f = draw(formulas(n, n))
        operands.append(f.negate() if draw(st.booleans()) else f)
    packed = pack_many(operands)
    if draw(st.booleans()):
        packed = packed.negate()
    if 2 * packed.scope + 1 <= max_scope and draw(st.booleans()):
        delta = draw(st.integers(0, 1 << (packed.scope - 1)))
        packed = psi_gadget(packed, delta)
    return packed


@st.composite
def comparators(draw, max_width: int = 10) -> tuple[int, int]:
    """A width n <= max_width and a constant c in 0..2**n for less_than_const."""
    n = draw(st.integers(0, max_width))
    return n, draw(st.integers(0, 1 << n))


@st.composite
def comparator_formulas(draw, max_width: int = 10) -> Formula:
    """less_than_const(n, c), sometimes negated, sometimes shifted onto a
    higher block, and sometimes conjoined with a drawn formula over its
    scope."""
    f = less_than_const(*draw(comparators(max_width)))
    if draw(st.booleans()):
        f = f.negate()
    if draw(st.booleans()):
        f = f.shift(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        f = Formula(And(f.node, draw(nodes(f.scope))), f.scope)
    return f


@st.composite
def deep_formulas(draw, max_scope: int = 10, max_depth: int = 150) -> Formula:
    """Trees up to about max_depth deep over a scope of at most max_scope: a
    chain of literals over a small drawn base, a negation nest over the
    base, or a negation nest over a chain. A chain's links alternate And and
    Or, as less_than_const's do, or are drawn. Its variables repeat along
    the chain, and they ascend from the base up (the lowest innermost),
    descend, or come in drawn order."""
    scope = draw(st.integers(1, max_scope))
    node = draw(nodes(scope, max_leaves=4))
    shape = draw(st.sampled_from(["chain", "nest", "nested chain"]))
    if shape != "nest":
        length = draw(st.integers(1, max_depth))
        variables = draw(st.lists(st.integers(1, scope), min_size=length, max_size=length))
        order = draw(st.sampled_from(["ascending", "descending", "drawn"]))
        if order != "drawn":
            variables.sort(reverse=order == "descending")
        negated = draw(st.lists(st.booleans(), min_size=length, max_size=length))
        if draw(st.booleans()):
            kinds = [(And, Or)[i % 2] for i in range(length)]
        else:
            kinds = draw(st.lists(st.sampled_from([And, Or]), min_size=length, max_size=length))
        for v, neg, kind in zip(variables, negated, kinds):
            node = kind(Not(Var(v)) if neg else Var(v), node)
    if shape != "chain":
        for _ in range(draw(st.integers(1, max_depth))):
            node = Not(node)
    return Formula(node, scope)


def at_each_width(test):
    """Run a differential test twice, each time from an empty counting slot:
    with the truth-table step off, so that every search splits down to its
    leaves, and at the default ``counting.TABLE_WIDTH``."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for width in (0, counting.TABLE_WIDTH):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(counting, "TABLE_WIDTH", width)
                patch.setattr(counting, "_last", ((), None, {}))
                test(*args, **kwargs)

    return run
