"""Seeded random generators for formulas and split instances.

Used by the selftest suites, the test suite's differential checks, and the
demo scripts. Everything draws from a caller-supplied ``random.Random`` so
runs are reproducible from the seed alone.
"""

from __future__ import annotations

import random
from functools import reduce

from .formula import FALSE, TRUE, And, Formula, Node, Not, Or, Var, and_all, or_all
from .solver import SplitInstance


def random_node(rng: random.Random, scope: int, ops: int) -> Node:
    """A tree with exactly ``ops`` operators over variables x1..x_scope."""
    if ops <= 0:
        if scope == 0 or rng.random() < 0.1:
            return TRUE if rng.random() < 0.5 else FALSE
        return Var(rng.randint(1, scope))
    pick = rng.random()
    if pick < 0.25:
        return Not(random_node(rng, scope, ops - 1))
    left_ops = rng.randint(0, ops - 1)
    left = random_node(rng, scope, left_ops)
    right = random_node(rng, scope, ops - 1 - left_ops)
    return And(left, right) if pick < 0.625 else Or(left, right)


def random_formula(rng: random.Random, scope: int, max_ops: int) -> Formula:
    """A random formula of the given scope with at most ``max_ops`` operators."""
    return Formula(random_node(rng, scope, rng.randint(0, max_ops)), scope)


def random_cnf(rng: random.Random, scope: int, clauses: int) -> Formula:
    """A CNF-shaped formula of ``clauses`` clauses over x1..x_scope.

    Clauses have one to three literals, or rarely none (the false empty
    clause, the only kind when the scope is empty); about one in ten
    repeats an earlier clause. Each clause and the conjunction are folded
    to the right (``and_all``/``or_all``) or to the left at random, so a
    counter that flattens conjunctions meets both nestings.
    """
    drawn: list[Node] = []
    for _ in range(clauses):
        if drawn and rng.random() < 0.1:
            drawn.append(rng.choice(drawn))
            continue
        width = 0 if scope == 0 or rng.random() < 0.02 else rng.randint(1, 3)
        literals = []
        for _ in range(width):
            var = Var(rng.randint(1, scope))
            literals.append(Not(var) if rng.random() < 0.5 else var)
        drawn.append(folded(Or, literals, rng.random() < 0.5))
    return Formula(folded(And, drawn, rng.random() < 0.5), scope)


def folded(kind: type[And] | type[Or], items: list[Node], to_left: bool) -> Node:
    """``items`` joined by ``kind``, nested to the left or to the right."""
    if to_left and items:
        return reduce(kind, items)
    return and_all(items) if kind is And else or_all(items)


def random_split_instance(
    rng: random.Random,
    max_total: int = 10,
    max_ops: int = 20,
) -> SplitInstance:
    """A random instance whose blocks partition a random scope of 1..max_total."""
    total = rng.randint(1, max_total)
    formula = random_formula(rng, total, max_ops)
    indices = list(range(1, total + 1))
    rng.shuffle(indices)
    cut = rng.randint(0, total)
    return SplitInstance(formula, tuple(indices[:cut]), tuple(indices[cut:]))
