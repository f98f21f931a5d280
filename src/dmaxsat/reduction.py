"""Collapsing count-equality claims into a single count-threshold query.

The pipeline has two moves. :func:`eq_to_geq` turns one claim
"count(h) = y" into a threshold query whose bound is the apex value of the
psi parabola, so the query count can never exceed the bound and reaches it
exactly when the claim is true. :func:`combine_equalities` first packs many
claims into one digit-packed claim and then applies the same move, so any
number of equality claims collapses to one threshold test.
"""

from __future__ import annotations

from typing import Sequence

from .counting import threshold_check
from .formula import Formula, _Record
from .gadgets import k_value, pack_many, psi_gadget


class EqualityQuery(_Record):
    """A claim that ``formula`` has exactly ``claimed`` models over its scope."""

    __slots__ = __match_args__ = ("formula", "claimed")

    formula: Formula
    claimed: int

    def __init__(self, formula: Formula, claimed: int) -> None:
        if not 0 <= claimed <= 1 << formula.scope:
            raise ValueError(f"claimed count {claimed} outside [0, 2**{formula.scope}]")
        super().__init__(formula, claimed)


class ThresholdQuery(_Record):
    """The canonical counting decision: does count(formula) reach bound?"""

    __slots__ = __match_args__ = ("formula", "bound")

    formula: Formula
    bound: int

    def __init__(self, formula: Formula, bound: int) -> None:
        if not 0 <= bound <= (1 << formula.scope) + 1:
            raise ValueError(f"bound {bound} outside [0, 2**{formula.scope} + 1]")
        super().__init__(formula, bound)


def split_target(n: int, y: int) -> tuple[str, int]:
    """Which side of 2**(n-1) the target y sits on, and its distance delta."""
    if n < 1:
        raise ValueError("split_target needs at least one scope variable")
    half = 1 << (n - 1)
    if y >= half:
        return "high", y - half
    return "low", half - y


def eq_to_geq(h: Formula, y: int) -> ThresholdQuery:
    """Turn the claim "count(h) = y" into an equivalent threshold query.

    With n = h.scope and delta the distance from y to 2**(n-1): targets at
    or above the midpoint apply the psi gadget to h directly, targets below
    apply it to the negation of h (whose count is 2**n - count(h), landing
    the rewritten target back at 2**(n-1) + delta). Either way the bound is
    the parabola's apex value, so

        count(query.formula) <= query.bound   always, and
        count(query.formula) == query.bound   iff count(h) = y.
    """
    n = h.scope
    if n == 0:
        raise ValueError("eq_to_geq needs at least one scope variable")
    if not 0 <= y <= 1 << n:
        raise ValueError(f"target count {y} outside [0, 2**{n}] = [0, {1 << n}]")
    branch, delta = split_target(n, y)
    if branch == "high":
        return ThresholdQuery(psi_gadget(h, delta), k_value(n, delta, y))
    return ThresholdQuery(
        psi_gadget(h.negate(), delta), k_value(n, delta, (1 << n) - y)
    )


class Collapse(_Record):
    """A combined threshold query plus the intermediates that produced it.

    ``query`` is the final test; the remaining fields let callers audit the
    construction: the packed formula, the claimed digits, the packed target
    Y, and the midpoint branch and delta chosen by :func:`eq_to_geq`.
    """

    __slots__ = __match_args__ = ("query", "packed", "digits", "target", "branch", "delta")

    query: ThresholdQuery
    packed: Formula
    digits: tuple[int, ...]
    target: int
    branch: str
    delta: int

    def __init__(self, query: ThresholdQuery, packed: Formula, digits: tuple[int, ...],
                 target: int, branch: str, delta: int) -> None:
        super().__init__(query, packed, digits, target, branch, delta)


def combine_equalities(queries: Sequence[EqualityQuery]) -> Collapse:
    """Fuse k equality claims over a common scope into one threshold query.

    Packs the k formulas so their counts become base-2**(n+1) digits of one
    count, encodes the claimed counts as the matching packed target Y, and
    hands (packed, Y) to :func:`eq_to_geq`. Each true count and each claim
    stays at or below 2**n, strictly below the digit base, so the packed
    count equals Y exactly when every individual claim is exact; hence the
    final threshold holds iff all claims hold.
    """
    if not queries:
        raise ValueError("combine_equalities needs at least one query")
    packed = pack_many([q.formula for q in queries])
    digits = tuple(q.claimed for q in queries)
    step = queries[0].formula.scope + 1
    target = 0
    for position, digit in enumerate(digits):
        target |= digit << (position * step)
    query = eq_to_geq(packed, target)
    branch, delta = split_target(packed.scope, target)
    return Collapse(query, packed, digits, target, branch, delta)


def verify_threshold(query: ThresholdQuery) -> bool:
    """Run the counting backend on a final threshold query."""
    return threshold_check(query.formula, query.bound)
