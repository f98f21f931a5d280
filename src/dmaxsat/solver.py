"""Deciding and maximizing chooser-block counts over split instances.

A split instance partitions a formula's scope into a chooser block x and a
counted block y. The decision problem asks for an x whose y-count reaches a
bound; the optimization problem asks for the x maximizing that count. Every
engine returns the lexicographically least qualifying chooser assignment,
which makes differential testing exact.

:func:`max_count` and :func:`dmax_pruned` share one engine. It renames the
instance's variables (:func:`dmaxsat.formula.renamed`) so that the chooser
block comes first, and holds it as a flat residue (see
:mod:`dmaxsat.counting`). It keeps residue and memo in the slot of
:func:`dmaxsat.counting.held_memo`, keyed by the scope, the chooser block
and the formula's node, so further calls on an equal formula and chooser
block, at any bound, neither rename it again nor search again what an
earlier call finished. One max/sum search (:func:`count_residue` with
k = |x|) maximizes over the chooser block and sums over the counted
block. It forces literals inside the chooser block too, and reads a
residue within :data:`dmaxsat.counting.TABLE_WIDTH` variables from its
truth table, maximized over the chooser variables it spans, so on small
instances the search splits only the first choosers. When deciding it is
capped at the bound, so it stops once a choice reaches it. A greedy
descent over the chooser block then keeps False whenever the best below it
still reaches the requirement (the instance's bound when deciding, the
maximum when maximizing) and takes True otherwise. :func:`dmax_decide` is
the unpruned reference: it enumerates the chooser block and counts each
assignment on its own with :func:`count_given_x`, which restricts the
chooser variables one at a time (:meth:`dmaxsat.formula.Node.restrict`)
and counts what is left on a fresh memo, so the reference reuses nothing
between calls and leaves the slot alone.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .counting import (
    DEFAULT_LIMIT,
    ScopeLimitError,
    count_fast,  # noqa: F401  unused here; bench/spans.py wraps solver.count_fast
    count_residue,
    held_memo,
    residue_of,
    restrict_residue,
)
from .formula import Formula, Node, Var, _Record, renamed


class SplitInstance(_Record):
    """A formula whose scope is split into chooser (x) and counted (y) blocks.

    The two blocks must be disjoint and together cover the scope exactly.
    ``bound``, when present, is the count the chooser must reach. Immutable,
    and equal and hashed by its four fields.
    """

    __slots__ = __match_args__ = ("formula", "x_vars", "y_vars", "bound")

    formula: Formula
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]
    bound: int | None

    def __init__(
        self,
        formula: Formula,
        x_vars: Sequence[int],
        y_vars: Sequence[int],
        bound: int | None = None,
    ) -> None:
        x_vars, y_vars = tuple(x_vars), tuple(y_vars)
        scope = formula.scope
        seen: set[int] = set()
        for v in x_vars + y_vars:
            if not 1 <= v <= scope:
                raise ValueError(f"variable {v} outside scope {scope}")
            if v in seen:
                raise ValueError(f"variable {v} listed twice")
            seen.add(v)
        if len(seen) != scope:
            missing = sorted(set(range(1, scope + 1)) - seen)
            raise ValueError(f"blocks do not cover the scope; missing {missing}")
        if bound is not None:
            top = (1 << len(y_vars)) + 1
            if not 0 <= bound <= top:
                raise ValueError(f"bound {bound} outside [0, 2**{len(y_vars)} + 1]")
        super().__init__(formula, x_vars, y_vars, bound)

    def with_bound(self, bound: int | None) -> "SplitInstance":
        """This instance with ``bound`` in place of its own, validated alike."""
        return SplitInstance(self.formula, self.x_vars, self.y_vars, bound)


class Witness(_Record):
    """A chooser assignment (aligned with x_vars) and the count it achieves.

    Immutable, and equal and hashed by its two fields.
    """

    __slots__ = __match_args__ = ("values", "achieved")

    values: tuple[bool, ...]
    achieved: int

    def __init__(self, values: tuple[bool, ...], achieved: int) -> None:
        super().__init__(values, achieved)


def parse_blocks(declaration: str, scope: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse a block declaration like ``x: 1 3 / y: 2 4`` into the two blocks.

    Variables not listed anywhere default to the y block. Either segment may
    be omitted or left empty. Only the syntax is checked here: a variable
    outside the scope or listed twice is rejected by :class:`SplitInstance`.
    """
    listed_x: list[int] = []
    listed_y: list[int] = []
    for part in declaration.split("/"):
        part = part.strip()
        if not part:
            continue
        label, sep, rest = part.partition(":")
        label = label.strip()
        if not sep or label not in ("x", "y"):
            raise ValueError(f"malformed block segment {part!r}")
        block = listed_x if label == "x" else listed_y
        for token in rest.split():
            try:
                v = int(token)
            except ValueError:
                raise ValueError(f"bad variable index {token!r}") from None
            block.append(v)
    listed = set(listed_x + listed_y)
    unlisted = [v for v in range(1, scope + 1) if v not in listed]
    return tuple(listed_x), tuple(listed_y + unlisted)


def count_given_x(instance: SplitInstance, x_assignment: Sequence[bool]) -> int:
    """Models over the y block once the chooser block is pinned, on a fresh memo."""
    if len(x_assignment) != len(instance.x_vars):
        raise ValueError(
            f"assignment covers {len(x_assignment)} of "
            f"{len(instance.x_vars)} chooser variables"
        )
    node = instance.formula.node
    for v, value in zip(instance.x_vars, x_assignment):
        node = node.restrict(v, value)
    # the restricted tree no longer mentions the chooser variables, so the
    # full-scope count overshoots by exactly 2**len(x_assignment)
    count = count_residue(residue_of(node), 1, instance.formula.scope, {}, None)
    return count >> len(x_assignment)


def _lex_assignments(k: int) -> Iterator[tuple[bool, ...]]:
    # leftmost position most significant, False before True: lexicographic
    for mask in range(1 << k):
        yield tuple(bool((mask >> (k - 1 - j)) & 1) for j in range(k))


def _required_bound(instance: SplitInstance) -> int:
    if instance.bound is None:
        raise ValueError("instance carries no bound; set SplitInstance.bound")
    return instance.bound


def _check_limits(instance: SplitInstance, limit: int) -> None:
    if len(instance.x_vars) > limit or len(instance.y_vars) > limit:
        raise ScopeLimitError(
            f"block sizes {len(instance.x_vars)}/{len(instance.y_vars)} exceed "
            f"the enumeration limit of {limit} variables"
        )


def dmax_decide(
    instance: SplitInstance, limit: int = DEFAULT_LIMIT
) -> Witness | None:
    """Lexicographically least chooser reaching the bound, or None.

    Plain enumeration of the chooser block in lexicographic order, with a
    fresh :func:`count_given_x` per assignment and no pruning; the reference
    engine that :func:`dmax_pruned` and :func:`max_count` are tested against.
    """
    bound = _required_bound(instance)
    _check_limits(instance, limit)
    for values in _lex_assignments(len(instance.x_vars)):
        achieved = count_given_x(instance, values)
        if achieved >= bound:
            return Witness(values, achieved)
    return None


def max_count(instance: SplitInstance, limit: int = DEFAULT_LIMIT) -> Witness:
    """The chooser maximizing the y-count; ties go to the lexicographically least.

    Runs :func:`_search` with the maximum itself as the requirement, so the
    descent keeps the first maximizing chooser in lexicographic order.
    """
    _check_limits(instance, limit)
    best = _search(instance, None)
    assert best is not None
    return best


def dmax_pruned(
    instance: SplitInstance, limit: int = DEFAULT_LIMIT
) -> Witness | None:
    """Same contract as :func:`dmax_decide`, from one max/sum search.

    Runs :func:`_search` with the instance's fixed bound as the
    requirement and as the cap of every search: None when the maximum is
    below it, and otherwise the lexicographically least chooser reaching
    it, which is exactly the witness dmax_decide returns. The search stops
    at a choice that reaches the bound instead of computing the maximum.
    """
    bound = _required_bound(instance)
    _check_limits(instance, limit)
    return _search(instance, bound)


def _search(instance: SplitInstance, bound: int | None) -> Witness | None:
    """One max/sum search over the relabelled instance, then a greedy descent.

    The instance is relabelled so that x_vars[i] becomes variable i+1 and
    the y block follows, and held as a flat residue. Residue and memo come
    from :func:`dmaxsat.counting.held_memo` under the key of the scope,
    x_vars and the formula's node. The sorted y block is not in the key,
    because :class:`SplitInstance` makes it the scope minus x_vars; nor is
    the bound: an exact memo entry holds under every cap, and a lower
    bound answers only a search that it reaches the cap of. One
    :func:`dmaxsat.counting.count_residue` search with k = |x| maximizes
    over the chooser block and sums over the y block, capped at ``bound``
    (uncapped when ``bound`` is None or 0), and leaves in its memo every
    value it found exactly. The descent then fixes x1..xk in turn: it keeps
    False whenever the False child's best still reaches the requirement
    (``bound``, or the maximum when ``bound`` is None) and takes True
    otherwise. A child's best is searched again under the same cap. That
    is a memo lookup when this or an earlier search on the slot met the
    child and either finished it or reached the cap there (a lower bound
    the memo keeps), and a further search when the search forced a literal
    past the child or stopped before it. The leaf reached is the
    lexicographically least chooser meeting the requirement, and its count
    is searched uncapped, so ``achieved`` is exact.
    """
    k = len(instance.x_vars)
    scope = instance.formula.scope
    residue, memo = held_memo(
        scope, instance.x_vars, instance.formula.node, lambda: _relabel(instance)
    )
    cap = bound or None  # every chooser reaches a bound of 0
    best = count_residue(residue, 1, scope, memo, cap, k)
    need = best if bound is None else bound
    if best < need:
        return None
    values: list[bool] = []
    for v in range(1, k + 1):
        low = None if residue is None else restrict_residue(residue, ((v, False),))
        keep_low = count_residue(low, v + 1, scope, memo, cap, k) >= need
        residue = low if keep_low else restrict_residue(residue, ((v, True),))
        values.append(not keep_low)
    achieved = count_residue(residue, k + 1, scope, memo, None, k)
    return Witness(tuple(values), achieved)


def _relabel(instance: SplitInstance) -> Node:
    # x_vars[i] becomes i + 1 and the y block follows in ascending order;
    # the tree is reused when nothing moves
    order = instance.x_vars + tuple(sorted(instance.y_vars))
    root = instance.formula.node
    if order == tuple(range(1, len(order) + 1)):
        return root
    return renamed(root, {v: Var(i) for i, v in enumerate(order, 1)})
