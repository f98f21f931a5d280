"""Count-shaping formula constructions with exact model-count contracts.

Three families:

* :func:`pack_pair` and :func:`pack_many` place formulas on disjoint
  variable blocks so their model counts become the digits, in base
  2**(n+1), of one combined count. :func:`unpack_digits` reads them back.
* :func:`less_than_const` builds a linear-size formula over n variables
  with exactly c models: the assignments whose binary value is strictly
  below c.
* :func:`psi_gadget` maps the model count X of its operand to
  ``k_value(n, delta, X) = X * (2**n - X + 2*delta)``, a downward parabola
  over [0, 2**n] whose integer maximum sits exactly at X = 2**(n-1) + delta.
  That apex property turns count-equality tests into count-threshold tests.

Constructors never simplify their output: the emitted trees follow fixed
right-folded shapes, so the size accounting below is exact and testable.

Size accounting (operators added on top of the operand trees):

* pack_pair(f, g): size(f) + size(g) + 2n + 4, where n = g.scope.
* pack_many(fs):   sum of operand sizes + at most k * (2n + 5).
* less_than_const(n, c): exactly 2n for c < 2**n, and 0 for c = 2**n.
* psi_gadget(f, delta): 2 * size(f) + 6, plus the comparator's 2n.
"""

from __future__ import annotations

from typing import Sequence

from .formula import FALSE, TRUE, And, Formula, Node, Not, Or, Var, and_all


def pack_pair(f: Formula, g: Formula) -> Formula:
    """Combine two formulas so that count = count(f) + count(g) * 2**f.scope.

    Layout over m + n + 1 variables (m = f.scope, n = g.scope): the f branch
    keeps x1..xm and pins the whole fresh block x_{m+1}..x_{m+n+1} to false;
    the g branch relocates g onto x_{m+1}..x_{m+n}, raises the selector
    x_{m+n+1}, and leaves x1..xm free. The selector keeps the branches
    disjoint, so the counts add: count(f) from the low branch and
    count(g) * 2**m from the high one. Size grows by exactly 2n + 4.
    """
    m, n = f.scope, g.scope
    selector = m + n + 1
    pinned = [Not(Var(i)) for i in range(m + 1, selector + 1)]
    low = and_all([f.node, *pinned])
    high = And(g.shift(m).node, Var(selector))
    return Formula(Or(low, high), selector)


def pack_many(operands: Sequence[Formula]) -> Formula:
    """Chain k same-scope formulas into one whose count packs all k counts.

    The chain starts from operands[0] with one pinned-false padding variable
    (scope n + 1) and folds the rest in with :func:`pack_pair`, so stage j
    spans j * (n + 1) variables and digit i of the final count, in base
    2**(n+1), is count(operands[i]). Model counts never exceed 2**n, which
    is below the digit base, so digits never carry.
    """
    if not operands:
        raise ValueError("pack_many needs at least one operand")
    n = operands[0].scope
    for position, f in enumerate(operands):
        if f.scope != n:
            raise ValueError(
                f"operand {position} has scope {f.scope}, expected {n}"
            )
    packed = Formula(And(operands[0].node, Not(Var(n + 1))), n + 1)
    for f in operands[1:]:
        packed = pack_pair(packed, f)
    return packed


def unpack_digits(count: int, digit_width: int, digit_count: int) -> list[int]:
    """Base-2**(digit_width+1) digits of ``count``, least significant first."""
    base = 1 << (digit_width + 1)
    if count < 0 or count >= base**digit_count:
        raise ValueError(
            f"count {count} outside [0, {base}**{digit_count}) for "
            f"{digit_count} digits of width {digit_width}"
        )
    digits = []
    for _ in range(digit_count):
        count, digit = divmod(count, base)
        digits.append(digit)
    return digits


def less_than_const(n: int, c: int) -> Formula:
    """A scope-n formula with exactly c models.

    Models are the assignments whose binary value sum(2**i * x_{i+1}) is
    strictly below c, so x1 is the least significant bit. Built by the
    comparator recurrence from the most significant bit down: where c has a
    one the next lower comparison is an alternative (not x_i or rest), where
    it has a zero it is mandatory (not x_i and rest). c = 2**n accepts every
    assignment and yields the true constant.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if c < 0 or c > 1 << n:
        raise ValueError(f"c must lie in [0, 2**{n}] = [0, {1 << n}], got {c}")
    if c == 1 << n:
        return Formula(TRUE, n)
    node: Node = FALSE
    for i in range(n):
        negated = Not(Var(i + 1))
        node = Or(negated, node) if (c >> i) & 1 else And(negated, node)
    return Formula(node, n)


def _check_delta(n: int, delta: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if delta < 0 or 2 * delta > 1 << n:
        raise ValueError(
            f"delta must satisfy 0 <= delta <= 2**({n}-1), got {delta}"
        )


def k_value(n: int, delta: int, x: int) -> int:
    """The parabola x * (2**n - x + 2*delta), exactly.

    Over integers x in [0, 2**n] this is strictly concave with its apex at
    x = 2**(n-1) + delta, so no other point in the range reaches the apex
    value: the inequality k_value(n, delta, x) >= apex value holds exactly
    when x is the apex.
    """
    _check_delta(n, delta)
    if x < 0 or x > 1 << n:
        raise ValueError(f"x must lie in [0, 2**{n}] = [0, {1 << n}], got {x}")
    return x * ((1 << n) - x + 2 * delta)


def psi_gadget(f: Formula, delta: int) -> Formula:
    """Route count(f) through the parabola :func:`k_value`.

    Over 2n + 1 variables (n = f.scope): a model picks a model of f on the
    first block, then on the second block either a non-model of f with the
    selector x_{2n+1} low, or one of the 2*delta assignments accepted by the
    comparator with the selector high. Hence

        count = count(f) * ((2**n - count(f)) + 2*delta)
              = k_value(n, delta, count(f)).
    """
    n = f.scope
    _check_delta(n, delta)
    selector = 2 * n + 1
    mirrored = f.shift(n).node
    low = And(Not(mirrored), Not(Var(selector)))
    high = And(less_than_const(n, 2 * delta).shift(n).node, Var(selector))
    return Formula(And(f.node, Or(low, high)), selector)
