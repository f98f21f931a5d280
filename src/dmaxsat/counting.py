"""Exact model counting over a formula's declared scope.

Two engines with identical semantics:

* :func:`count_bruteforce` evaluates every assignment in the scope. It is
  the trusted oracle every other contract in this package is checked
  against, so it stays free of pruning, sharing, and shortcuts.
* :func:`count_fast` splits on the lowest undetermined variable, propagates
  constants, and memoizes the count of every residue it meets. Unused
  scope variables contribute a factor two each.

A residue is the circuit's top-level conjunction held flat: a tuple of its
conjuncts, none of them an ``And`` or free of variables, sorted by
``(min_var, hash_)``. Because the search always splits on the residue's
lowest variable v, only its leading conjuncts (those with ``min_var == v``)
can mention v; a split restricts just those, flattens what they become
into the untouched tail in sorted order, so the rest of the circuit is
never rebuilt. :func:`count_residue` is the one splitting search. It runs
on an explicit stack, so the number of variables never meets the
interpreter's recursion limit. :func:`count_fast` runs it uncapped and
:func:`threshold_check` capped at the bound. The chooser solver runs it
uncapped with its chooser block, relabelled to variables 1..k, maximized
instead of summed, and reads its witness from the memo.

Counts are plain Python integers, so gadget outputs far beyond machine-word
range are exact.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter

from .formula import FALSE, TRUE, And, Formula, Node

DEFAULT_LIMIT = 24

Residue = tuple[Node, ...]

_ORDER = attrgetter("min_var", "hash_")


class ScopeLimitError(RuntimeError):
    """An enumeration would exceed the configured variable limit."""


def count_bruteforce(f: Formula, limit: int = DEFAULT_LIMIT) -> int:
    """Model count by evaluating all 2**scope assignments."""
    if f.scope > limit:
        raise ScopeLimitError(
            f"scope {f.scope} exceeds the enumeration limit of {limit} variables"
        )
    node = f.node
    total = 0
    for mask in range(1 << f.scope):
        if node.eval_mask(mask):
            total += 1
    return total


def _flatten(pending: list[Node], out: list[Node]) -> bool:
    # moves the conjuncts of the pending nodes into out: And nodes are
    # opened, variable-free conjuncts evaluated; False when one is false
    while pending:
        node = pending.pop()
        if type(node) is And:
            pending.append(node.right)
            pending.append(node.left)
        elif node.min_var == 0:
            if not node.eval_mask(0):
                return False
        else:
            out.append(node)
    return True


def residue_of(node: Node) -> Residue | None:
    """The conjuncts of ``node`` in search order, or None if one is false."""
    out: list[Node] = []
    if not _flatten([node], out):
        return None
    out.sort(key=_ORDER)
    return tuple(out)


def split_residue(residue: Residue, v: int, value: bool) -> Residue | None:
    """``residue`` with variable ``v`` set to ``value``; None when false.

    No conjunct may mention a variable below ``v``. Conjuncts that do not
    mention ``v`` are shared with ``residue``, which comes back unchanged
    when none does.
    """
    fresh: list[Node] = []
    j = 0
    for c in residue:
        if c.min_var != v:
            break
        j += 1
        c = c.restrict(v, value)
        if c is FALSE:
            return None
        if c is not TRUE:
            fresh.append(c)
    if not j:
        return residue
    if not fresh:
        return residue[j:]
    kept: list[Node] = []
    if not _flatten(fresh, kept):
        return None
    out = list(residue[j:])
    for c in kept:
        insort(out, c, key=_ORDER)
    return tuple(out)


def count_residue(
    residue: Residue | None,
    lo: int,
    scope: int,
    memo: dict[Residue, int],
    cap: int | None,
    k: int = 0,
) -> int:
    """Models of ``residue`` over variables lo..scope, by variable splitting.

    ``residue`` (None for false) must mention no variable below ``lo``.
    The search splits on the lowest variable, False before True, and stores
    the value of every residue it finishes in ``memo``, normalized to the
    residue's own lowest variable. Variables 1..k are maximized instead of
    summed: a split on one of them keeps the larger branch, and one the
    residue skips adds no factor two. With ``k = 0`` the value is the model
    count. Every entry is a value over the same ``scope`` and ``k``, so
    callers may share one memo across many calls for that pair. With
    ``cap`` None the result is exact. With a positive ``cap``, which is
    valid only for ``k = 0``, it is exact when below ``cap`` and at least
    ``cap`` otherwise: a branch that reaches its share of the cap ends its
    parent's split, and only exact counts enter ``memo``.
    """
    # one frame per open split: [residue, v, lo, cap, cap over v..scope,
    # value of the False branch or None while that branch is open]
    frames: list[list] = []
    while True:
        if residue is None:
            value = 0
        elif not residue:
            value = 1 << (scope - lo + 1 if lo > k else scope - k)
        else:
            v = residue[0].min_var
            exact = memo.get(residue)
            if exact is None:
                sub_cap = None if cap is None else ((cap - 1) >> (v - lo)) + 1
                frames.append([residue, v, lo, cap, sub_cap, None])
                residue = split_residue(residue, v, False)
                lo, cap = v + 1, sub_cap
                continue
            # only summed variables skipped between lo and v double the value
            value = exact << (v - lo if lo > k else max(v - k - 1, 0))
        # hand value to the innermost open split until one needs its True
        # branch searched
        while frames:
            frame = frames[-1]
            parent, v, parent_lo, parent_cap, sub_cap, low = frame
            if low is None:
                if sub_cap is not None and value >= sub_cap:
                    frames.pop()
                    value = parent_cap
                    continue
                frame[5] = value
                residue = split_residue(parent, v, True)
                lo = v + 1
                cap = None if sub_cap is None else sub_cap - value
                break
            frames.pop()
            if sub_cap is not None and value >= sub_cap - low:
                value = parent_cap
                continue
            if v > k:
                value += low
            elif low > value:
                value = low
            memo[parent] = value
            # value < sub_cap, so a capped result stays exact
            value <<= (v - parent_lo if parent_lo > k else max(v - k - 1, 0))
        else:
            return value


def count_fast(f: Formula) -> int:
    """Model count by variable splitting with residue memoization.

    Agrees with :func:`count_bruteforce` on every input. Splitting always
    picks the lowest-indexed undetermined variable, so traces are
    reproducible; the memo table lives only for this invocation.
    """
    return count_residue(residue_of(f.node), 1, f.scope, {}, None)


def threshold_check(f: Formula, bound: int) -> bool:
    """Decide count(f) >= bound, stopping once the answer is forced.

    Runs the search of :func:`count_fast` capped at the bound: a branch
    that provably reaches the remaining requirement ends the search. Only
    exact residue counts enter the memo table.
    """
    if bound <= 0:
        return True
    return count_residue(residue_of(f.node), 1, f.scope, {}, bound) >= bound
