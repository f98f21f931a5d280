"""Exact model counting over a formula's declared scope.

Two engines with identical semantics:

* :func:`count_bruteforce` evaluates every assignment in the scope. It is
  the trusted oracle every other contract in this package is checked
  against, so it stays free of pruning, sharing, and shortcuts.
* :func:`count_fast` splits on the lowest undetermined variable, propagates
  constants through the circuit, and memoizes counts per restricted
  sub-circuit. Unused scope variables contribute a factor two each. Its
  search is :func:`count_suffix`, which the chooser solver also uses to
  keep one memo across a whole branch-and-bound search.

Counts are plain Python integers, so gadget outputs far beyond machine-word
range are exact.
"""

from __future__ import annotations

from .formula import Formula, Node

DEFAULT_LIMIT = 24


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


def count_suffix(node: Node, lo: int, scope: int, memo: dict[Node, int]) -> int:
    """Models of ``node`` over variables lo..scope, by variable splitting.

    ``node`` must mention no variable below ``lo``. The search splits on the
    lowest-indexed undetermined variable and stores the count of every
    residue it meets in ``memo``, normalized to the residue's own lowest
    variable. Every entry is a count over the same ``scope``, so callers may
    share one memo across many calls for that scope.
    """
    if node.min_var == 0:
        # variable-free subtree: a constant, possibly still unfolded
        return (1 << (scope - lo + 1)) if node.eval_mask(0) else 0
    v = node.min_var
    cached = memo.get(node)
    if cached is None:
        low = count_suffix(node.restrict(v, False), v + 1, scope, memo)
        cached = low + count_suffix(node.restrict(v, True), v + 1, scope, memo)
        memo[node] = cached
    return cached << (v - lo)


def count_fast(f: Formula) -> int:
    """Model count by variable splitting with residue memoization.

    Agrees with :func:`count_bruteforce` on every input. Splitting always
    picks the lowest-indexed undetermined variable, so traces are
    reproducible; the memo table lives only for this invocation.
    """
    return count_suffix(f.node, 1, f.scope, {})


def threshold_check(f: Formula, bound: int) -> bool:
    """Decide count(f) >= bound, stopping once the answer is forced.

    Runs the same splitting search as :func:`count_fast` but saturates at
    the bound: a branch that provably reaches the remaining requirement
    ends the search. Only exact residue counts enter the memo table.
    """
    if bound <= 0:
        return True
    scope = f.scope
    memo: dict[Node, int] = {}

    def capped(node: Node, lo: int, cap: int) -> int:
        # returns cap when the suffix count provably reaches cap, else the
        # exact suffix count (which is then < cap); requires cap >= 1
        if node.min_var == 0:
            # variable-free subtree: a constant, possibly still unfolded
            if not node.eval_mask(0):
                return 0
            full = 1 << (scope - lo + 1)
            return cap if full >= cap else full
        v = node.min_var
        shift = v - lo
        exact = memo.get(node)
        if exact is not None:
            value = exact << shift
            return cap if value >= cap else value
        node_cap = ((cap - 1) >> shift) + 1
        low = capped(node.restrict(v, False), v + 1, node_cap)
        if low >= node_cap:
            return cap
        high = capped(node.restrict(v, True), v + 1, node_cap - low)
        if high >= node_cap - low:
            return cap
        memo[node] = low + high
        # low + high < ceil(cap / 2**shift), so the shifted value is exact
        return (low + high) << shift

    return capped(f.node, 1, bound) >= bound
