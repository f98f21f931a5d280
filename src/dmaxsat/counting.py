"""Exact model counting over a formula's declared scope.

Two engines with identical semantics:

* :func:`count_bruteforce` evaluates every assignment in the scope. It is
  the trusted oracle every other contract in this package is checked
  against, so it stays free of pruning, sharing, and shortcuts.
* :func:`count_fast` runs one memoized search, :func:`count_residue`, that
  forces runs of literals, multiplies interval components, counts ``Not(X)``
  as a complement, and splits a lone ``Or`` at its top literal and gadget
  selectors at theirs before it splits on the lowest variable. A residue
  whose variables all lie within :data:`TABLE_WIDTH` of its lowest one is
  not split at all: it is counted outright from its truth table, the leaf
  step of sharpSAT's component search, and inside a chooser block (below)
  its value is read from the same table. Unused scope variables contribute
  a factor two each.

A residue is the circuit's top-level conjunction held flat: a tuple of its
conjuncts, none of them an ``And`` or free of variables, sorted by
``(min_var, hash_)``. :func:`restrict_residue` sets a sorted run of
variables and shares every conjunct that cannot mention them. Each residue
is searched by one generator that yields its children, and an outer loop
keeps the open generators on an explicit stack, so the search itself does
not recurse. A complement's child and each part of a component are
residues of their own, so every search reads and fills one memo: the
component cache of sharpSAT (Thurley, SAT 2006). Memo lookups compare
residues with ``Node.__eq__``, one walk on an explicit stack. A truth
table is an integer of 2**w bits, one per assignment of the residue's w
variables, so one C-level ``&``, ``|`` or ``^`` evaluates an operator on
all of them at once and ``int.bit_count`` counts the models; its walk is
on an explicit stack too.
With the lowest variables of a table maximized, each pattern of its low
bits is read through one shift and one ``&`` with a stride mask, and the
largest ``bit_count`` is the value. A truth table is the smallest of the
compiled forms that exact E-MAJSAT solvers maximize over (Pipatsrisawat &
Darwiche, IJCAI 2009).
Only :meth:`Node.restrict` and :meth:`Node.eval_mask` recurse, and the
search calls ``restrict`` down to the variable it sets. A deep tree is safe
when the search sets only variables near its top, as it does on a
comparator chain, or when it is narrow enough for one table, and may meet
the recursion limit otherwise, as when the solver sets a chooser at the
bottom of a deep ``not`` nest.
:func:`threshold_check` runs the search capped at the bound, and the
chooser solver with its chooser block 1..k maximized instead of summed.
Inside that block the search still forces literals and reads narrow
residues from their tables, maximized over the chooser variables they
span; caps hold there too, so a bounded chooser search stops once a choice
reaches its bound. Components, complements and the other splits wait
until the chooser block is set.

The memo outlives a call in one module-level slot, the persistent
component cache of sharpSAT held for one root at a time: the last root
searched by any engine, here or in :mod:`dmaxsat.solver`, with its residue
and memo (see :func:`held_memo`).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import cache
from operator import attrgetter
from typing import Callable, Generator, Sequence

from .formula import FALSE, TRUE, And, Formula, Node, Not, Or, Var

DEFAULT_LIMIT = 24

# A residue whose variables all lie in v..v+w-1, with w at most this, is
# counted by one walk over 2**w-bit truth tables, in the chooser block too.
# Width 12 counts faster still, but bench/run.py keeps a record of about
# 100 bytes per timed query, and the extra queries of its count workload
# then read as more peak memory than the benchmark's bound allows.
TABLE_WIDTH = 10

Residue = tuple[Node, ...]

_ORDER = attrgetter("min_var", "hash_")
_MIN = attrgetter("min_var")
_MAX = attrgetter("max_var")


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
            pending += (node.right, node.left)
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


def restrict_residue(
    residue: Residue, run: Sequence[tuple[int, bool]], fresh: list[Node] | None = None
) -> Residue | None:
    """``residue`` with each ``(u, value)`` of ``run`` set; None when false.

    ``run`` is sorted by variable. A conjunct is restricted by the pairs
    whose variable lies in its interval ``min_var..max_var``; the scan stops
    at the first conjunct starting above the largest variable, and the rest
    are shared (``residue`` itself when no conjunct changes). What the
    restricted ones flatten into is appended to ``fresh`` if given.
    """
    top = run[-1][0]
    end = len(run)
    kept: list[Node] = []
    new: list[Node] = []
    j = p = 0
    for c in residue:
        low = c.min_var
        if low > top:
            break
        j += 1
        while run[p][0] < low:
            p += 1
        r, q = c, p
        while q < end:
            u, value = run[q]
            if u > r.max_var:
                break
            r = r.restrict(u, value)
            q += 1
        if r is c:
            kept.append(c)
        elif r is FALSE:
            return None
        elif r is not TRUE:
            new.append(r)
    if len(kept) == j:
        return residue
    if not new:
        return tuple(kept) + residue[j:] if kept else residue[j:]
    flat: list[Node] = []
    if not _flatten(new, flat):
        return None
    if fresh is not None:
        fresh += flat
    out = kept + list(residue[j:])
    for c in flat:
        insort(out, c, key=_ORDER)
    return tuple(out)


def _reach(residue: Residue, u: int) -> int:
    # the highest variable of any conjunct a restriction on u may change
    return max(map(_MAX, residue[: bisect_right(residue, u, key=_MIN)]))


def _boundary(residue: Residue, reach: int) -> int:
    # index of the first conjunct starting above every variable before it,
    # or 0; none starts above reach
    top = residue[0].max_var
    last = min(reach, residue[-1].min_var)
    i = 1
    while top < last:
        if residue[i].min_var > top:
            return i
        top = max(top, residue[i].max_var)
        i += 1
    return 0


def _literal(node: Node) -> int:
    # v for the literal xv, -v for (not xv), 0 for any other node
    if type(node) is Var:
        return node.index
    if type(node) is Not and type(node.child) is Var:
        return -node.child.index
    return 0


def _decision(residue: Residue, v: int) -> int:
    # the variable to split on when no other step applies: the top variable
    # of a lone Or whose one side is a literal on it and whose other side
    # lies below it; else the lowest variable that the two sides of a
    # leading Or need set to opposite values (a false side is falsified by
    # either value of any variable); else v. A side that is an Or over some
    # variable is its own one-conjunct residue and holds no literal, so its
    # Or selects nothing, as in every CNF clause of three literals.
    c = residue[0]
    if len(residue) == 1 and type(c) is Or:
        u = c.max_var
        if abs(_literal(c.left)) == u > c.right.max_var:
            return u
        if abs(_literal(c.right)) == u > c.left.max_var:
            return u
    for c in residue:
        if c.min_var != v:
            break
        if type(c) is Or:
            left, right = c.left, c.right
            if (type(left) is Or and left.min_var) or (type(right) is Or and right.min_var):
                continue
            a, b = _literal(left), _literal(right)
            if a and b:
                if a == -b:
                    return abs(a)
                continue
            left, right = residue_of(left), residue_of(right)
            if left is None or right is None:
                both = {_literal(x) for x in left or right or ()}
            else:
                both = {_literal(x) for x in left}
                both &= {-_literal(x) for x in right}
            both.discard(0)
            if both:
                return min(map(abs, both))
    return v


@cache
def _tables(w: int) -> tuple[int, tuple[int, ...]]:
    # the table of all 2**w assignments, and for each i < w the table of the
    # i-th variable: bit a set iff bit i of a is. That is blocks of 2**i
    # zeros and ones in turn, ones // (2**(2**i) + 1) moved up by 2**i
    ones = (1 << (1 << w)) - 1
    return ones, tuple(ones // ((1 << (1 << i)) + 1) << (1 << i) for i in range(w))


@cache
def _stride(w: int, m: int) -> int:
    # the 2**w-bit table with a bit at every index whose low m bits are 0
    return ((1 << (1 << w)) - 1) // ((1 << (1 << m)) - 1)


def _table_count(residue: Residue, v: int, w: int, m: int) -> int:
    # the value over v..v+w-1 of a residue that mentions no other variable,
    # maximized over its m lowest variables and summed over the rest: the
    # bits of the AND of its conjuncts' truth tables, all counted when m is
    # 0, else the largest count of those at c, c + 2**m, c + 2 * 2**m, ...
    # over the patterns c of the low m bits. A post-order walk on an
    # explicit stack keeps each operator's table by id, so a shared subtree
    # is walked once; a variable child is read from its column directly
    ones, columns = _tables(w)
    done: dict[int, int] = {}
    value = ones
    for c in residue:
        stack = [c]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Not:
                x = node.child
                t = columns[x.index - v] if type(x) is Var else done.get(id(x))
                if t is None:
                    stack += (node, x)
                    continue
                t ^= ones
            elif kind is And or kind is Or:
                x, y = node.left, node.right
                a = columns[x.index - v] if type(x) is Var else done.get(id(x))
                b = columns[y.index - v] if type(y) is Var else done.get(id(y))
                if a is None or b is None:
                    stack.append(node)
                    if b is None:
                        stack.append(y)
                    if a is None:
                        stack.append(x)
                    continue
                t = a & b if kind is And else a | b
            elif kind is Var:
                t = columns[node.index - v]
            else:
                t = ones if node.value else 0
            done[id(node)] = t
        value &= t
    if not m:
        return value.bit_count()
    stride = _stride(w, m)
    return max([(value >> c & stride).bit_count() for c in range(1 << m)])


def count_residue(
    residue: Residue | None,
    lo: int,
    scope: int,
    memo: dict[Residue, int],
    cap: int | None,
    k: int = 0,
) -> int:
    """Models of ``residue`` (None for false) over lo..scope, by one search.

    ``residue`` must mention no variable below ``lo``. Variables 1..k are
    maximized instead of summed, and with ``k = 0`` the value is the model
    count. A positive ``cap`` makes the result exact below ``cap`` and at
    least ``cap`` otherwise, for any k. ``memo`` keeps the value of every
    residue finished over its own lowest variable through ``scope``, so its
    entries depend only on ``scope`` and ``k``. Only exact values are
    stored, with one exception: a residue whose lowest variable lies in
    1..k and whose search reached its cap stores minus the value it
    reached. That lower bound answers a later search that it reaches the
    cap of, so the solver's descent under the same cap reads it instead of
    searching the residue again; any other search replaces it, with the
    exact value whether it splits or reads a table.

    On a memo miss, a residue with lowest variable v and highest top whose
    variables all lie in v..v + ``TABLE_WIDTH`` - 1 is not split: each
    variable j becomes the truth table of bit j - v over the 2**w
    assignments of its w variables, each operator the bitwise ``&``, ``|``
    or complement of its children's tables, and the AND of the conjuncts'
    tables holds its models. Above 1..k the value is their count, scaled
    by the unused variables above top. From v <= k, the chooser variables
    v..min(k, top) are the low m bits of an assignment's index, and the
    value is the largest count over the 2**m patterns of those bits,
    scaled by the summed variables above max(top, k): a chooser above top
    adds no factor two. Either way it is stored as an exact entry whatever
    the cap. The start of its last conjunct, ``residue[-1].min_var``,
    rejects most wide residues before the maximum over its conjuncts is
    taken.
    """

    def search(
        residue: Residue, v: int, cap: int | None, fresh: list[Node] | None, reach: int
    ) -> Generator[tuple, int, int]:
        # the value over v..scope of a residue with lowest variable v: each
        # child is yielded as (residue, lo, cap, fresh, reach) and sent back
        # its value over lo..scope. fresh holds what the last restriction
        # made (None: any conjunct may be new), and no component starts at
        # a conjunct above reach
        lits = set(map(_literal, residue if fresh is None else fresh))
        lits.discard(0)
        if lits:
            # forced run: the literals set their variables in one
            # restriction, a split whose other branch is 0 under max as
            # under sum; it halves its result once per summed variable it
            # sets above v, and a set chooser variable adds no factor two
            if not lits.isdisjoint([-x for x in lits]):
                memo[residue] = 0  # opposite literals
                return 0
            run = sorted([(abs(x), x > 0) for x in lits])
            lo = v + (run[0][0] == v)
            shift = len(run) - bisect_right(run, (max(k, v), True))
            reach = max(reach, _reach(residue, run[-1][0])) if v > k else scope
            need = None if cap is None else cap << shift
            fresh = []
            value = yield restrict_residue(residue, run, fresh), lo, need, fresh, reach
            if need is not None and value >= need:
                if v <= k:
                    memo[residue] = -cap
                return cap
            value >>= shift
        elif v <= k:
            # chooser split on v, False before True: each branch gets the
            # whole cap, one that reaches it ends the split, and the larger
            # value is kept. The steps below wait until the chooser block is
            # set: a complement does not preserve a maximum, and a split on
            # a summed variable there would sum what must be maximized
            value = 0
            for bit in (False, True):
                fresh = []
                child = restrict_residue(residue, ((v, bit),), fresh)
                value = max(value, (yield child, v + 1, cap, fresh, scope))
                if cap is not None and value >= cap:
                    memo[residue] = -value
                    return value
        elif i := _boundary(residue, reach):
            # component: a prefix whose variables all lie below the next
            # conjunct's and the rest are searched as two residues, and the
            # value is their product; the second is capped at the cap over
            # the first
            value = yield residue[:i], v, None, [], 0
            if value:
                b = residue[i].min_var
                first = value >> (scope - b + 1)
                rest = None if cap is None else -(-cap // first)
                value = first * (yield residue[i:], b, rest, [], scope)
            if cap is not None and value >= cap:
                return value  # a product that reaches its cap is not exact
        elif len(residue) == 1 and type(residue[0]) is Not:
            # complement: a single Not(X) has 2**(scope - v + 1) minus the
            # value of X, searched uncapped: a bound on X bounds no complement
            inner = yield residue_of(residue[0].child), v, None, None, scope
            value = (1 << (scope - v + 1)) - inner
        else:
            # sum split, False before True, on the top variable of a lone Or
            # with a literal on it, else on a gadget's selector, else on v
            # (see _decision): the False branch gets the cap, the True branch
            # what is left of it, and one reaching its share ends the split
            u = _decision(residue, v)
            shift, lo, reach = int(u != v), v + (u == v), _reach(residue, u)
            need = None if cap is None else cap << shift
            fresh = []
            low = yield restrict_residue(residue, ((u, False),), fresh), lo, need, fresh, reach
            if need is not None and low >= need:
                return cap
            need = None if need is None else need - low
            fresh = []
            high = yield restrict_residue(residue, ((u, True),), fresh), lo, need, fresh, reach
            if need is not None and high >= need:
                return cap
            value = (low + high) >> shift
        memo[residue] = value
        return value

    # the open searches, innermost last, each with the number of variables
    # its value doubles by on the way to its parent's lo..scope
    searches: list[tuple[Generator[tuple, int, int], int]] = []
    request = residue, lo, cap, None, scope
    while True:
        residue, lo, cap, fresh, reach = request
        if residue is None:
            v, value = lo, 0
        elif not residue:
            # the empty residue is a memo hit of 1 past the last variable
            v, value = scope + 1, 1
        else:
            v = residue[0].min_var
            value = memo.get(residue)
        # only summed variables skipped between lo and v double the value
        skip = v - lo if lo > k else max(v - k - 1, 0)
        if value is None or value < 0 and (cap is None or -value <= (cap - 1) >> skip):
            # a miss, or a lower bound that does not reach this cap
            if (
                residue[-1].min_var - v < TABLE_WIDTH
                and (top := max(map(_MAX, residue))) - v < TABLE_WIDTH
            ):
                # narrow: counted from its truth table, exactly whatever
                # the cap. In the chooser block the table is maximized over
                # the chooser variables it spans, and one above top adds
                # no factor two
                m = max(min(k, top) - v + 1, 0)
                value = _table_count(residue, v, top - v + 1, m) << (scope - max(top, k))
                memo[residue] = value
                value <<= skip
            else:
                if cap is not None:
                    cap = ((cap - 1) >> skip) + 1
                searches.append((search(residue, v, cap, fresh, reach), skip))
                value = None
        else:
            value = abs(value) << skip
        while searches:
            gen, skip = searches[-1]
            try:
                request = gen.send(value)
                break
            except StopIteration as done:
                searches.pop()
                value = done.value << skip
        else:
            return value


# The last root searched, as (key, residue, memo); see held_memo. Replacing
# it frees the memo.
_last: tuple[tuple, Residue | None, dict[Residue, int]] = ((), None, {})


def held_memo(
    scope: int, chooser: tuple[int, ...], node: Node, build: Callable[[], Node] | None = None
) -> tuple[Residue | None, dict[Residue, int]]:
    """The root residue and memo that the slot keeps for one search's root.

    The key is ``(scope, chooser, node)``: the formula's scope, its chooser
    block (empty when counting) and its node, compared with ``==``, cheap
    parts first, so an equal but distinct parse matches too. On a match
    the held residue and memo are returned. Otherwise the residue of
    ``build()`` (of ``node`` when ``build`` is None) and an empty memo
    replace the slot, which frees the old memo. A max/sum memo with an
    empty chooser block is a count memo, so counting and the solver share
    that entry.
    """
    global _last
    key = scope, chooser, node
    held, residue, memo = _last
    if held != key:
        residue, memo = residue_of(node if build is None else build()), {}
        _last = key, residue, memo
    return residue, memo


def _count(f: Formula, cap: int | None) -> int:
    residue, memo = held_memo(f.scope, (), f.node)
    return count_residue(residue, 1, f.scope, memo, cap)


def count_fast(f: Formula) -> int:
    """Model count by the search of :func:`count_residue`, uncapped.

    Agrees with :func:`count_bruteforce` on every input. Its steps (forced
    runs of literals, interval components, complements, top-literal and
    selector splits) apply in a fixed order, so traces are reproducible.
    The memo outlives the call in the module's slot (:func:`held_memo`),
    keyed by f's scope, an empty chooser block and f's node: a later call
    of any engine on an equal root reuses it, and one on another root
    replaces it.
    """
    return _count(f, None)


def threshold_check(f: Formula, bound: int) -> bool:
    """Decide count(f) >= bound, stopping once the answer is forced.

    Runs the search of :func:`count_fast`, on the slot's memo, capped
    at the bound: a branch that reaches its share of the bound ends its
    parent, a product caps its second factor at the bound divided by the
    first, and a complement counts exactly. Only exact residue counts enter
    the memo, so after :func:`count_fast` on an equal formula the root is a
    memo hit and no search runs.
    """
    if bound <= 0:
        return True
    return _count(f, bound) >= bound
