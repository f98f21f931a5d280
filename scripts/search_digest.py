#!/usr/bin/env python3
"""Print two SHA-256 per seed: one over the counting search's results and
memos, one over the answers of the public engines.

A differential check for changes to :func:`dmaxsat.counting.count_residue`
and to the memo kept between calls: run it against two checkouts' ``src``
(it imports ``dmaxsat`` from ``PYTHONPATH``) and compare the lines.

    PYTHONPATH=src python scripts/search_digest.py --seed 1 --seed 2

For each seed it builds a corpus of random trees, random CNF, packed and
psi gadget formulas, comparators, and shifted copies: a formula beside its
copy on the next block or that copy's complement, and ``pack_many`` of one
operand repeated, alone or with its complement. Each formula is searched
at k = 0 and two drawn chooser block sizes: uncapped, then at caps 1,
best, best + 1 and a drawn cap. Each capped search runs on a fresh memo,
followed on the memo it left by a greedy descent over the chooser block,
as the solver makes, and by searches at the cap plus one and uncapped,
which read its lower bounds; the capped search also runs on the uncapped
search's memo. Every result and the full contents of every memo, sorted
by key, enter the first digest. These searches run with
``counting.TABLE_WIDTH`` set to 0, so the memos record every split, as
they did before narrow residues were counted from truth tables.

The second digest holds only answers, so it stays comparable when a
change alters what the memos hold. Over the same corpus, a drawn sequence
calls :func:`count_fast`, :func:`threshold_check`, :func:`max_count` and
:func:`dmax_pruned` on the last three formulas, their equal parses, the
same node under one more scope variable and a copy shifted by one, split
at one drawn chooser block per formula (moved with the copy) or at the
empty one, at the default table width. Neither line depends on
``PYTHONHASHSEED``.
"""

import argparse
import hashlib
import random

from dmaxsat import (
    And,
    Formula,
    Not,
    SplitInstance,
    count_fast,
    dmax_pruned,
    less_than_const,
    max_count,
    pack_many,
    parse_circuit,
    print_circuit,
    psi_gadget,
    threshold_check,
)
from dmaxsat import counting
from dmaxsat.counting import count_residue, residue_of, restrict_residue
from dmaxsat.generate import random_cnf, random_formula


def corpus(rng: random.Random, budget: int) -> list[Formula]:
    """``budget`` formulas of each family, all of scope at most 13."""
    out = []
    for _ in range(budget):
        out.append(random_formula(rng, rng.randint(1, 9), 24))
        n = rng.randint(3, 10)
        out.append(random_cnf(rng, n, rng.randint(n, 3 * n)))
        n = rng.randint(1, 3)
        packed = pack_many([random_formula(rng, n, 2 * n) for _ in range(rng.randint(1, 3))])
        out.append(packed.negate() if rng.random() < 0.5 else packed)
        f = random_formula(rng, rng.randint(1, 5), 10)
        out.append(psi_gadget(f, rng.randint(0, 1 << (f.scope - 1))))
        n = rng.randint(1, 12)
        out.append(less_than_const(n, rng.randint(0, 1 << n)))
        f = random_formula(rng, rng.randint(1, 6), 12)
        copy = f.shift(f.scope).node
        beside = Not(copy) if rng.random() < 0.5 else copy
        out.append(Formula(And(f.node, beside), 2 * f.scope))
        f = random_formula(rng, rng.randint(1, 3), 6)
        repeated = [f if rng.random() < 0.7 else f.negate() for _ in range(rng.randint(2, 3))]
        out.append(pack_many(repeated))
    return out


def searches(rng: random.Random, f: Formula, k: int):
    """Each search's result and the memo it left, in a fixed order."""
    residue, scope = residue_of(f.node), f.scope
    uncapped: dict = {}
    best = count_residue(residue, 1, scope, uncapped, None, k)
    yield best, uncapped
    for cap in (1, best, best + 1, rng.randint(1, (1 << scope) + 1)):
        if cap <= 0:
            continue
        memo: dict = {}
        yield count_residue(residue, 1, scope, memo, cap, k), memo
        node, values = residue, []
        for v in range(1, k + 1 if best >= cap else 1):
            low = None if node is None else restrict_residue(node, ((v, False),))
            keep = count_residue(low, v + 1, scope, memo, cap, k) >= cap
            node = low if keep else restrict_residue(node, ((v, True),))
            values.append(keep)
        yield values, memo
        for again in (cap + 1, None):
            yield count_residue(residue, 1, scope, memo, again, k), memo
        shared = dict(uncapped)
        yield count_residue(residue, 1, scope, shared, cap, k), shared


def answers(rng: random.Random, formulas: list[Formula]):
    """Each answer of a drawn sequence of the four public engines."""
    window: list[tuple[Formula, tuple[int, ...]]] = []
    for f in formulas:
        xs = tuple(rng.sample(range(1, f.scope + 1), min(f.scope, rng.randint(0, 6))))
        window = [*window[-2:], (f, xs)]
        for _ in range(4):
            base, block = rng.choice(window)
            g, offset = rng.choice(
                [(base, 0), (parse_circuit(print_circuit(base)), 0),
                 (Formula(base.node, base.scope + 1), 0), (base.shift(1), 1)]
            )
            engine = rng.randrange(4)
            if engine == 0:
                yield engine, count_fast(g)
            elif engine == 1:
                bound = rng.randint(0, (1 << g.scope) + 1)
                yield engine, bound, threshold_check(g, bound)
            else:
                chooser = rng.choice([tuple(v + offset for v in block), ()])
                rest = tuple(v for v in range(1, g.scope + 1) if v not in chooser)
                if engine == 2:
                    w = max_count(SplitInstance(g, chooser, rest))
                else:
                    bound = rng.randint(0, (1 << len(rest)) + 1)
                    w = dmax_pruned(SplitInstance(g, chooser, rest, bound))
                yield engine, chooser, w and (w.values, w.achieved)


def digest(seed: int, budget: int) -> str:
    rng = random.Random(seed)
    formulas = corpus(rng, budget)
    h = hashlib.sha256()
    width, counting.TABLE_WIDTH = counting.TABLE_WIDTH, 0
    try:
        for f in formulas:
            for k in [0, *rng.sample(range(1, f.scope + 1), min(2, f.scope))]:
                for value, memo in searches(rng, f, k):
                    h.update(repr((f.scope, k, value)).encode())
                    h.update(repr(sorted((repr(key), v) for key, v in memo.items())).encode())
    finally:
        counting.TABLE_WIDTH = width
    engines = hashlib.sha256()
    for answer in answers(rng, formulas):
        engines.update(repr(answer).encode())
    return f"{h.hexdigest()} {engines.hexdigest()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 1")
    parser.add_argument("--budget", type=int, default=30, help="formulas per family")
    args = parser.parse_args()
    for seed in args.seed or [1]:
        print(digest(seed, args.budget))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
