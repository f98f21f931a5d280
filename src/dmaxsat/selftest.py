"""Randomized verification of every count contract in the package.

Each suite draws cases from a seeded generator, checks one law against the
brute-force counter, and stops at the first violation. Case sizes ramp up
over the run and failing formulas are greedily shrunk to subtrees that
still fail, so a reported counterexample is close to minimal.

The suites resolve the constructors they exercise (pack_pair, psi_gadget,
and so on) through this module's globals at call time, which doubles as a
mutation hook: tests can swap in a corrupted constructor and confirm the
corresponding suite catches it.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

from .counting import count_bruteforce, count_fast
from .formats import print_circuit
from .formula import And, Formula, Not, Or
from .gadgets import k_value, less_than_const, pack_many, pack_pair, psi_gadget, unpack_digits
from .generate import random_cnf, random_formula, random_split_instance
from .reduction import EqualityQuery, combine_equalities, eq_to_geq, split_target, verify_threshold
from .solver import count_given_x, dmax_decide, dmax_pruned, max_count


@dataclass
class SuiteResult:
    name: str
    cases: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def expected_pack_pair_size(f: Formula, g: Formula) -> int:
    """Operators in pack_pair(f, g): the operands plus exactly 2n + 4."""
    return f.size() + g.size() + 2 * g.scope + 4


def expected_psi_size(f: Formula, delta: int) -> int:
    """Operators in psi_gadget(f, delta): the doubled operand plus 6, plus
    the comparator's 2n (absent when 2*delta saturates at 2**n)."""
    comparator = 0 if 2 * delta == 1 << f.scope else 2 * f.scope
    return 2 * f.size() + comparator + 6


def _children(node):
    kind = type(node)
    if kind is Not:
        return (node.child,)
    if kind is And or kind is Or:
        return (node.left, node.right)
    return ()


def shrink_formula(f: Formula, fails: Callable[[Formula], bool]) -> Formula:
    """Greedily replace the tree by any subtree that still fails."""
    changed = True
    while changed:
        changed = False
        for child in _children(f.node):
            candidate = Formula(child, f.scope)
            if fails(candidate):
                f = candidate
                changed = True
                break
    return f


def _ramp(i: int, cases: int, low: int, high: int) -> int:
    # case sizes grow from low to high across the run
    if cases <= 1:
        return high
    return low + ((high - low) * i) // (cases - 1)


def pair_law(rng: random.Random, cases: int) -> SuiteResult:
    """count(pack_pair(f, g)) = count(f) + count(g) * 2**f.scope, size exact."""
    name = "pair-law"
    for i in range(cases):
        total = rng.randint(0, _ramp(i, cases, 2, 12))
        m = rng.randint(0, total)
        n = total - m
        f = random_formula(rng, m, 2 * m + 2)
        g = random_formula(rng, n, 2 * n + 2)

        def violated(ff: Formula, gg: Formula) -> bool:
            packed = pack_pair(ff, gg)
            want = count_bruteforce(ff) + count_bruteforce(gg) * (1 << ff.scope)
            return (
                count_bruteforce(packed) != want
                or packed.size() != expected_pack_pair_size(ff, gg)
                or packed.scope != ff.scope + gg.scope + 1
            )

        if violated(f, g):
            f = shrink_formula(f, lambda ff: violated(ff, g))
            g = shrink_formula(g, lambda gg: violated(f, gg))
            packed = pack_pair(f, g)
            want = count_bruteforce(f) + count_bruteforce(g) * (1 << f.scope)
            return SuiteResult(
                name,
                i + 1,
                f"  f = {print_circuit(f)}\n"
                f"  g = {print_circuit(g)}\n"
                f"  expected count {want}, got {count_bruteforce(packed)}; "
                f"expected size {expected_pack_pair_size(f, g)}, got {packed.size()}",
            )
    return SuiteResult(name, cases)


def digit_law(rng: random.Random, cases: int) -> SuiteResult:
    """Digits of count(pack_many(fs)) in base 2**(n+1) are the operand counts."""
    name = "digit-law"
    for i in range(cases):
        n = rng.randint(0, _ramp(i, cases, 0, 2))
        k = rng.randint(1, _ramp(i, cases, 1, 3))
        operands = [random_formula(rng, n, 2 * n + 2) for _ in range(k)]
        packed = pack_many(operands)
        counts = [count_bruteforce(f) for f in operands]
        digits = unpack_digits(count_bruteforce(packed.formula), n, k)
        size_cap = sum(f.size() for f in operands) + k * (2 * n + 5)
        if digits != counts or packed.formula.size() > size_cap:
            lines = [f"  operand {j} = {print_circuit(f)}" for j, f in enumerate(operands)]
            lines.append(f"  expected digits {counts}, got {digits}")
            return SuiteResult(name, i + 1, "\n".join(lines))
    return SuiteResult(name, cases)


def threshold_law(rng: random.Random, cases: int) -> SuiteResult:
    """count(less_than_const(n, c)) = c exhaustively for n <= 6, size <= 3n."""
    name = "threshold-law"
    if cases <= 0:
        return SuiteResult(name, 0)
    ran = 0
    for n in range(7):
        for c in range((1 << n) + 1):
            ran += 1
            m = less_than_const(n, c)
            got = count_bruteforce(m)
            exact = 0 if c == 1 << n else 2 * n
            if got != c or m.size() != exact or m.size() > 3 * n:
                return SuiteResult(
                    name,
                    ran,
                    f"  less_than_const({n}, {c}) = {print_circuit(m)}\n"
                    f"  expected count {c}, got {got}; "
                    f"expected size {exact}, got {m.size()}",
                )
    return SuiteResult(name, ran)


def psi_law(rng: random.Random, cases: int) -> SuiteResult:
    """count(psi_gadget(f, d)) = k_value(n, d, count(f)) for every valid d."""
    name = "psi-law"
    ran = 0
    while ran < cases:
        n = rng.randint(0, _ramp(ran, cases, 1, 5))
        f = random_formula(rng, n, 2 * n + 2)
        for delta in range((1 << n) // 2 + 1):
            ran += 1

            def violated(ff: Formula, dd: int = delta) -> bool:
                gadget = psi_gadget(ff, dd)
                want = k_value(ff.scope, dd, count_bruteforce(ff))
                return (
                    count_bruteforce(gadget) != want
                    or gadget.size() != expected_psi_size(ff, dd)
                    or gadget.scope != 2 * ff.scope + 1
                )

            if violated(f):
                f = shrink_formula(f, violated)
                gadget = psi_gadget(f, delta)
                want = k_value(f.scope, delta, count_bruteforce(f))
                return SuiteResult(
                    name,
                    ran,
                    f"  f = {print_circuit(f)}, delta = {delta}\n"
                    f"  expected count {want}, got {count_bruteforce(gadget)}; "
                    f"expected size {expected_psi_size(f, delta)}, got {gadget.size()}",
                )
    return SuiteResult(name, ran)


def apex_law(rng: random.Random, cases: int) -> SuiteResult:
    """k_value(n, d, x) reaches k_value(n, d, 2**(n-1) + d) only at the apex."""
    name = "apex-law"
    if cases <= 0:
        return SuiteResult(name, 0)
    ran = 0
    for n in range(1, 6):
        for delta in range((1 << n) // 2 + 1):
            apex = (1 << (n - 1)) + delta
            peak = k_value(n, delta, apex)
            for x in range((1 << n) + 1):
                ran += 1
                if (k_value(n, delta, x) >= peak) != (x == apex):
                    return SuiteResult(
                        name,
                        ran,
                        f"  n={n} delta={delta} x={x}: k={k_value(n, delta, x)} "
                        f"vs apex value {peak} at {apex}",
                    )
    return SuiteResult(name, ran)


def eq_law(rng: random.Random, cases: int) -> SuiteResult:
    """eq_to_geq is sound and complete for every target over small scopes.

    ``cases`` counts drawn formulas; every target y in [0, 2**n] is checked
    for each, and the reported case count is the number of (h, y) checks.
    """
    name = "eq-to-geq"
    ran = 0
    for i in range(cases):
        n = rng.randint(1, _ramp(i, cases, 1, 4))
        h = random_formula(rng, n, 2 * n + 2)
        true_count = count_bruteforce(h)
        for y in range((1 << n) + 1):
            ran += 1
            query = eq_to_geq(h, y)
            gadget_count = count_bruteforce(query.formula)
            expected = true_count == y
            branch, delta = split_target(n, y)
            operand = h if branch == "high" else h.negate()
            checks = (
                (gadget_count >= query.bound) == expected
                and verify_threshold(query) == expected
                and gadget_count <= query.bound
                and query.formula.size() == expected_psi_size(operand, delta)
            )
            if not checks:
                return SuiteResult(
                    name,
                    ran,
                    f"  h = {print_circuit(h)}, y = {y} (count(h) = {true_count})\n"
                    f"  bound {query.bound}, gadget count {gadget_count}, "
                    f"verify_threshold {verify_threshold(query)}, expected {expected}",
                )
    return SuiteResult(name, ran)


def combine_law(
    rng: random.Random, cases: int, k: int = 2, n: int = 2
) -> SuiteResult:
    """The combined threshold accepts the true claim vector and nothing else.

    ``cases`` counts drawn base lists of k operands; the reported case count
    covers the true vector, every single-digit perturbation of it, and one
    uniformly random claim vector per base list.
    """
    name = "combine"
    ran = 0
    for _ in range(cases):
        operands = [random_formula(rng, n, 2 * n + 2) for _ in range(k)]
        true_counts = [count_bruteforce(f) for f in operands]
        vectors = [(list(true_counts), True)]
        for position in range(k):
            for wrong in range((1 << n) + 1):
                if wrong != true_counts[position]:
                    perturbed = list(true_counts)
                    perturbed[position] = wrong
                    vectors.append((perturbed, False))
        anywhere = [rng.randint(0, 1 << n) for _ in range(k)]
        vectors.append((anywhere, anywhere == true_counts))
        for claims, expected in vectors:
            ran += 1
            collapse = combine_equalities(
                [EqualityQuery(f, c) for f, c in zip(operands, claims)]
            )
            query = collapse.query
            gadget_count = count_bruteforce(query.formula)
            verdict = verify_threshold(query)
            packed = collapse.packed if collapse.branch == "high" else collapse.packed.negate()
            sound = (
                verdict == expected
                and (gadget_count >= query.bound) == expected
                and gadget_count <= query.bound
                and list(collapse.digits) == claims
                and query.formula.size() == expected_psi_size(packed, collapse.delta)
            )
            if not sound:
                lines = [
                    f"  operand {j} = {print_circuit(f)} (count {c})"
                    for j, (f, c) in enumerate(zip(operands, true_counts))
                ]
                lines.append(
                    f"  claims {claims}: expected {expected}, verdict {verdict}, "
                    f"gadget count {gadget_count} vs bound {query.bound}"
                )
                return SuiteResult(name, ran, "\n".join(lines))
    return SuiteResult(name, ran)


def solver_law(rng: random.Random, cases: int) -> SuiteResult:
    """Both solver engines match exhaustive per-chooser maximization."""
    name = "solver"
    for i in range(cases):
        instance = random_split_instance(rng, max_total=_ramp(i, cases, 2, 10))
        xs, ys = instance.x_vars, instance.y_vars
        formula = instance.formula

        # independent oracle: enumerate chooser and counted blocks directly
        best_values: tuple[bool, ...] | None = None
        best_count = -1
        per_x: list[tuple[tuple[bool, ...], int]] = []
        for x_mask in range(1 << len(xs)):
            values = tuple(
                bool((x_mask >> (len(xs) - 1 - j)) & 1) for j in range(len(xs))
            )
            base = 0
            for v, b in zip(xs, values):
                if b:
                    base |= 1 << (v - 1)
            achieved = 0
            for y_mask in range(1 << len(ys)):
                mask = base
                for j, v in enumerate(ys):
                    if (y_mask >> j) & 1:
                        mask |= 1 << (v - 1)
                if formula.node.eval_mask(mask):
                    achieved += 1
            per_x.append((values, achieved))
            if achieved > best_count:
                best_values, best_count = values, achieved

        problem = None
        for values, achieved in per_x:
            if count_given_x(instance, values) != achieved:
                problem = f"count_given_x({values}) != {achieved}"
                break
        top = max_count(instance)
        if problem is None and (top.values, top.achieved) != (best_values, best_count):
            problem = f"max_count returned {top}, oracle found {best_values} -> {best_count}"
        if problem is None:
            bounds = {0, best_count, best_count + 1, rng.randint(0, (1 << len(ys)) + 1)}
            for bound in sorted(bounds):
                bounded = dataclasses.replace(instance, bound=bound)
                plain = dmax_decide(bounded)
                pruned = dmax_pruned(bounded)
                if plain != pruned:
                    problem = f"engines disagree at bound {bound}: {plain} vs {pruned}"
                    break
                if (plain is not None) != (bound <= best_count):
                    problem = f"decision at bound {bound} inconsistent with maximum {best_count}"
                    break
                if plain is not None and (
                    plain.achieved < bound
                    or count_given_x(instance, plain.values) != plain.achieved
                ):
                    problem = f"invalid witness {plain} at bound {bound}"
                    break
        if problem is not None:
            return SuiteResult(
                name,
                i + 1,
                f"  formula = {print_circuit(formula)}\n"
                f"  x = {xs}, y = {ys}\n  {problem}",
            )
    return SuiteResult(name, cases)


def counter_law(rng: random.Random, cases: int) -> SuiteResult:
    """count_fast agrees with count_bruteforce on random formulas.

    Every second case is CNF-shaped, so the counter's flattening of nested
    conjunctions meets both fold directions, empty and repeated clauses.
    """
    name = "counter"
    for i in range(cases):
        scope = rng.randint(0, _ramp(i, cases, 1, 10))
        if i % 2:
            f = random_cnf(rng, scope, rng.randint(0, 2 * scope + 1))
        else:
            f = random_formula(rng, scope, 2 * scope + 4)

        def violated(ff: Formula) -> bool:
            return count_fast(ff) != count_bruteforce(ff)

        if violated(f):
            f = shrink_formula(f, violated)
            return SuiteResult(
                name,
                i + 1,
                f"  f = {print_circuit(f)}\n"
                f"  count_bruteforce {count_bruteforce(f)}, count_fast {count_fast(f)}",
            )
    return SuiteResult(name, cases)


SUITES: tuple[Callable[[random.Random, int], SuiteResult], ...] = (
    pair_law,
    digit_law,
    threshold_law,
    psi_law,
    apex_law,
    eq_law,
    combine_law,
    solver_law,
    counter_law,
)


def run_selftest(
    seed: int, budget: int, emit: Callable[[str], None] = print
) -> bool:
    """Run every suite, emitting one line per suite and a final verdict.

    ``budget`` controls how many inputs each suite draws (a budget of zero
    skips everything and reports zero cases); the exhaustive suites run in
    full whenever the budget is positive. Output depends only on the seed
    and budget.
    """
    rng = random.Random(seed)
    all_ok = True
    total = 0
    for suite in SUITES:
        result = suite(rng, budget)
        total += result.cases
        if result.ok:
            emit(f"{result.name}: {result.cases} cases ok")
        else:
            all_ok = False
            emit(f"{result.name}: FAIL after {result.cases} cases")
            emit(result.failure or "")
    verdict = "PASS" if all_ok else "FAIL"
    emit(f"selftest: {verdict} ({len(SUITES)} suites, {total} cases, seed {seed})")
    return all_ok
