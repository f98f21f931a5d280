"""Randomized verification of every count contract in the package.

Each suite draws cases from a seeded generator and checks one law against
the brute-force counter; case sizes ramp up over the run. One decorator
runs every suite: a suite yields once per case, None when the case holds and
its failure report otherwise, and the decorator counts cases up to the
first report. In the pair-law, psi-law and counter suites one function builds
that report, computing each count once, and is also the predicate that
greedily shrinks a failing formula to a subtree that still fails, so their
counterexamples are close to minimal.

The suites resolve the constructors they exercise (pack_pair, psi_gadget,
and so on) through this module's globals at call time, which doubles as a
mutation hook: tests can swap in a corrupted constructor and confirm the
corresponding suite catches it.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .counting import count_bruteforce, count_fast, threshold_check
from .formats import parse_circuit, print_circuit
from .formula import And, Formula, Not, Or
from .gadgets import k_value, less_than_const, pack_many, pack_pair, psi_gadget, unpack_digits
from .generate import random_cnf, random_formula, random_split_instance
from .reduction import EqualityQuery, ThresholdQuery, combine_equalities, eq_to_geq
from .reduction import split_target, verify_threshold
from .solver import SplitInstance, Witness, count_given_x, dmax_decide, dmax_pruned, max_count


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


def shrink_formula(f: Formula, fails: Callable[[Formula], object]) -> Formula:
    """Greedily replace the tree by any subtree on which ``fails`` is truthy."""
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


def _count_and_size(f: Formula, want: int, exact: int, scope: int) -> str | None:
    """None when ``f`` has ``want`` models, ``exact`` operators and scope
    ``scope``; otherwise the models and operators it has against the law's."""
    got, size = count_bruteforce(f), f.size()
    if (got, size, f.scope) == (want, exact, scope):
        return None
    return f"  expected count {want}, got {got}; expected size {exact}, got {size}"


def _suite(name: str):
    """Make a case generator into a suite ``(rng, cases) -> SuiteResult``.

    Each value the generator yields is one case: None when the case holds,
    its failure report otherwise. The suite ends at the first report, and a
    budget of zero or less runs no case.
    """

    def wrap(draw):
        @functools.wraps(draw)
        def suite(rng: random.Random, cases: int, *args) -> SuiteResult:
            ran = 0
            for report in draw(rng, cases, *args) if cases > 0 else ():
                ran += 1
                if report is not None:
                    return SuiteResult(name, ran, report)
            return SuiteResult(name, ran)

        return suite

    return wrap


@_suite("pair-law")
def pair_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """count(pack_pair(f, g)) = count(f) + count(g) * 2**f.scope, size exact."""
    for i in range(cases):
        total = rng.randint(0, _ramp(i, cases, 2, 12))
        m = rng.randint(0, total)
        n = total - m
        f = random_formula(rng, m, 2 * m + 2)
        g = random_formula(rng, n, 2 * n + 2)

        def report(ff: Formula, gg: Formula) -> str | None:
            packed = pack_pair(ff, gg)
            want = count_bruteforce(ff) + count_bruteforce(gg) * (1 << ff.scope)
            exact = expected_pack_pair_size(ff, gg)
            wrong = _count_and_size(packed, want, exact, ff.scope + gg.scope + 1)
            return wrong and f"  f = {print_circuit(ff)}\n  g = {print_circuit(gg)}\n{wrong}"

        failure = report(f, g)
        if failure:
            f = shrink_formula(f, lambda ff: report(ff, g))
            g = shrink_formula(g, lambda gg: report(f, gg))
            failure = report(f, g)
        yield failure


@_suite("digit-law")
def digit_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """Digits of count(pack_many(fs)) in base 2**(n+1) are the operand counts."""
    for i in range(cases):
        n = rng.randint(0, _ramp(i, cases, 0, 2))
        k = rng.randint(1, _ramp(i, cases, 1, 3))
        operands = [random_formula(rng, n, 2 * n + 2) for _ in range(k)]
        packed = pack_many(operands)
        counts = [count_bruteforce(f) for f in operands]
        digits = unpack_digits(count_bruteforce(packed), n, k)
        size_cap = sum(f.size() for f in operands) + k * (2 * n + 5)
        yield None if digits == counts and packed.size() <= size_cap else "\n".join(
            [f"  operand {j} = {print_circuit(f)}" for j, f in enumerate(operands)]
            + [f"  expected digits {counts}, got {digits}"]
        )


@_suite("threshold-law")
def threshold_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """count(less_than_const(n, c)) = c exhaustively for n <= 6, size <= 3n."""
    for n in range(7):
        for c in range((1 << n) + 1):
            m = less_than_const(n, c)
            # the exact size, 2n or 0, is within 3n
            wrong = _count_and_size(m, c, 0 if c == 1 << n else 2 * n, n)
            yield wrong and f"  less_than_const({n}, {c}) = {print_circuit(m)}\n{wrong}"


@_suite("psi-law")
def psi_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """count(psi_gadget(f, d)) = k_value(n, d, count(f)) for every valid d.

    Each drawn formula is checked at every valid d, one case each, until
    ``cases`` checks are drawn.
    """
    drawn = 0
    while drawn < cases:
        n = rng.randint(0, _ramp(drawn, cases, 1, 5))
        f = random_formula(rng, n, 2 * n + 2)
        drawn += (1 << n) // 2 + 1
        for delta in range((1 << n) // 2 + 1):

            def report(ff: Formula) -> str | None:
                gadget = psi_gadget(ff, delta)
                want = k_value(ff.scope, delta, count_bruteforce(ff))
                exact = expected_psi_size(ff, delta)
                wrong = _count_and_size(gadget, want, exact, 2 * ff.scope + 1)
                return wrong and f"  f = {print_circuit(ff)}, delta = {delta}\n{wrong}"

            yield report(f) and report(shrink_formula(f, report))


@_suite("apex-law")
def apex_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """k_value(n, d, x) reaches k_value(n, d, 2**(n-1) + d) only at the apex."""
    for n in range(1, 6):
        for delta in range((1 << n) // 2 + 1):
            apex = (1 << (n - 1)) + delta
            peak = k_value(n, delta, apex)
            for x in range((1 << n) + 1):
                k = k_value(n, delta, x)
                yield None if (k >= peak) == (x == apex) else (
                    f"  n={n} delta={delta} x={x}: k={k} vs apex value {peak} at {apex}"
                )


def _threshold_holds(
    query: ThresholdQuery, branch: str, operand: Formula, delta: int, expected: bool
) -> tuple[bool, bool, int]:
    """Whether a built threshold query decides ``expected``, with its verdict
    and oracle count: both must give ``expected``, the count may not pass the
    bound, and the query is the psi gadget of ``operand`` (negated on the low
    branch) at ``delta``, exactly."""
    count = count_bruteforce(query.formula)
    verdict = verify_threshold(query)
    operand = operand if branch == "high" else operand.negate()
    holds = (
        verdict == expected
        and (count >= query.bound) == expected
        and count <= query.bound
        and query.formula.size() == expected_psi_size(operand, delta)
    )
    return holds, verdict, count


@_suite("eq-to-geq")
def eq_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """eq_to_geq is sound and complete for every target over small scopes.

    ``cases`` counts drawn formulas; every target y in [0, 2**n] is checked
    for each, and the reported case count is the number of (h, y) checks.
    """
    for i in range(cases):
        n = rng.randint(1, _ramp(i, cases, 1, 4))
        h = random_formula(rng, n, 2 * n + 2)
        true_count = count_bruteforce(h)
        for y in range((1 << n) + 1):
            query = eq_to_geq(h, y)
            expected = true_count == y
            branch, delta = split_target(n, y)
            holds, verdict, count = _threshold_holds(query, branch, h, delta, expected)
            yield None if holds else (
                f"  h = {print_circuit(h)}, y = {y} (count(h) = {true_count})\n"
                f"  bound {query.bound}, gadget count {count}, "
                f"verify_threshold {verdict}, expected {expected}"
            )


@_suite("combine")
def combine_law(
    rng: random.Random, cases: int, k: int = 2, n: int = 2
) -> Iterator[str | None]:
    """The combined threshold accepts the true claim vector and nothing else.

    ``cases`` counts drawn base lists of k operands; the reported case count
    covers the true vector, every single-digit perturbation of it, and one
    uniformly random claim vector per base list.
    """
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
            collapse = combine_equalities(
                [EqualityQuery(f, c) for f, c in zip(operands, claims)]
            )
            query = collapse.query
            holds, verdict, count = _threshold_holds(
                query, collapse.branch, collapse.packed, collapse.delta, expected
            )
            if holds and list(collapse.digits) == claims:
                yield None
                continue
            lines = [
                f"  operand {j} = {print_circuit(f)} (count {c})"
                for j, (f, c) in enumerate(zip(operands, true_counts))
            ]
            lines.append(
                f"  claims {claims}: expected {expected}, verdict {verdict}, "
                f"gadget count {count} vs bound {query.bound}"
            )
            yield "\n".join(lines)


def _solver_problem(rng: random.Random, instance: SplitInstance) -> str | None:
    """The first way the solver engines disagree with exhaustive enumeration."""
    xs, ys = instance.x_vars, instance.y_vars
    # independent oracle: enumerate chooser and counted blocks directly
    per_x: list[tuple[tuple[bool, ...], int]] = []
    for x_mask in range(1 << len(xs)):
        values = tuple(bool((x_mask >> (len(xs) - 1 - j)) & 1) for j in range(len(xs)))
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
            if instance.formula.node.eval_mask(mask):
                achieved += 1
        per_x.append((values, achieved))
    for values, achieved in per_x:
        if count_given_x(instance, values) != achieved:
            return f"count_given_x({values}) != {achieved}"
    # the first chooser, in enumeration order, with the most models
    best_values, best_count = max(per_x, key=lambda entry: entry[1])
    top = max_count(instance)
    if (top.values, top.achieved) != (best_values, best_count):
        return f"max_count returned {top}, oracle found {best_values} -> {best_count}"
    decided: dict[int, Witness | None] = {}
    for bound in sorted({0, best_count, best_count + 1, rng.randint(0, (1 << len(ys)) + 1)}):
        bounded = dataclasses.replace(instance, bound=bound)
        plain = decided[bound] = dmax_decide(bounded)
        pruned = dmax_pruned(bounded)
        if plain != pruned:
            return f"engines disagree at bound {bound}: {plain} vs {pruned}"
        if (plain is not None) != (bound <= best_count):
            return f"decision at bound {bound} inconsistent with maximum {best_count}"
        if plain is not None and (
            plain.achieved < bound or count_given_x(instance, plain.values) != plain.achieved
        ):
            return f"invalid witness {plain} at bound {bound}"
    # the decisions above read the memo that max_count left for this
    # formula; an equal but distinct copy starts each one on an empty memo
    for bound, plain in decided.items():
        copy = parse_circuit(print_circuit(instance.formula))
        cold = dmax_pruned(SplitInstance(copy, xs, ys, bound))
        if cold != plain:
            return f"engines disagree at bound {bound} on a fresh copy: {plain} vs {cold}"
    return None


@_suite("solver")
def solver_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """Both solver engines match exhaustive per-chooser maximization."""
    for i in range(cases):
        instance = random_split_instance(rng, max_total=_ramp(i, cases, 2, 10))
        problem = _solver_problem(rng, instance)
        yield problem and (
            f"  formula = {print_circuit(instance.formula)}\n"
            f"  x = {instance.x_vars}, y = {instance.y_vars}\n  {problem}"
        )


@_suite("counter")
def counter_law(rng: random.Random, cases: int) -> Iterator[str | None]:
    """count_fast and threshold_check match count_bruteforce on random formulas.

    Every second case is CNF-shaped, so the counter's flattening of nested
    conjunctions meets both fold directions, empty and repeated clauses.
    Each formula is decided at one above its count, then at its count, and
    counted last: capped searches run on an empty memo and on a partly
    filled one, and the count reads what they left.
    """
    for i in range(cases):
        scope = rng.randint(0, _ramp(i, cases, 1, 10))
        if i % 2:
            f = random_cnf(rng, scope, rng.randint(0, 2 * scope + 1))
        else:
            f = random_formula(rng, scope, 2 * scope + 4)

        def report(ff: Formula) -> str | None:
            brute = count_bruteforce(ff)
            above, at = threshold_check(ff, brute + 1), threshold_check(ff, brute)
            fast = count_fast(ff)
            return None if fast == brute and at and not above else (
                f"  f = {print_circuit(ff)}\n  count_bruteforce {brute}, count_fast {fast}, "
                f"threshold_check at it {at}, one above {above}"
            )

        yield report(f) and report(shrink_formula(f, report))


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
