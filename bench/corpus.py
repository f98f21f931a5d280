"""Seeded inputs for the three benchmark workloads, with their expected answers.

Everything here is independent of the ``dmaxsat`` package: inputs are
generated as text (DIMACS CNF and circuit s-expressions) from the workload
seed, and expected answers come from the benchmark's own exhaustive
truth-table oracle, which evaluates every clause or gate once per block of
``2**16`` assignments using Python integers as bit vectors. The program
under test only ever sees the generated text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

LOW_BITS = 16  # assignments of the lowest variables evaluated as one bit vector


@dataclass
class Cnf:
    n: int
    clauses: list[tuple[int, ...]]

    def text(self) -> str:
        lines = [f"p cnf {self.n} {len(self.clauses)}"]
        lines += [" ".join(map(str, clause)) + " 0" for clause in self.clauses]
        return "\n".join(lines) + "\n"


def random_3cnf(rng: random.Random, n: int, ratio: float) -> Cnf:
    clauses = []
    for _ in range(round(ratio * n)):
        picked = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return Cnf(n, clauses)


def chain_cnf(length: int) -> Cnf:
    """Implication chain x1 -> x2 -> ... -> x_length: length + 1 models."""
    return Cnf(length, [(-i, i + 1) for i in range(1, length)])


def _var_vectors(width: int) -> tuple[list[int], int]:
    # vector i has bit a set iff assignment a (an integer) sets variable i+1
    full = (1 << (1 << width)) - 1
    vectors = []
    for i in range(width):
        block = 1 << i
        vec, span = ((1 << block) - 1) << block, 2 * block
        while span < 1 << width:
            vec |= vec << span
            span *= 2
        vectors.append(vec & full)
    return vectors, full


def cnf_counts(cnf: Cnf, order: list[int] | None = None, low: int | None = None) -> list[int]:
    """Model counts of ``cnf`` per assignment of the variables beyond the low block.

    ``order`` lists the variables from least to most significant position
    (default x1..xn); its first ``low`` variables (default at most 16) form
    the low block. Entry ``h`` of the result is the count over the low block
    when the remaining variables, read as a binary number, equal ``h``.
    """
    order = order or list(range(1, cnf.n + 1))
    position = {v: p for p, v in enumerate(order)}
    low = min(cnf.n, LOW_BITS) if low is None else low
    vectors, full = _var_vectors(low)
    counts = []
    for high in range(1 << (cnf.n - low)):
        acc = full
        for clause in cnf.clauses:
            vec = 0
            for lit in clause:
                p = position[abs(lit)]
                if p >= low:
                    if ((high >> (p - low)) & 1) == (lit > 0):
                        break
                else:
                    vec |= vectors[p] if lit > 0 else full ^ vectors[p]
            else:
                acc &= vec
                if not acc:
                    break
        counts.append(acc.bit_count())
    return counts


# ---------------------------------------------------------------- circuits
# A circuit node is ("var", i), ("not", a), ("and", a, b) or ("or", a, b).


def random_circuit(rng: random.Random, n: int, ops: int) -> tuple:
    """A tree over x1..xn with exactly ``ops`` binary-printed operators."""
    if ops == 0:
        return ("var", rng.randint(1, n))
    if rng.random() < 0.25:
        return ("not", random_circuit(rng, n, ops - 1))
    left = rng.randint(0, ops - 1)
    op = "and" if rng.random() < 0.5 else "or"
    return (op, random_circuit(rng, n, left), random_circuit(rng, n, ops - 1 - left))


def circuit_text(node: tuple, scope: int) -> str:
    out: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item[0] == "var":
            out.append(f"x{item[1]}")
        else:
            stack.append(")")
            for child in reversed(item[1:]):
                stack.append(child)
                stack.append(" ")
            stack.append(f"({item[0]}")
    return f"(scope {scope}) " + "".join(out)


def circuit_count(node: tuple, n: int) -> int:
    vectors, full = _var_vectors(n)

    def value(item: tuple) -> int:
        if item[0] == "var":
            return vectors[item[1] - 1]
        if item[0] == "not":
            return full ^ value(item[1])
        a, b = value(item[1]), value(item[2])
        return a & b if item[0] == "and" else a | b

    return value(node).bit_count()


def _shift(expr: str, offset: int) -> str:
    return re.sub(r"x(\d+)", lambda m: f"x{int(m.group(1)) + offset}", expr)


def _and_all(exprs: list[str]) -> str:
    # right fold, as the program's and_all builds it
    out = exprs[-1]
    for expr in reversed(exprs[:-1]):
        out = f"(and {expr} {out})"
    return out


def _less_than(n: int, c: int) -> str:
    if c == 1 << n:
        return "true"
    out = "false"
    for i in range(n):
        out = f"({'or' if (c >> i) & 1 else 'and'} (not x{i + 1}) {out})"
    return out


def collapse_text(operands: list[str], n: int, target: int) -> str:
    """Canonical text of ``combine_equalities`` output, built from the paper's gadgets.

    Operands are expressions over x1..xn. pack_many pins one padding
    variable under the first operand and folds the rest in with pack_pair;
    eq_to_geq routes the packed formula, or its negation when the target
    sits below the midpoint, through the psi gadget with the comparator for
    2 * delta. Shapes and the fold direction follow the size contracts.
    """
    packed, m = f"(and {operands[0]} (not x{n + 1}))", n + 1
    for g in operands[1:]:
        selector = m + n + 1
        pinned = [f"(not x{i})" for i in range(m + 1, selector + 1)]
        packed = f"(or {_and_all([packed, *pinned])} (and {_shift(g, m)} x{selector}))"
        m = selector
    half = 1 << (m - 1)
    if target < half:
        packed, delta = f"(not {packed})", half - target
    else:
        delta = target - half
    selector = 2 * m + 1
    low = f"(and (not {_shift(packed, m)}) (not x{selector}))"
    high = f"(and {_shift(_less_than(m, 2 * delta), m)} x{selector})"
    return f"(scope {selector}) (and {packed} (or {low} {high}))"


def pack_target(claims: list[int], n: int) -> int:
    return sum(c << (i * (n + 1)) for i, c in enumerate(claims))


@dataclass
class Batch:
    """k equality claims over n-variable circuits, one of them possibly false.

    ``bound`` is the apex bound eq_to_geq must produce and ``ops_out`` the
    operator count of the emitted circuit; ``text`` is its canonical text.
    """

    n: int
    texts: list[str]
    claims: list[int]
    corrupted: bool
    verified: bool  # False: emitted and round-tripped, not counted
    bound: int = field(init=False)
    ops_out: int = field(init=False)
    text: str = field(init=False)

    def __post_init__(self) -> None:
        scope = len(self.claims) * (self.n + 1)
        target = pack_target(self.claims, self.n)
        half = 1 << (scope - 1)
        delta = abs(target - half)
        x = target if target >= half else (1 << scope) - target
        self.bound = x * ((1 << scope) - x + 2 * delta)
        operands = [t.partition(") ")[2] for t in self.texts]
        self.text = collapse_text(operands, self.n, target)
        self.ops_out = self.text.count("(") - 1


def collapse_batch(
    rng: random.Random, k: int, n: int, corrupt: bool, verified: bool
) -> Batch:
    nodes = [random_circuit(rng, n, 2 * n + 2) for _ in range(k)]
    claims = [circuit_count(node, n) for node in nodes]
    if corrupt:
        i = rng.randrange(k)
        claims[i] = (claims[i] + rng.randint(1, 1 << n)) % ((1 << n) + 1)
    return Batch(n, [circuit_text(node, n) for node in nodes], claims, corrupt, verified)
