"""Scaling of measured times to a fixed host speed.

On a shared host the speed of every pure-Python loop drifts by half or more
within minutes, far beyond the benchmark's bounds, and the drift does not
average out within a run. :class:`HostSpeed` samples a fixed reference task
through a run and scales each time taken by the task's nominal time over the
median of the samples nearest to it.

The reference task shares no code or data with the program, so a change to
the program does not move it: a slower program still reads slower. It is a
basket of three small loops of the kinds of work the program does, because
contention on the host slows them by different amounts: integer arithmetic,
restriction of an operator tree through a memo table, and tokenising and
parsing s-expression text into tuples. The collector is paused while it runs,
so that the size of the program's heap does not reach it, and each sample
times the second of two runs, so that the caches the program's last query
left behind do not reach it either.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

NOMINAL_S = 0.002  # the reference task's time at the speed all times are scaled to
EVERY_S = 0.2  # wall seconds between samples
WINDOW = 15  # samples nearest in time that set the scale of one time

Timed = list[tuple[float, float]]  # (perf_counter at the start, seconds taken)


class _Node:
    __slots__ = ("op", "left", "right", "_hash")

    def __init__(self, op: str, left, right) -> None:
        self.op, self.left, self.right = op, left, right
        self._hash = hash((op, id(left), id(right)))

    def __hash__(self) -> int:
        return self._hash

    def restrict(self, var: int, value: bool, memo: dict) -> object:
        done = memo.get(self)
        if done is None:
            if self.op == "var":
                done = value if self.left == var else self
            else:
                done = _Node(self.op, self.left.restrict(var, value, memo),
                             self.right.restrict(var, value, memo))
            memo[self] = done
        return done


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0:
        return _Node("var", rng.randint(1, 8), None)
    return _Node(rng.choice("&|"), _tree(rng, depth - 1), _tree(rng, depth - 1))


_TREE = _tree(random.Random(0), 8)
_TEXT = " ".join(f"(and x{i} (not x{i + 1}))" for i in range(300))


def _arithmetic() -> int:
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return total


def _restrict() -> None:
    for var in (1, 2):
        _TREE.restrict(var, True, {})


def _parse() -> list:
    stack: list[list] = [[]]
    for token in _TEXT.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([])
        elif token == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append(token)
    return stack[0]


def reference_task() -> float:
    """Seconds taken by the fixed reference work."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _arithmetic()
        _restrict()
        _parse()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Samples the reference task through a run and scales times by it."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the reference task, unless it ran less than ``EVERY_S`` ago."""
        if force or not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            reference_task()  # warms the caches
            self.at.append(time.perf_counter())
            self.took.append(reference_task())

    def factor(self, started: float) -> float:
        i = bisect.bisect(self.at, started)
        lo = max(0, min(i - WINDOW // 2, len(self.at) - WINDOW))
        return NOMINAL_S / statistics.median(self.took[lo:lo + WINDOW])

    def scale(self, timed: Timed) -> list[float]:
        return [took * self.factor(started) for started, took in timed]


def unscaled(timed: Timed) -> list[float]:
    return [took for _, took in timed]
