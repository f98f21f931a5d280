"""Spans around the program's public calls, recorded from outside the program.

:class:`Tracer` replaces public functions of the ``dmaxsat`` modules with
timing wrappers for the duration of a ``with`` block, including the names
one module imports from another (``solver.count_fast``,
``reduction.threshold_check``), so that cross-layer calls are counted and
timed. Each span records its name, start, end and parent; the benchmark
opens one root span per query. ``formula`` is reached only through other
layers, so its work is taken from the standard profiler's per-function
counts instead of spans.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from dataclasses import dataclass

# (module, attribute) pairs to wrap: the public functions the benchmark calls,
# and the names through which one layer calls another (gadgets is reached
# only from reduction). A span is named after the function's defining
# module, so solver.count_fast is recorded as counting.count_fast.
WRAPPED = [
    ("formats", "parse_circuit"),
    ("formats", "parse_dimacs"),
    ("formats", "print_circuit"),
    ("counting", "count_fast"),
    ("counting", "threshold_check"),
    ("reduction", "combine_equalities"),
    ("reduction", "verify_threshold"),
    ("reduction", "threshold_check"),
    ("reduction", "pack_many"),
    ("reduction", "psi_gadget"),
    ("solver", "max_count"),
    ("solver", "dmax_pruned"),
    ("solver", "count_fast"),
]


# results or arguments kept from a traced call, for depth, size and base counts
KEEP = {
    "formats.parse_circuit": lambda args, result: result,
    "formats.parse_dimacs": lambda args, result: result,
    "reduction.combine_equalities": lambda args, result: result.query.formula,
    "reduction.verify_threshold": lambda args, result: args[0].formula,
    "solver.max_count": lambda args, result: args[0],
    "solver.dmax_pruned": lambda args, result: args[0],
}


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 for a root
    tag: str  # "query" under a benchmark query, "base" under a base measurement
    start: float
    end: float = 0.0
    nbytes: int = 0  # text bytes read or written, for formats spans


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP}
        self.tag = "query"
        self.profile = cProfile.Profile()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr in WRAPPED:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, parent, self.tag, time.perf_counter()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        # an exception may unwind several wrappers at once
        del self.stack[self.stack.index(index):]

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        is_parse = name.startswith("formats.parse")
        is_print = name == "formats.print_circuit"
        keep = KEEP.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if is_parse:
                self.spans[index].nbytes = len(args[0])
            elif is_print:
                self.spans[index].nbytes = len(result)
            if keep and self.tag == "query":
                self.kept[name].append(keep(args, result))
            return result

        return wrapper

    # ------------------------------------------------------------ summaries

    def _named(self, name: str, tag: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.tag == tag]

    def total(self, name: str, tag: str = "query") -> float:
        """Inclusive seconds over every span called ``name``."""
        return sum(s.end - s.start for s in self._named(name, tag))

    def calls(self, name: str, tag: str = "query") -> int:
        return len(self._named(name, tag))

    def nbytes(self, prefix: str) -> int:
        return sum(s.nbytes for s in self.spans if s.name.startswith(prefix))

    def layer_busy(self, prefix: str) -> float:
        """Seconds inside the outermost spans whose names start with ``prefix``."""
        busy = 0.0
        for s in self.spans:
            if s.tag == "query" and s.name.startswith(prefix) and (
                s.parent < 0 or not self.spans[s.parent].name.startswith(prefix)
            ):
                busy += s.end - s.start
        return busy

    def calls_under(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Number of ``name`` spans with one of ``ancestors`` above them."""
        count = 0
        for s in self._named(name, "query"):
            p = s.parent
            while p >= 0 and self.spans[p].name not in ancestors:
                p = self.spans[p].parent
            count += p >= 0
        return count

    def formula_profile(self) -> dict[str, float]:
        """Per-function counts and self time of ``dmaxsat/formula.py``."""
        suffix = os.path.join("dmaxsat", "formula.py")
        stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        out = {"restrict_calls": 0, "nodes_built": 0, "eq_calls": 0, "self_s": 0.0}
        for (filename, _, func), (_, ncalls, tottime, _, _) in stats.items():
            if not filename.endswith(suffix):
                continue
            out["self_s"] += tottime
            if func in ("restrict", "substitute"):
                out["restrict_calls"] += ncalls
            elif func in ("__init__", "__new__"):
                out["nodes_built"] += ncalls
            elif func == "__eq__":
                out["eq_calls"] += ncalls
        return out


def tree_depth(node) -> int:
    """Depth of an operator tree, counted iteratively (leaves have depth 1)."""
    depth: dict[int, int] = {}
    stack = [(node, False)]
    while stack:
        item, expanded = stack.pop()
        if id(item) in depth:
            continue
        children = [
            getattr(item, a) for a in ("child", "left", "right") if hasattr(item, a)
        ]
        if expanded or not children:
            depth[id(item)] = 1 + max((depth[id(c)] for c in children), default=0)
        else:
            stack.append((item, True))
            stack.extend((c, False) for c in children)
    return depth[id(node)]
