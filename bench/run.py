#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for the dmaxsat package.

Run from the repository root:

    python3 bench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # one row per workload
    python3 bench/run.py --smoke                      # tiny slice, checks only

Each workload is a closed loop with one client in one process: the next
query starts when the previous one has returned. Queries are built from the
seed as text, and every answer is compared with an expected answer computed
by the benchmark's own oracle (``corpus.py``). Times are scaled to a fixed
host speed (``hostspeed.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. README.md lists the workloads, the metrics and
the predictions that tie each layer metric to an end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from hostspeed import NOMINAL_S, HostSpeed, Timed, unscaled  # noqa: E402
from spans import Tracer, tree_depth  # noqa: E402

WORKLOADS = ("count", "collapse", "chooser")
SETUP_REPEATS = 9
CLI_INPUTS = 6  # inputs of the first size class that the CLI runs also ask about
CLI_REPEATS = 5
CLI_TIMEOUT_S = 120
CROSS_CHECK_SCOPE = 20  # largest scope count_bruteforce is asked to check
# the tail is the highest of these percentiles with ten samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def load_program():
    """Import dmaxsat from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dmaxsat" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'dmaxsat'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("dmaxsat")
    if Path(package.__file__).resolve().parent != SRC / "dmaxsat":
        sys.exit(f"error: imported dmaxsat from {package.__file__}, not {SRC}")
    return package


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------- workloads


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    expected: object


@dataclass
class Group:
    """The queries asked about one input, which stay together in the list."""

    data: tuple
    queries: list[Query]


@dataclass
class CliCase:
    """One ``python -m dmaxsat`` run, judged by exit code and stdout."""

    argv: list[str]
    code: int
    stdout: str | None = None  # exact text expected, or None to use ``check``
    check: Callable[[str, Path], bool] | None = None


@dataclass
class Workload:
    groups: list[Group]
    cli: list[CliCase]
    files: dict[str, str]  # inputs the CLI cases read, by file name
    # inputs too deep for the seed's recursive code, asked once outside the
    # timed loop and outside the result's tally, so that the timed workload
    # has no failing operation while a fix still shows in fail_ratio
    deep: list[Group]

    def queries(self, traced: bool = False) -> list[Query]:
        """All queries, or for a traced run those of the first quarter of the inputs."""
        groups = self.groups[: (len(self.groups) + 3) // 4] if traced else self.groups
        return [q for g in groups for q in g.queries]


def interleave(classes: list[list]) -> list:
    """Spread every size class evenly over the list, so that any prefix keeps the mix."""
    keyed = [((i + 0.5) / len(c), k, item) for k, c in enumerate(classes) for i, item in enumerate(c)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


# Full sizes make one pass over a list take about 7 s at the seed, with
# times scaled to the reference speed, so that a run of 30 s times every
# query three or four times and a burst of load from other tenants of a
# shared host reaches few of its samples. Inputs of one size vary in cost by
# a factor of two or more, so a list needs a few hundred distinct inputs for
# its figures to repeat across seeds; larger sizes, of which a pass could
# hold only a few, are left out. Sizes of very different cost, mixed, put
# the median or the p90 in a gap between them, where it jumps from seed to
# seed: count and chooser use one size each; in collapse the 8x8 batches
# and the round trips, which cost about the same, hold the median, and the
# p90 falls near the middle of the 12x10 class.
# Smoke sizes keep every scope small enough for the program's brute-force
# oracles.
COUNT_SIZES = {
    "full": {12: 330},
    "smoke": {10: 2, 12: 2},
}
CHAINS = {"full": (300,), "smoke": (12,)}
DEEP_CHAIN = {"full": 1500, "smoke": 40}
CNF_RATIO = 3.0
COLLAPSE_VERIFIED = {  # (k claims, n variables, batches); odd batches are corrupted
    "full": [(6, 6, 20), (8, 8, 80), (12, 10, 30), (16, 12, 4)],
    "smoke": [(3, 4, 2), (4, 4, 2)],
}
COLLAPSE_ROUNDTRIP = {"full": [(24, 12, 9), (32, 12, 9)], "smoke": [(6, 4, 1)]}
DEEP_ROUNDTRIP = {"full": (64, 16), "smoke": (8, 4)}
CHOOSER_SIZES = {"full": (6, 5, 320), "smoke": (3, 6, 3)}  # |x|, |y|, instances
CHOOSER_RATIO = 2.5


def build_count(dm, rng: random.Random, mode: str) -> Workload:
    def count(text):
        return dm.counting.count_fast(dm.formats.parse_dimacs(text))

    def atleast(text, bound):
        return dm.counting.threshold_check(dm.formats.parse_dimacs(text), bound)

    def group(label: str, text: str, models: int) -> Group:
        return Group((text, models), [
            Query(f"{label} count", lambda: count(text), models),
            Query(f"{label} >= count", lambda: atleast(text, models), True),
            Query(f"{label} >= count+1", lambda: atleast(text, models + 1), False),
        ])

    # the chain comes first, so that the traced quarter includes it
    groups = [group(f"chain {n}", corpus.chain_cnf(n).text(), n + 1) for n in CHAINS[mode]]
    n = DEEP_CHAIN[mode]
    deep = [group(f"chain {n}", corpus.chain_cnf(n).text(), n + 1)]
    classes = [
        [(n, i, corpus.random_3cnf(rng, n, CNF_RATIO)) for i in range(how_many)]
        for n, how_many in COUNT_SIZES[mode].items()
    ]
    cli, files = [], {}
    for n, i, cnf in interleave(classes):
        models = sum(corpus.cnf_counts(cnf))
        text = cnf.text()
        groups.append(group(f"3cnf n={n} #{i}", text, models))
        if n == min(COUNT_SIZES[mode]) and len(files) < CLI_INPUTS:
            name = f"f{len(files)}.cnf"
            files[name] = text
            cli.append(CliCase(["count", name], 0, f"{models}\n"))
            cli.append(CliCase(["count", name, "--bound", str(models + 1)], 0, "no\n"))
    return Workload(groups, cli, files, deep)


def build_collapse(dm, rng: random.Random, mode: str) -> Workload:
    def emit(batch: corpus.Batch):
        operands = [dm.formats.parse_circuit(t) for t in batch.texts]
        claims = [dm.reduction.EqualityQuery(f, c) for f, c in zip(operands, batch.claims)]
        collapse = dm.reduction.combine_equalities(claims)
        return collapse, dm.formats.print_circuit(collapse.query.formula)

    def verified(batch: corpus.Batch):
        collapse, text = emit(batch)
        query = dm.reduction.ThresholdQuery(dm.formats.parse_circuit(text), collapse.query.bound)
        verdict = dm.reduction.verify_threshold(query)
        return verdict, collapse.query.bound, text.count("(") - 1, digest(text)

    def roundtrip(batch: corpus.Batch):
        collapse, text = emit(batch)
        again = dm.formats.print_circuit(dm.formats.parse_circuit(text))
        return None, collapse.query.bound, again.count("(") - 1, digest(again)

    verified_classes = [
        [corpus.collapse_batch(rng, k, n, i % 2 == 1, True) for i in range(how_many)]
        for k, n, how_many in COLLAPSE_VERIFIED[mode]
    ]
    roundtrips = [
        corpus.collapse_batch(rng, k, n, False, False)
        for k, n, how_many in COLLAPSE_ROUNDTRIP[mode]
        for _ in range(how_many)
    ]

    def group(batch: corpus.Batch) -> Group:
        k = len(batch.claims)
        verdict = (not batch.corrupted) if batch.verified else None
        expected = (verdict, batch.bound, batch.ops_out, digest(batch.text))
        run = verified if batch.verified else roundtrip
        label = f"{'verify' if batch.verified else 'roundtrip'} {k}x{batch.n}"
        return Group((batch,), [Query(label, lambda: run(batch), expected)])

    deep = [group(corpus.collapse_batch(rng, *DEEP_ROUNDTRIP[mode], False, False))]
    groups, cli, files = [], [], {}
    for batch in interleave(verified_classes + [roundtrips]):
        groups.append(group(batch))
        first_shape = (len(batch.claims), batch.n) == COLLAPSE_VERIFIED[mode][0][:2]
        if batch.verified and first_shape and len(cli) < CLI_INPUTS:  # two cases a batch
            cli += collapse_cli(batch, files)
    return Workload(groups, cli, files, deep)


def collapse_cli(batch: corpus.Batch, files: dict[str, str]) -> list[CliCase]:
    tag = len(files)
    claims = []
    for i, (text, claimed) in enumerate(zip(batch.texts, batch.claims)):
        files[f"b{tag}_{i}.ckt"] = text + "\n"
        claims.append(f"b{tag}_{i}.ckt:{claimed}")
    out, query = f"b{tag}_out.ckt", f"b{tag}_query.ckt"
    files[query] = batch.text + "\n"

    def audit_ok(stdout: str, workdir: Path) -> bool:
        # the audit line carries the input digest, so check its fields and
        # compare the written circuit byte for byte
        lines = stdout.splitlines()
        if len(lines) != 1 or (workdir / out).read_text() != batch.text + "\n":
            return False
        audit = json.loads(lines[0])
        return audit["bound"] == str(batch.bound) and audit["size"] == batch.ops_out

    return [
        CliCase(["combine", *claims, "--out", out], 0, check=audit_ok),
        CliCase(["count", query, "--bound", str(batch.bound)], 0,
                "no\n" if batch.corrupted else "yes\n"),
    ]


def build_chooser(dm, rng: random.Random, mode: str) -> Workload:
    def ask(text, xs, ys, best):
        # one query maximises and decides at best (yes) and best + 1 (no):
        # as three queries, their costs differ threefold and the median
        # would sit in a gap between them
        f = dm.formats.parse_dimacs(text)
        w = dm.solver.max_count(dm.solver.SplitInstance(f, xs, ys))
        decided = [dm.solver.dmax_pruned(dm.solver.SplitInstance(f, xs, ys, b))
                   for b in (best, best + 1)]
        return [(w.values, w.achieved)] + [d and (d.values, d.achieved) for d in decided]

    nx, ny, instances = CHOOSER_SIZES[mode]
    groups, cli, files = [], [], {}
    for i in range(instances):
        n = nx + ny
        cnf = corpus.random_3cnf(rng, n, CHOOSER_RATIO)
        xs = tuple(sorted(rng.sample(range(1, n + 1), nx)))
        ys = tuple(v for v in range(1, n + 1) if v not in xs)
        # the oracle puts y on the low positions, so entry h of by_mask is
        # the y-count of the chooser in which xs[j] takes bit j of h
        by_mask = corpus.cnf_counts(cnf, list(ys) + list(xs), low=len(ys))
        lex = [tuple(bool((r >> (nx - 1 - j)) & 1) for j in range(nx)) for r in range(1 << nx)]
        achieved = [by_mask[sum(b << j for j, b in enumerate(v))] for v in lex]
        best = max(achieved)
        witness = (lex[achieved.index(best)], best)
        text = cnf.text()
        groups.append(Group((text, xs, ys, witness), [
            Query(f"chooser #{i}", lambda t=text, a=xs, b=ys, c=best: ask(t, a, b, c),
                  [witness, witness, None]),
        ]))
        if len(files) < CLI_INPUTS:
            name = f"s{len(files)}.cnf"
            files[name] = text
            blocks = f"x: {' '.join(map(str, xs))} / y: {' '.join(map(str, ys))}"
            shown = " ".join(f"x{v}={int(b)}" for v, b in zip(xs, witness[0]))
            cli.append(CliCase(["maxcount", name, blocks], 0, f"{shown} count={best}\n"))
            if len(files) == 1:
                cli.append(CliCase(["dmax", name, blocks, "--bound", str(best + 1)], 1, "no\n"))
    return Workload(groups, cli, files, [])


BUILDERS = {"count": build_count, "collapse": build_collapse, "chooser": build_chooser}


def cross_check(dm, name: str, work: Workload) -> tuple[int, list[str]]:
    """Compare stored answers with the program's own reference engines.

    Runs on the smoke corpus in ``--smoke`` and on a full corpus with
    ``--cross-check``; it takes too long for set-up, so timed runs rest on
    the truth-table oracle. Formulas with a scope above
    ``CROSS_CHECK_SCOPE`` (the 300-variable chain) keep their closed-form
    count unchecked. Returns the number of inputs checked and the names of
    those that disagree.
    """
    checked, bad = 0, []
    for g in work.groups:
        if name == "count":
            text, models = g.data
            f = dm.formats.parse_dimacs(text)
            if f.scope > CROSS_CHECK_SCOPE:
                continue
            ok = dm.counting.count_bruteforce(f) == models
        elif name == "collapse":
            (batch,) = g.data
            counts = [dm.counting.count_bruteforce(dm.formats.parse_circuit(t)) for t in batch.texts]
            ok = (counts == batch.claims) != batch.corrupted
        else:
            text, xs, ys, witness = g.data
            f = dm.formats.parse_dimacs(text)
            ok = True
            for bound, expected in ((witness[1], witness), (witness[1] + 1, None)):
                w = dm.solver.dmax_decide(dm.solver.SplitInstance(f, xs, ys, bound))
                ok &= (None if w is None else (w.values, w.achieved)) == expected
        checked += 1
        if not ok:
            bad.append(g.queries[0].name)
    return checked, bad


def set_up(dm, name: str, seed: int, mode: str, repeats: int,
           speed: HostSpeed | None = None) -> tuple[Workload, Timed]:
    """Build the corpus and warm up, ``repeats`` times; returns each time."""
    times, work = [], None
    for _ in range(repeats):
        work = None  # so that peak memory holds one corpus, not two
        if speed:
            speed.sample(force=True)
        started = time.perf_counter()
        work = BUILDERS[name](dm, random.Random(seed), mode)
        # warm up on a fixed tiny corpus, so that set-up time does not
        # depend on how hard the seed's inputs are
        for q in BUILDERS[name](dm, random.Random(0), "smoke").queries():
            q.run()
        times.append((started, time.perf_counter() - started))
    if speed:
        speed.sample(force=True)
    return work, times


# ------------------------------------------------------------- measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def judge(self, ok: bool | None) -> None:
        """ok: True correct, False wrong answer, None no answer (crash)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += ok is False

    def merge_wrong(self, deep: "Tally") -> "Tally":
        """This tally, with the wrong answers of the deep inputs added.

        A deep input may fail by raising, as at the seed, without counting
        against the result; a wrong answer from it still makes it incorrect.
        """
        self.wrong += deep.wrong
        return self


def run_queries(queries: list[Query], tally: Tally, budget: float | None = None, tracer=None,
                between: Callable[[float], None] | None = None,
                speed: HostSpeed | None = None) -> tuple[list[Timed], float]:
    """Run ``queries`` once, or with a ``budget`` cycle through them until it is spent.

    ``between`` is called with the busy time so far after each query, and
    ``speed`` is sampled between queries. Returns each query's timed runs
    (infinitely long when failed) and the busy time.
    """
    latencies: list[Timed] = [[] for _ in queries]
    busy, i, passes = 0.0, 0, 0
    reported: set[str] = set()
    while queries and ((passes == 0) if budget is None else (busy < budget)):
        if speed:
            speed.sample()
        q = queries[i]
        span = tracer.open(q.name) if tracer else None
        started = time.perf_counter()
        try:
            answer = q.run()
            error = None
        except Exception as exc:  # a crash is a failed query, not the end of the run
            answer, error = None, exc
        elapsed = time.perf_counter() - started
        if tracer:
            tracer.close(span)
        busy += elapsed
        ok = None if error else answer == q.expected
        tally.judge(ok)
        latencies[i].append((started, elapsed if ok else float("inf")))
        if not ok and q.name not in reported:
            reported.add(q.name)
            why = f"{type(error).__name__}: {str(error)[:80]}" if error else f"got {answer!r:.120}"
            print(f"failed: {q.name}: {why}", file=sys.stderr)
        if between:
            between(busy)
        i += 1
        if i == len(queries):
            i, passes = 0, passes + 1
    return latencies, busy


class CliRunner:
    """Runs ``python -m dmaxsat`` cases one at a time in a scratch directory.

    A run counts only when both its exit code and its stdout are right: the
    program exits 1 for a "no" verdict and also for an uncaught traceback.
    """

    def __init__(self, files: dict[str, str], tally: Tally):
        self.files, self.tally = files, tally
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def __enter__(self) -> "CliRunner":
        self.workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
        for name, text in self.files.items():
            (self.workdir / name).write_text(text)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, case: CliCase) -> tuple[float, float]:
        """Start and wall time of one run, infinitely long when it failed."""
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dmaxsat", *case.argv], cwd=self.workdir,
                env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
            proc = subprocess.CompletedProcess(exc.cmd, None, "", "timed out")
        wall = time.perf_counter() - started
        if proc.returncode != case.code:
            ok = None if proc.returncode not in (0, 1) or not proc.stdout else False
        elif case.stdout is not None:
            ok = proc.stdout == case.stdout
        else:
            ok = case.check(proc.stdout, self.workdir)
        self.tally.judge(ok)
        if not ok:
            print(f"failed: dmaxsat {' '.join(case.argv)[:60]}: exit {proc.returncode}, "
                  f"stdout {proc.stdout[:60]!r}, stderr {proc.stderr[-200:]!r}", file=sys.stderr)
        return started, wall if ok else float("inf")


def end_to_end(dm, name: str, seed: int, seconds: float | None, mode: str) -> tuple[dict, Tally, str]:
    speed = HostSpeed()
    work, setups = set_up(dm, name, seed, mode, SETUP_REPEATS, speed)
    tally = Tally()
    queries = work.queries()
    plan = [case for _ in range(CLI_REPEATS) for case in work.cli]
    walls: Timed = []
    with CliRunner(work.files, tally) as cli:
        def run_cli() -> None:
            speed.sample(force=True)
            walls.append(cli.run(plan[len(walls)]))

        def between(busy: float) -> None:
            # CLI runs are spread over the timed loop, so that a burst of load
            # from other tenants of the host cannot slow all of them at once
            while seconds and len(walls) < len(plan) and busy >= len(walls) * seconds / len(plan):
                run_cli()

        latencies, busy = run_queries(queries, tally, seconds, between=between, speed=speed)
        while len(walls) < len(plan):
            run_cli()
        speed.sample(force=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deep = Tally()
    run_queries([q for g in work.deep for q in g.queries], deep)
    metrics, tail_note = time_figures(setups, latencies, walls, speed.scale)
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    raw, _ = time_figures(setups, latencies, walls, unscaled)
    factors = [NOMINAL_S / took for took in speed.took]
    note = (f"{tail_note}, {sum(len(ls) for ls in latencies)} timed runs in {busy:.1f} s, "
            f"cli over {len(walls)} runs, {fail_ratio(tally, deep)}; host speed factor "
            f"median {statistics.median(factors):.3f} over {len(factors)} samples, unscaled: "
            + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()))
    return metrics, tally.merge_wrong(deep), note


def time_figures(setups: Timed, latencies: list[Timed], walls: Timed,
                 scale: Callable[[Timed], list[float]]) -> tuple[dict, str]:
    """The end-to-end time metrics, with each time passed through ``scale``."""
    # one latency per query reached, its median over the passes, so that
    # the mix of the sample stays that of the list and a burst of load that
    # slows one pass is outvoted
    per_query = sorted(statistics.median(scale(ls)) for ls in latencies if ls)
    answered = [t for t in per_query if t < float("inf")]
    n = len(per_query)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) >= 1000), 50.0)
    tail = math.ceil(n * pct / 100)  # nearest rank, 1-based
    return {
        "setup_s": (statistics.median(scale(setups)), "s"),
        "queries_per_s": (len(answered) / sum(answered) if answered else 0.0, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(per_query), "ms"),
        "latency_tail_ms": (1000 * per_query[tail - 1], "ms"),
        "cli_p50_ms": (1000 * statistics.median(scale(walls)), "ms"),
    }, f"tail=p{pct:g} of {n} queries"


def fail_ratio(tally: Tally, deep: Tally) -> str:
    ratio = f"fail_ratio={tally.failed + deep.failed}/{tally.attempted + deep.attempted}"
    if not deep.attempted:
        return ratio
    return f"{ratio} with the deep inputs, which failed {deep.failed}/{deep.attempted}"


def per_layer(dm, name: str, seed: int, seconds: float | None, mode: str) -> tuple[dict, Tally, str]:
    work, _ = set_up(dm, name, seed, mode, 1)
    tally = Tally()
    queries = work.queries(traced=True)
    # whole untraced passes first: the tracing overhead compares pass times
    plain = []
    while not plain or sum(plain) < (seconds or 0) / 4:
        plain.append(run_queries(queries, tally)[1])
    tracer = Tracer(dm)
    deep = Tally()
    with tracer:
        traced = run_queries(queries, tally, tracer=tracer)[1]
        run_queries([q for g in work.deep for q in g.queries], deep, tracer=tracer)
        tracer.profile.disable()
        prof = tracer.formula_profile()
        if name == "collapse":
            # count_fast on the formulas threshold_check decided is the base
            # of threshold_over_count; its spans stay out of the layer sums
            tracer.profile.enable()
            tracer.tag = "base"
            for formula in tracer.kept["reduction.verify_threshold"]:
                dm.counting.count_fast(formula)
    base_tag = "base" if name == "collapse" else "query"
    count_s = tracer.total("counting.count_fast", base_tag)
    count_calls = tracer.calls("counting.count_fast", base_tag)
    threshold_s = tracer.total("counting.threshold_check")
    threshold_calls = tracer.calls("counting.threshold_check")
    over_count = 0.0
    if count_calls and threshold_calls:
        over_count = (threshold_s / threshold_calls) / (count_s / count_calls)
    solves = tracer.kept["solver.max_count"] + tracer.kept["solver.dmax_pruned"]
    solver_counts = tracer.calls_under("counting.count_fast", ("solver.max_count", "solver.dmax_pruned"))
    enumeration = sum(1 << len(instance.x_vars) for instance in solves)
    emitted = tracer.kept["reduction.combine_equalities"]
    trees = tracer.kept["formats.parse_dimacs"] + tracer.kept["formats.parse_circuit"] + emitted
    parse_s = tracer.layer_busy("formats.parse")
    print_s = tracer.total("formats.print_circuit")
    metrics = {
        "formula.restrict_calls": (prof["restrict_calls"], "count"),
        "formula.nodes_built": (prof["nodes_built"], "count"),
        "formula.eq_calls": (prof["eq_calls"], "count"),
        "formula.self_s": (prof["self_s"], "s"),
        "formula.max_depth": (max((tree_depth(f.node) for f in trees), default=0), "count"),
        "formats.parse_s": (parse_s, "s"),
        "formats.print_s": (print_s, "s"),
        "formats.bytes_per_s": (tracer.nbytes("formats.") / (parse_s + print_s), "B/s"),
        "counting.count_fast_s": (tracer.total("counting.count_fast"), "s"),
        "counting.threshold_s": (threshold_s, "s"),
        "counting.calls": (tracer.calls("counting.count_fast") + threshold_calls, "count"),
        "counting.threshold_over_count": (over_count, "ratio"),
        "gadgets.build_s": (tracer.layer_busy("gadgets."), "s"),
        "gadgets.ops_out": (sum(f.size() for f in emitted), "count"),
        "reduction.combine_s": (tracer.total("reduction.combine_equalities"), "s"),
        "reduction.verify_s": (tracer.total("reduction.verify_threshold"), "s"),
        "solver.max_count_s": (tracer.total("solver.max_count"), "s"),
        "solver.dmax_pruned_s": (tracer.total("solver.dmax_pruned"), "s"),
        "solver.count_calls": (solver_counts / len(solves) if solves else 0.0, "count"),
        "solver.calls_over_enum": (solver_counts / enumeration if enumeration else 0.0, "ratio"),
        "cli.startup_ms": (cli_startup_ms(tally), "ms"),
        "trace.overhead_pct": (100.0 * (traced / statistics.median(plain) - 1), "%"),
        "deep_inputs.failed": (deep.failed, "count"),
    }
    note = f"traced {len(queries)} of {len(work.queries())} queries once; "
    if threshold_calls:
        where = "on the formulas it decided" if name == "collapse" else "in the same queries"
        note += f"threshold_over_count base: {count_calls} count_fast calls {where}; "
    note += fail_ratio(tally, deep)
    return metrics, tally.merge_wrong(deep), note


def cli_startup_ms(tally: Tally) -> float:
    """Median wall time of ``dmaxsat size`` on a one-operator circuit."""
    case = CliCase(["size", "tiny.ckt"], 0, "1\n")
    with CliRunner({"tiny.ckt": "(scope 1) (not x1)\n"}, tally) as cli:
        return 1000 * statistics.median(cli.run(case)[1] for _ in range(5))


# ------------------------------------------------------------------ driver


def run_workload(name: str, seed: int, seconds: float | None, trace: bool, mode: str = "full") -> dict:
    """Measure one workload; ``seconds=None`` runs its list exactly once."""
    dm = load_program()
    measure = per_layer if trace else end_to_end
    metrics, tally, note = measure(dm, name, seed, seconds, mode)
    return {
        "row": f"{name:8s} " + "  ".join(
            f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()) + f"  [{note}]",
        "result": {
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# per-layer counts that must repeat exactly between traced runs of one seed
EXACT = ("formula.restrict_calls", "formula.nodes_built", "formula.eq_calls",
         "formula.max_depth", "counting.calls", "gadgets.ops_out", "solver.count_calls")


def smoke() -> int:
    """Tiny slice of every workload: answers, oracle cross-checks, metric names.

    Also checks that the per-layer counts repeat exactly between two traced runs.
    """
    dm = load_program()
    problems = []
    for name in WORKLOADS:
        work = BUILDERS[name](dm, random.Random(7), "smoke")
        problems += [f"{name}: oracle disagrees on {q}" for q in cross_check(dm, name, work)[1]]
        results = []
        for trace in (False, True, True):
            out = run_workload(name, 7, None, trace, "smoke")
            print(out["row"])
            result = out["result"]
            results.append(result["metrics"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: {result['failed']} of {result['attempted']} failed")
            if sorted(result["metrics"]) != sorted(declared_metrics(trace)):
                problems.append(f"{name}: metric names differ from BENCHMARK.json")
        problems += [f"{name}: {m} differs between traced runs"
                     for m in EXACT if results[1][m] != results[2][m]]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def full_cross_check(names: tuple[str, ...], seed: int) -> int:
    dm = load_program()
    status = 0
    for name in names:
        work = BUILDERS[name](dm, random.Random(seed), "full")
        checked, bad = cross_check(dm, name, work)
        print(f"{name}: {checked - len(bad)} of {checked} inputs checked agree, "
              f"{len(work.groups) - checked} of scope above {CROSS_CHECK_SCOPE} not checked"
              + (f"; disagree: {', '.join(bad)}" if bad else ""))
        status |= bool(bad)
    return status


def table(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one row each."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{name:8s} error: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{lines[-2]}  correct={result['correct']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the tiny self-check")
    parser.add_argument("--cross-check", action="store_true",
                        help="check the full corpus of --workload and --seed against "
                             "the program's reference engines, untimed")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: a running CLI child is killed and waited for, and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.smoke:
        return smoke()
    if args.cross_check:
        return full_cross_check(WORKLOADS if args.workload == "all" else (args.workload,), args.seed)
    if args.workload == "all":
        return table(args.seed, args.seconds, bool(args.trace))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(out["row"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
