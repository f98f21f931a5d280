#!/usr/bin/env python3
"""Time whole ``dmaxsat`` CLI runs of two checkouts against each other.

A one-question CLI process spends most of its time starting up, so this
times whole processes, not calls. Each side is a ``src`` directory that
``python -m dmaxsat`` imports from:

    python scripts/cli_startup.py --parent ../old/src --change src --rounds 21

It writes tiny inputs to a temporary directory and runs ``size``,
``count``, ``count --bound``, ``combine``, ``eq2geq``, ``maxcount`` and
``dmax`` once per side per round, alternating which side goes first. Both
sides must print the same stdout and exit with the same code, or it exits
1. For each command it prints each side's median wall time with its
quartiles, and in how many rounds the change was faster. ``--importtime`` also prints each
side's slowest imports in one ``count`` run, ranked by self time.
Standard library only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

INPUTS = {
    "f.ckt": "(scope 4) (or (and x1 x2) (or x3 (not x4)))\n",
    "g.ckt": "(scope 4) (and (or x1 x4) (not x2))\n",
    "f.cnf": "p cnf 5 3\n1 -2 0\n2 3 -4 0\n-1 5 0\n",
}

COMMANDS = {
    "size": ["size", "f.ckt"],
    "count": ["count", "f.cnf"],
    "count --bound": ["count", "f.ckt", "--bound", "12"],
    "combine": ["combine", "f.ckt:13", "g.ckt:4"],
    "eq2geq": ["eq2geq", "f.ckt", "13"],
    "maxcount": ["maxcount", "f.ckt", "x: 1 2 / y: 3 4"],
    "dmax": ["dmax", "f.ckt", "x: 1 2 / y: 3 4", "--bound", "3"],
}


def run(src: str, argv: list[str], workdir: str, *flags: str):
    """Wall time in ms, exit code, stdout and stderr of one CLI process."""
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "dmaxsat", *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = (time.perf_counter() - start) * 1e3
    return elapsed, proc.returncode, proc.stdout, proc.stderr


def quartiles(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, median, q3


def top_imports(stderr: str, count: int) -> list[tuple[int, str]]:
    """The ``count`` imports with the largest self time, in microseconds."""
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]), fields[2].strip()))
    return sorted(rows, reverse=True)[:count]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the baseline's src directory")
    parser.add_argument("--change", required=True, help="the candidate's src directory")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--importtime", action="store_true",
                        help="also list the slowest imports of one count run per side")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"parent": str(Path(args.parent).resolve()),
             "change": str(Path(args.change).resolve())}

    with tempfile.TemporaryDirectory() as workdir:
        for name, text in INPUTS.items():
            Path(workdir, name).write_text(text)
        times = {(cmd, side): [] for cmd in COMMANDS for side in sides}
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for cmd, argv in COMMANDS.items():
                outcomes = {}
                for side in order:
                    elapsed, code, out, err = run(sides[side], argv, workdir)
                    times[cmd, side].append(elapsed)
                    outcomes[side] = (code, out)
                if outcomes["parent"] != outcomes["change"]:
                    print(f"error: {cmd}: parent gave {outcomes['parent']!r}, "
                          f"change gave {outcomes['change']!r}", file=sys.stderr)
                    return 1

        print(f"{'command':<14} {'parent ms (median [q1, q3])':<28} "
              f"{'change ms (median [q1, q3])':<28} change faster")
        for cmd in COMMANDS:
            cells = []
            for side in sides:
                q1, median, q3 = quartiles(times[cmd, side])
                cells.append(f"{median:7.1f} [{q1:.1f}, {q3:.1f}]")
            wins = sum(c < p for p, c in zip(times[cmd, "parent"], times[cmd, "change"]))
            print(f"{cmd:<14} {cells[0]:<28} {cells[1]:<28} {wins}/{args.rounds}")

        if args.importtime:
            for side, src in sides.items():
                _, _, _, err = run(src, COMMANDS["count"], workdir, "-X", "importtime")
                print(f"\n{side}: slowest imports of one count run (self time)")
                for micros, module in top_imports(err, 12):
                    print(f"  {micros / 1e3:7.2f} ms  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
