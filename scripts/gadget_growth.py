#!/usr/bin/env python3
"""Tabulate gadget sizes against the operand scope.

The whole pipeline only works because every construction grows linearly:
the comparator adds 2n operators, the parabola gadget doubles its operand
plus a constant, and each packing stage adds 2n + 4. This prints the actual
operator counts so the growth is visible at a glance.
"""

import argparse
import random

from dmaxsat import less_than_const, pack_many, psi_gadget
from dmaxsat.generate import random_formula


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("-k", type=int, default=3, help="operands per packing chain")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'n':>3} {'|f|':>5} {'mkless':>7} {'psi':>7} {'pack(k=' + str(args.k) + ')':>12}")
    for n in range(1, args.max_n + 1):
        f = random_formula(rng, n, 2 * n)
        comparator = less_than_const(n, (1 << n) // 2)
        parabola = psi_gadget(f, (1 << n) // 4)
        chain = pack_many([random_formula(rng, n, 2 * n) for _ in range(args.k)])
        print(
            f"{n:>3} {f.size():>5} {comparator.size():>7} "
            f"{parabola.size():>7} {chain.size():>12}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
