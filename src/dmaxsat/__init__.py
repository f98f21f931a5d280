"""Propositional model counting, count-shaping gadgets, and chooser-block
maximization at desk scale.

The package revolves around exact model counts: a brute-force oracle and a
splitting counter (`counting`), constructions that add, pack and reshape
counts with exact contracts (`gadgets`), a pipeline collapsing many count
equalities into one count threshold (`reduction`), and solvers for the
question "is there a chooser assignment whose counted block reaches B"
(`solver`). Everything is exercised end to end by `selftest` and exposed
through the `dmaxsat` command (`cli`).
"""

from .counting import (
    DEFAULT_LIMIT,
    ScopeLimitError,
    count_bruteforce,
    count_fast,
    threshold_check,
)
from .formats import ParseError, parse_circuit, parse_dimacs, print_circuit, read_formula
from .formula import (
    FALSE,
    TRUE,
    And,
    Formula,
    Node,
    Not,
    Or,
    ScopeError,
    Var,
    and_all,
    or_all,
)
from .gadgets import (
    k_value,
    less_than_const,
    pack_many,
    pack_pair,
    psi_gadget,
    unpack_digits,
)
from .reduction import (
    Collapse,
    EqualityQuery,
    ThresholdQuery,
    combine_equalities,
    eq_to_geq,
    split_target,
    verify_threshold,
)
from .solver import (
    SplitInstance,
    Witness,
    count_given_x,
    dmax_decide,
    dmax_pruned,
    max_count,
    parse_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LIMIT",
    "FALSE",
    "TRUE",
    "And",
    "Collapse",
    "EqualityQuery",
    "Formula",
    "Node",
    "Not",
    "Or",
    "ParseError",
    "ScopeError",
    "ScopeLimitError",
    "SplitInstance",
    "ThresholdQuery",
    "Var",
    "Witness",
    "and_all",
    "combine_equalities",
    "count_bruteforce",
    "count_fast",
    "count_given_x",
    "dmax_decide",
    "dmax_pruned",
    "eq_to_geq",
    "k_value",
    "less_than_const",
    "max_count",
    "or_all",
    "pack_many",
    "pack_pair",
    "parse_blocks",
    "parse_circuit",
    "parse_dimacs",
    "print_circuit",
    "psi_gadget",
    "read_formula",
    "split_target",
    "threshold_check",
    "unpack_digits",
    "verify_threshold",
]
