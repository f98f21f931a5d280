"""Propositional model counting, count-shaping gadgets, and chooser-block
maximization at desk scale.

The package revolves around exact model counts: a brute-force oracle and a
splitting counter (`counting`), constructions that add, pack and reshape
counts with exact contracts (`gadgets`), a pipeline collapsing many count
equalities into one count threshold (`reduction`), and solvers for the
question "is there a chooser assignment whose counted block reaches B"
(`solver`). Everything is exercised end to end by `selftest` and exposed
through the `dmaxsat` command (`cli`).

``import dmaxsat`` loads no submodule. Each public name below, and each
submodule, is imported on first access (PEP 562), so a command that counts
never loads the solver, the gadgets or the self-test. ``from dmaxsat import
X``, ``from dmaxsat import *``, ``dir(dmaxsat)`` and ``dmaxsat.counting``
behave as if everything had been imported up front.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names each submodule defines
_DEFINED_IN = {
    "counting": ("DEFAULT_LIMIT", "ScopeLimitError", "count_bruteforce", "count_fast",
                 "threshold_check"),
    "formats": ("ParseError", "parse_circuit", "parse_dimacs", "print_circuit",
                "read_formula"),
    "formula": ("FALSE", "TRUE", "And", "Formula", "Node", "Not", "Or", "ScopeError",
                "Var", "and_all", "or_all"),
    "gadgets": ("k_value", "less_than_const", "pack_many", "pack_pair", "psi_gadget",
                "unpack_digits"),
    "reduction": ("Collapse", "EqualityQuery", "ThresholdQuery", "combine_equalities",
                  "eq_to_geq", "split_target", "verify_threshold"),
    "solver": ("SplitInstance", "Witness", "count_given_x", "dmax_decide", "dmax_pruned",
               "max_count", "parse_blocks"),
}
_EXPORTS = {name: module for module, names in _DEFINED_IN.items() for name in names}
_SUBMODULES = {*_DEFINED_IN, "cli", "generate", "selftest"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it on the package
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
