"""CLI behavior: outputs, exit codes, audit lines, determinism."""

import decimal
import json
import subprocess
import sys
import threading

import pytest

from dmaxsat import (
    And,
    Formula,
    Not,
    Or,
    SplitInstance,
    Var,
    Witness,
    count_bruteforce,
    count_fast,
    k_value,
    less_than_const,
    max_count,
    or_all,
    parse_circuit,
    print_circuit,
    psi_gadget,
    threshold_check,
    unpack_digits,
)
from dmaxsat.cli import main
import dmaxsat.cli
import dmaxsat.selftest


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "or2.ckt": "(scope 2) (or x1 x2)\n",
        "and2.ckt": "(scope 2) (and x1 x2)\n",
        "f3.cnf": "c demo\np cnf 3 2\n1 2 0\n-1 3 0\n",
        "true2.ckt": "(scope 2) true\n",
        "bad.ckt": "(scope 1) (or x1 x2)\n",
        "big.ckt": "(scope 30) x1\n",
        "plain.txt": "(scope 1) x1\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_count_outputs(run, files):
    assert run("count", files["f3.cnf"]) == (0, "4\n", "")
    assert run("count", files["true2.ckt"]) == (0, "4\n", "")
    assert run("count", files["f3.cnf"], "--engine", "brute") == (0, "4\n", "")
    assert run("count", files["or2.ckt"], "--bound", "0") == (0, "yes\n", "")
    assert run("count", files["or2.ckt"], "--bound", "3")[1] == "yes\n"
    assert run("count", files["or2.ckt"], "--bound", "4")[1] == "no\n"
    assert run("count", files["plain.txt"], "--format", "circuit") == (0, "1\n", "")


def test_count_exit_codes(run, files):
    code, _, err = run("count", files["bad.ckt"])
    assert code == 2 and "scope" in err
    code, _, err = run("count", str(files["dir"] / "missing.ckt"))
    assert code == 2
    code, _, err = run("count", files["big.ckt"], "--engine", "brute")
    assert code == 3 and "limit" in err
    code, _, err = run("count", files["plain.txt"])
    assert code == 2 and "format" in err


@pytest.mark.parametrize(
    "argv,code_at_0",
    [
        (("count", "f3.cnf", "--engine", "brute"), 3),
        (("count", "f3.cnf"), 0),
        (("dmax", "or2.ckt", "x: 1 / y: 2", "--bound", "1"), 3),
        (("maxcount", "or2.ckt", "x: 1 / y: 2"), 3),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value),
)
def test_negative_limit_is_bad_input(files, capsys, argv, code_at_0):
    path, rest = files[argv[1]], argv[2:]
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], path, *rest, "--limit", "-1"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == (
        f"dmaxsat {argv[0]}: error: argument --limit: must be nonnegative, got -1"
    )
    # 0 is a limit: the scope-limited engines refuse any variable
    assert main([argv[0], path, *rest, "--limit", "0"]) == code_at_0


def test_internal_failure_exits_4_without_traceback(run, files, monkeypatch):
    def broken(args):
        raise KeyError("forced failure")

    monkeypatch.setattr(dmaxsat.cli, "cmd_count", broken)
    code, out, err = run("count", files["or2.ckt"])
    assert (code, out) == (4, "")
    assert err == "error: internal failure: KeyError: 'forced failure'\n"


def test_deep_chain_is_counted_or_reported(run, tmp_path):
    # an implication chain x1 -> x2 -> ... -> x1501 has the 1502 models
    # F^a T^(1501-a); the counter's search is not bounded by input depth
    links = "".join(f"-{i} {i + 1} 0\n" for i in range(1, 1501))
    path = tmp_path / "chain.cnf"
    path.write_text(f"p cnf 1501 1500\n{links}")
    assert run("count", str(path)) == (0, "1502\n", "")
    assert run("count", str(path), "--bound", "1503") == (0, "no\n", "")


def test_deep_circuit_is_read_and_written(run, tmp_path):
    # a 1500-variable comparator is a right-folded chain 3000 operators deep
    path = tmp_path / "lt.ckt"
    path.write_text(print_circuit(less_than_const(1500, 12345)) + "\n")
    assert run("size", str(path)) == (0, "3000\n", "")
    target = tmp_path / "psi.ckt"
    code, out, err = run("psi", str(path), "--delta", "0", "--out", str(target))
    assert (code, err) == (0, "")
    audit = json.loads(out)
    assert (audit["scope"], audit["size"]) == (3001, 9006)
    assert run("size", str(target)) == (0, "9006\n", "")


def test_deep_conjunct_is_counted(run, tmp_path):
    # the psi gadget of a 1500-variable comparator is a single conjunct far
    # deeper than the default recursion limit, yet its search restricts the
    # chain only at its top; brute force evaluates the 3000-deep negation
    # nest recursively, so that command runs again in the worker thread
    path = tmp_path / "psi.ckt"
    path.write_text(print_circuit(psi_gadget(less_than_const(1500, 12345), 0)) + "\n")
    assert run("count", str(path), "--bound", "1") == (0, "yes\n", "")
    models = 12345 * (2**1500 - 12345)
    assert run("count", str(path)) == (0, f"{models}\n", "")
    path = tmp_path / "nest.ckt"
    path.write_text("(scope 1) " + "(not " * 3000 + "x1" + ")" * 3000 + "\n")
    assert run("count", str(path), "--engine", "brute") == (0, "1\n", "")
    assert run("count", str(path)) == (0, "1\n", "")


def test_deep_shapes_that_still_need_the_retry(run, tmp_path):
    # Node.restrict recurses down to the variable it sets: max_count sets
    # the chooser x1 at the bottom of a 3000-deep negation nest, so it meets
    # a recursion limit of 1000 in-process, and only the CLI's retry in its
    # worker thread answers. The disjunction of pairs x(2i-1) and x(2i),
    # i = m..1, a descending clause and an alternating chain with x1
    # innermost are counted in-process: their memo lookups compare deep
    # conjuncts by one walk on an explicit stack
    nest = Or(Var(1), Var(2))
    for _ in range(3000):
        nest = Not(nest)
    nest = Formula(nest, 2)
    m = 600
    pairs = Formula(or_all([And(Var(2 * i - 1), Var(2 * i)) for i in range(m, 0, -1)]), 2 * m)
    clause = Formula(or_all([Var(i) for i in range(1200, 0, -1)]), 1200)
    chain, models = Var(1), 1
    for i in range(2, 1201):
        chain = Or(Var(i), chain) if i % 2 else And(Var(i), chain)
        models += (1 << (i - 1)) if i % 2 else 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(RecursionError):
            max_count(SplitInstance(nest, (1,), (2,), None))
        assert count_fast(pairs) == 4**m - 3**m
        assert count_fast(clause) == 2**1200 - 1
        assert not threshold_check(clause, 2**1200)
        assert count_fast(Formula(chain, 1200)) == models
    finally:
        sys.setrecursionlimit(limit)
    path = tmp_path / "nest.ckt"
    path.write_text(print_circuit(nest) + "\n")
    assert run("maxcount", str(path), "x: 1") == (0, "x1=1 count=2\n", "")


def test_counts_of_any_length_print(run, tmp_path):
    with decimal.localcontext() as context:
        context.prec = 7000
        models = str(decimal.Decimal(2) ** 20000)
    cnf = tmp_path / "free.cnf"
    cnf.write_text("p cnf 20000 0\n")
    ckt = tmp_path / "free.ckt"
    ckt.write_text("(scope 20000) true\n")
    depth, stack = sys.getrecursionlimit(), threading.stack_size()
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert len(models) == 6021
    assert run("count", str(cnf)) == (0, models + "\n", "")
    assert run("count", str(ckt)) == (0, models + "\n", "")
    assert run("count", str(cnf), "--bound", models) == (0, "yes\n", "")
    assert run("count", str(cnf), "--bound", models + "1") == (0, "no\n", "")
    # main restores what it raised for the command
    assert (sys.getrecursionlimit(), threading.stack_size()) == (depth, stack)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digits


def test_size_command(run, files):
    assert run("size", files["or2.ckt"]) == (0, "1\n", "")
    assert run("size", files["f3.cnf"]) == (0, "4\n", "")


def test_mkless_emits_circuit_with_contract_count(run):
    for n, c in [(3, 5), (4, 0), (2, 4), (5, 19)]:
        code, out, _ = run("mkless", str(n), str(c))
        assert code == 0
        circuit_line, audit_line = out.splitlines()
        emitted = parse_circuit(circuit_line)
        assert count_bruteforce(emitted) == c
        audit = json.loads(audit_line)
        assert audit["cmd"] == "mkless"
        assert audit["size"] == emitted.size()


def test_mkless_range_error_names_bound(run):
    code, _, err = run("mkless", "3", "9")
    assert code == 2
    assert "[0, 8]" in err


def test_psi_emits_circuit_with_contract_count(run, files):
    code, out, _ = run("psi", files["or2.ckt"], "--delta", "1")
    assert code == 0
    circuit_line, audit_line = out.splitlines()
    emitted = parse_circuit(circuit_line)
    assert count_bruteforce(emitted) == k_value(2, 1, 3)
    audit = json.loads(audit_line)
    assert audit["n"] == 2 and audit["delta"] == "1"


def test_pack_emits_digit_packed_circuit(run, files):
    code, out, _ = run("pack", files["and2.ckt"], files["or2.ckt"])
    assert code == 0
    circuit_line, audit_line = out.splitlines()
    emitted = parse_circuit(circuit_line)
    audit = json.loads(audit_line)
    assert audit["digit_width"] == 2 and audit["digit_count"] == 2
    assert unpack_digits(count_bruteforce(emitted), 2, 2) == [1, 3]


def test_eq2geq_audit_and_emission(run, files):
    code, out, _ = run("eq2geq", files["or2.ckt"], "3")
    assert code == 0
    circuit_line, audit_line = out.splitlines()
    audit = json.loads(audit_line)
    assert audit["branch"] == "high"
    assert audit["delta"] == "1"
    assert audit["bound"] == "9"
    emitted = parse_circuit(circuit_line)
    assert count_bruteforce(emitted) == 9


def test_combine_audit_and_out_file(run, files, tmp_path):
    target = tmp_path / "G.ckt"
    code, out, _ = run(
        "combine",
        f"{files['and2.ckt']}:1",
        f"{files['or2.ckt']}:3",
        "--out",
        str(target),
    )
    assert code == 0
    audit = json.loads(out.splitlines()[0])
    assert audit["digits"] == ["1", "3"]
    assert audit["y"] == "25"
    assert audit["branch"] == "low"
    assert audit["delta"] == "7"
    assert audit["bound"] == "1521"
    emitted = parse_circuit(target.read_text())
    assert emitted.scope == 13
    assert count_bruteforce(emitted) == 1521

    code, out, _ = run("count", str(target), "--bound", "1521")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run("count", str(target), "--bound", "1522")
    assert (code, out) == (0, "no\n")


def test_combine_rejects_malformed_claims(run, files):
    code, _, err = run("combine", files["or2.ckt"])
    assert code == 2 and "FILE:CLAIM" in err
    code, _, err = run("combine", f"{files['or2.ckt']}:three")
    assert code == 2 and "claimed" in err


def test_dmax_yes_no_and_exit_codes(run, files):
    code, out, _ = run("dmax", files["or2.ckt"], "x:1 / y:2", "--bound", "2")
    assert (code, out) == (0, "yes x1=1 count=2\n")
    code, out, _ = run("dmax", files["or2.ckt"], "x:1 / y:2", "--bound", "3")
    assert (code, out) == (1, "no\n")
    code, out, _ = run(
        "dmax", files["or2.ckt"], "x:1 / y:2", "--bound", "2", "--engine", "plain"
    )
    assert (code, out) == (0, "yes x1=1 count=2\n")


def test_dmax_malformed_blocks(run, files):
    code, _, err = run("dmax", files["or2.ckt"], "x:1 / z:2", "--bound", "1")
    assert code == 2 and "block" in err
    code, _, err = run("dmax", files["or2.ckt"], "x:1 1", "--bound", "1")
    assert code == 2 and "twice" in err


def test_maxcount_output(run, files):
    code, out, _ = run("maxcount", files["or2.ckt"], "x:1 / y:2")
    assert (code, out) == (0, "x1=1 count=2\n")
    code, out, _ = run("maxcount", files["true2.ckt"], "x: / y: 1 2")
    assert (code, out) == (0, "count=4\n")


def test_gadget_outputs_are_deterministic(run, files):
    first = run("eq2geq", files["or2.ckt"], "2")
    second = run("eq2geq", files["or2.ckt"], "2")
    assert first == second
    first = run("selftest", "--seed", "7", "--budget", "5")
    second = run("selftest", "--seed", "7", "--budget", "5")
    assert first == second


def test_selftest_pass_and_budget_zero(run):
    # the passing seeded run is pinned by test_selftest_output_is_pinned
    code, out, _ = run("selftest", "--budget", "0")
    assert code == 0
    assert "0 cases" in out and "PASS" in out


def test_selftest_output_is_pinned(run):
    code, out, _ = run("selftest", "--seed", "42", "--budget", "10")
    assert code == 0
    assert out.splitlines() == [
        "pair-law: 10 cases ok",
        "digit-law: 10 cases ok",
        "threshold-law: 134 cases ok",
        "psi-law: 17 cases ok",
        "apex-law: 780 cases ok",
        "eq-to-geq: 52 cases ok",
        "combine: 100 cases ok",
        "solver: 10 cases ok",
        "counter: 10 cases ok",
        "selftest: PASS (9 suites, 1123 cases, seed 42)",
    ]


def test_run_report_carries_digest(files):
    from dmaxsat.cli import build_parser

    args = build_parser().parse_args(["eq2geq", files["or2.ckt"], "3"])
    report = args.handler(args)
    circuit_line, audit_line = report.lines
    assert count_bruteforce(parse_circuit(circuit_line)) == 9
    # the digest hashes the command, the input bytes and the claim
    assert json.loads(audit_line)["digest"] == (
        "89cc3c69eebde8f59b07c43e4e60ce70ee5d05ce57438f0165dc83db2b908135"
    )
    assert report.exit_code == 0


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "dmaxsat", "count", files["or2.ckt"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


# each name a selftest suite looks up: (suite, a corruption of the real
# function that answers wrongly on small inputs, a line of its report)
_CORRUPTIONS = {
    # swaps remainder and quotient roles
    "pack_pair": ("pair-law", lambda real: lambda f, g: real(g, f), "expected count"),
    "psi_gadget": (
        "psi-law",
        lambda real: lambda f, delta: real(f.negate(), delta),
        "expected count",
    ),
    "less_than_const": (
        "threshold-law",
        lambda real: lambda n, c: real(n, c // 2),
        "expected count",
    ),
    "pack_many": (
        "digit-law",
        lambda real: lambda operands: real([f.negate() for f in operands]),
        "expected digits",
    ),
    "eq_to_geq": ("eq-to-geq", lambda real: lambda h, y: real(h.negate(), y), "bound"),
    "combine_equalities": (
        "combine",
        lambda real: lambda queries: real(list(queries)[::-1]),
        "claims",
    ),
    "count_fast": ("counter", lambda real: lambda f: real(f) ^ 1, "count_bruteforce"),
    "max_count": (
        "solver",
        lambda real: lambda instance: Witness(
            real(instance).values, real(instance).achieved + 1
        ),
        "max_count returned",
    ),
    "dmax_pruned": ("solver", lambda real: lambda instance: None, "engines disagree"),
}


@pytest.mark.parametrize("name", list(_CORRUPTIONS))
def test_selftest_catches_corrupted_gadget(run, monkeypatch, name):
    suite, corrupt, detail = _CORRUPTIONS[name]
    monkeypatch.setattr(
        dmaxsat.selftest, name, corrupt(getattr(dmaxsat.selftest, name))
    )
    code, out, _ = run("selftest", "--seed", "42", "--budget", "5")
    assert code == 1
    assert f"{suite}: FAIL after" in out
    assert detail in out
    assert "selftest: FAIL" in out
