"""Gadget count contracts, exact sizes, and input validation.

Expected counts in the pinned examples were computed with the brute-force
counter and frozen here.
"""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dmaxsat import (
    FALSE,
    TRUE,
    And,
    Formula,
    Or,
    Var,
    count_bruteforce,
    k_value,
    less_than_const,
    pack_many,
    pack_pair,
    psi_gadget,
    unpack_digits,
)
from dmaxsat.selftest import expected_pack_pair_size, expected_psi_size

from strategies import formulas


def test_pack_pair_examples():
    f = Formula(Var(1), 1)
    g = Formula(Or(Var(1), Var(2)), 2)
    packed = pack_pair(f, g)
    assert packed.scope == 4
    assert count_bruteforce(packed) == 7  # 1 + 3 * 2**1

    both_empty = pack_pair(Formula(FALSE, 2), Formula(FALSE, 2))
    assert count_bruteforce(both_empty) == 0

    both_full = pack_pair(Formula(TRUE, 2), Formula(TRUE, 2))
    assert packed.scope == 4
    assert both_full.scope == 5
    assert count_bruteforce(both_full) == 20  # 4 + 4 * 2**2


@given(formulas(max_scope=5), formulas(max_scope=5))
def test_pack_pair_law_and_exact_size(f, g):
    packed = pack_pair(f, g)
    assert packed.scope == f.scope + g.scope + 1
    assert count_bruteforce(packed) == count_bruteforce(f) + (
        count_bruteforce(g) << f.scope
    )
    assert packed.size() == expected_pack_pair_size(f, g)


def test_pack_many_examples():
    packed = pack_many(
        [Formula(And(Var(1), Var(2)), 2), Formula(Or(Var(1), Var(2)), 2)]
    )
    assert packed.scope == 6  # 2 digits of width 2 plus a padding bit each
    count = count_bruteforce(packed)
    assert count == 25  # 1 + 3 * 2**3
    assert unpack_digits(count, 2, 2) == [1, 3]

    single = pack_many([Formula(Var(1), 2)])
    assert single.scope == 3
    assert count_bruteforce(single) == 2

    triple = pack_many([Formula(TRUE, 1)] * 3)
    assert triple.scope == 6
    count = count_bruteforce(triple)
    assert count == 42  # 2 + 2 * 4 + 2 * 16
    assert unpack_digits(count, 1, 3) == [2, 2, 2]


def test_pack_many_rejects_mixed_scopes_and_empty():
    with pytest.raises(ValueError, match="scope"):
        pack_many([Formula(Var(1), 1), Formula(Var(1), 2)])
    with pytest.raises(ValueError, match="at least one"):
        pack_many([])


@settings(max_examples=50)
@given(st.data())
def test_digit_law(data):
    n = data.draw(st.integers(0, 2))
    k = data.draw(st.integers(1, 3))
    operands = [data.draw(formulas(min_scope=n, max_scope=n)) for _ in range(k)]
    packed = pack_many(operands)
    assert packed.scope == k * (n + 1)
    digits = unpack_digits(count_bruteforce(packed), n, k)
    assert digits == [count_bruteforce(f) for f in operands]
    size_cap = sum(f.size() for f in operands) + k * (2 * n + 5)
    assert packed.size() <= size_cap


def test_unpack_digits_examples_and_range():
    assert unpack_digits(25, 2, 2) == [1, 3]
    assert unpack_digits(0, 3, 4) == [0, 0, 0, 0]
    assert unpack_digits(42, 1, 3) == [2, 2, 2]
    with pytest.raises(ValueError):
        unpack_digits(64, 1, 3)
    with pytest.raises(ValueError):
        unpack_digits(-1, 1, 3)


def test_less_than_const_examples():
    assert count_bruteforce(less_than_const(3, 5)) == 5
    assert count_bruteforce(less_than_const(3, 0)) == 0
    assert count_bruteforce(less_than_const(3, 8)) == 8
    assert less_than_const(0, 1) == Formula(TRUE, 0)


def test_less_than_const_exhaustive_counts_and_sizes():
    for n in range(6):
        for c in range((1 << n) + 1):
            m = less_than_const(n, c)
            assert count_bruteforce(m) == c
            assert m.size() == (0 if c == 1 << n else 2 * n)
            assert m.size() <= 3 * n


def test_less_than_const_models_are_the_small_values():
    m = less_than_const(4, 11)
    for mask in range(16):
        assert m.evaluate([bool((mask >> i) & 1) for i in range(4)]) == (mask < 11)


def test_less_than_const_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 8\]"):
        less_than_const(3, 9)
    with pytest.raises(ValueError):
        less_than_const(3, -1)
    with pytest.raises(ValueError):
        less_than_const(-1, 0)


def test_k_value_examples():
    assert k_value(2, 1, 3) == 9
    assert k_value(2, 1, 2) == 8
    assert k_value(2, 1, 4) == 8
    assert k_value(5, 3, 0) == 0
    assert k_value(2, 0, 2) == 4


def test_k_value_rejects_out_of_range():
    with pytest.raises(ValueError, match="delta"):
        k_value(2, 3, 1)
    with pytest.raises(ValueError, match="delta"):
        k_value(2, -1, 1)
    with pytest.raises(ValueError, match="x must lie"):
        k_value(2, 1, 5)
    with pytest.raises(ValueError, match="x must lie"):
        k_value(2, 1, -1)


def test_apex_is_strict_over_the_integer_range():
    for n in range(1, 6):
        for delta in range((1 << n) // 2 + 1):
            apex = (1 << (n - 1)) + delta
            peak = k_value(n, delta, apex)
            for x in range((1 << n) + 1):
                assert (k_value(n, delta, x) >= peak) == (x == apex)


def test_psi_gadget_examples():
    g = Formula(Or(Var(1), Var(2)), 2)
    gadget = psi_gadget(g, 1)
    assert gadget.scope == 5
    assert count_bruteforce(gadget) == 9
    assert count_bruteforce(gadget) == k_value(2, 1, count_bruteforce(g))

    assert count_bruteforce(psi_gadget(Formula(FALSE, 2), 1)) == 0
    assert count_bruteforce(psi_gadget(Formula(TRUE, 1), 0)) == 0  # 2 * (2 - 2)


def test_psi_gadget_rejects_bad_delta():
    with pytest.raises(ValueError, match="delta"):
        psi_gadget(Formula(Var(1), 2), 3)
    with pytest.raises(ValueError, match="delta"):
        psi_gadget(Formula(Var(1), 2), -1)


@settings(max_examples=80)
@given(st.data())
def test_psi_law_and_exact_size(data):
    f = data.draw(formulas(max_scope=4))
    delta = data.draw(st.integers(0, (1 << f.scope) // 2))
    gadget = psi_gadget(f, delta)
    assert gadget.scope == 2 * f.scope + 1
    assert count_bruteforce(gadget) == k_value(f.scope, delta, count_bruteforce(f))
    assert gadget.size() == expected_psi_size(f, delta)
    assert gadget.size() <= 2 * f.size() + 3 * f.scope + 6
