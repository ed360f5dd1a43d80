"""Ring arithmetic against the published 4x4 tables, exhaustively."""

import pytest

from icodes import A, B, C, ELEMENTS, ZERO, RingElement
from icodes.ring import addition_table, multiplication_table

# Expected tables over the symbol alphabet, rows and columns in 0, a, b, c order.
ADDITION_ROWS = [
    "0abc",
    "a0cb",
    "bc0a",
    "cba0",
]
MULTIPLICATION_ROWS = [
    "0000",
    "0b0b",
    "0000",
    "0b0b",
]


def test_addition_table_all_16_entries():
    for i, x in enumerate(ELEMENTS):
        for j, y in enumerate(ELEMENTS):
            assert (x + y).symbol == ADDITION_ROWS[i][j]


def test_multiplication_table_all_16_entries():
    for i, x in enumerate(ELEMENTS):
        for j, y in enumerate(ELEMENTS):
            assert (x * y).symbol == MULTIPLICATION_ROWS[i][j]


def test_known_sums_and_products():
    assert A + B == C
    assert C + C == ZERO
    assert A * C == B
    assert B * A == ZERO


def test_zero_is_additive_identity_and_multiplicative_absorber():
    for x in ELEMENTS:
        assert x + ZERO == x
        assert ZERO + x == x
        assert ZERO * x == ZERO
        assert x * ZERO == ZERO


def test_b_annihilates_everything():
    for x in ELEMENTS:
        assert B * x == ZERO
        assert x * B == ZERO


def test_product_image_is_zero_and_b():
    products = {x * y for x in ELEMENTS for y in ELEMENTS}
    assert products == {ZERO, B}


def test_commutativity():
    for x in ELEMENTS:
        for y in ELEMENTS:
            assert x + y == y + x
            assert x * y == y * x


def test_associativity_and_distributivity_exhaustive():
    for x in ELEMENTS:
        for y in ELEMENTS:
            for z in ELEMENTS:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_characteristic_two():
    for x in ELEMENTS:
        assert x + x == ZERO


def test_non_unital():
    for e in ELEMENTS:
        assert any(e * x != x for x in ELEMENTS)


def test_generator_relations():
    assert A * A == B  # a^2 = b
    assert A * B == ZERO  # ab = 0
    assert B * B == ZERO
    assert A + B == C


def test_gray_map_values():
    assert ZERO.gray() == (0, 0)
    assert A.gray() == (0, 1)
    assert B.gray() == (1, 1)
    assert C.gray() == (1, 0)


def test_lee_weights():
    assert [x.lee_weight() for x in ELEMENTS] == [0, 1, 2, 1]


def test_lee_weight_is_gray_hamming_weight():
    for x in ELEMENTS:
        assert x.lee_weight() == sum(x.gray())


def test_symbol_round_trip():
    for x in ELEMENTS:
        assert RingElement.from_symbol(x.symbol) == x
    with pytest.raises(ValueError):
        RingElement.from_symbol("d")


def test_bit_pair_encoding_is_the_fixed_bijection():
    assert (ZERO.s, ZERO.t) == (0, 0)
    assert (A.s, A.t) == (1, 0)
    assert (B.s, B.t) == (0, 1)
    assert (C.s, C.t) == (1, 1)
    with pytest.raises(ValueError):
        RingElement(2, 0)


def test_table_helpers_agree_with_operators():
    add = addition_table()
    mul = multiplication_table()
    for i, x in enumerate(ELEMENTS):
        for j, y in enumerate(ELEMENTS):
            assert add[i][j] == x + y
            assert mul[i][j] == x * y
