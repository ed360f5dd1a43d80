"""Bit vectors, complexes, generating functions, and character sums.

Closed-form identities are always checked against an independent route:
direct enumeration over members, written out here rather than shared with
the library implementation.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from icodes import (
    BitVector,
    DimensionMismatchError,
    all_vectors,
    character_sum,
    complex_from_generator,
    complex_from_maximal_faces,
    generating_function,
    gf2_basis,
    support_disjoint,
)
from icodes import geometry
from icodes.geometry import bit_string, walsh_hadamard


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def random_complex(rng: random.Random, m: int):
    faces = [BitVector(m, rng.randrange(1, 1 << m)) for _ in range(rng.randint(1, 4))]
    return complex_from_maximal_faces(m, faces)


def direct_generating_coeffs(complex_) -> dict[int, int]:
    """Oracle: sum the monomial of every member, no inclusion-exclusion."""
    coeffs: dict[int, int] = {}
    for v in complex_.members():
        coeffs[v.bits] = coeffs.get(v.bits, 0) + 1
    return coeffs


# --- BitVector ---------------------------------------------------------------


def test_string_round_trip_and_coordinate_convention():
    v = bv("0110")
    assert v.m == 4
    assert v.support() == (2, 3)
    assert str(v) == "0110"
    assert v.bits == 0b0110
    assert BitVector.from_support(4, [2, 3]) == v


def test_bit_string_round_trip_with_leading_and_trailing_zeros():
    for text in ("0", "1", "0" + "1" * 22 + "0", "1" + "0" * 22 + "1"):
        v = BitVector.from_string(text)
        assert bit_string(v.bits, v.m) == str(v) == text
    # codewords run past the BitVector cap and past 64 bits
    for text in ("00" + "10" * 33 + "000", "1" + "0" * 70 + "1"):
        word = int(text[::-1], 2)
        assert bit_string(word, len(text)) == text
        assert bit_string(word, len(text) + 2) == text + "00"


def test_weight_counts_support():
    assert bv("0000").weight() == 0
    assert bv("1011").weight() == 3


def test_covers_examples():
    assert bv("1101").covers(bv("0101"))
    assert not bv("0101").covers(bv("1101"))
    v = bv("0101")
    assert v.covers(v)


def test_covers_is_a_partial_order_on_f2_4():
    vectors = list(all_vectors(4))
    for v in vectors:
        assert v.covers(v)
        for w in vectors:
            if v.covers(w) and w.covers(v):
                assert v == w
            for u in vectors:
                if v.covers(w) and w.covers(u):
                    assert v.covers(u)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        bv("01").covers(bv("011"))
    with pytest.raises(DimensionMismatchError):
        bv("01").dot(bv("011"))


def test_dot_is_parity_of_overlap():
    assert bv("110").dot(bv("101")) == 1
    assert bv("110").dot(bv("011")) == 1
    assert bv("111").dot(bv("110")) == 0


def test_bounds_validation():
    with pytest.raises(ValueError):
        BitVector(0, 0)
    with pytest.raises(ValueError):
        BitVector(25, 0)
    with pytest.raises(ValueError):
        BitVector(3, 0b1000)
    with pytest.raises(IndexError):
        BitVector.from_support(3, [4])


# --- simplicial complexes ----------------------------------------------------


def test_generator_complex_members_in_order():
    cx = complex_from_generator(4, {3, 4})
    assert [str(v) for v in cx.members()] == ["0000", "0010", "0001", "0011"]
    assert len(cx) == 4


def test_generator_complex_empty_set_gives_zero_vector_only():
    cx = complex_from_generator(3, set())
    assert [v.bits for v in cx.members()] == [0]
    assert len(cx) == 1


def test_generator_complex_size_is_power_of_two():
    assert len(complex_from_generator(5, {1, 2, 3})) == 8


def test_generator_complex_has_single_maximal_face():
    cx = complex_from_generator(4, {2, 4})
    assert len(cx.maximal_faces) == 1
    assert cx.maximal_faces[0].support() == (2, 4)


def test_generator_complex_out_of_range_index():
    with pytest.raises(IndexError):
        complex_from_generator(4, {5})


def test_two_face_complex_members():
    cx = complex_from_maximal_faces(4, [bv("0011"), bv("0101")])
    assert len(cx) == 6
    expected = {"0000", "0010", "0001", "0011", "0100", "0101"}
    assert {str(v) for v in cx.members()} == expected


def test_single_face_equals_generator_complex():
    face = bv("01101")
    assert complex_from_maximal_faces(5, [face]) == complex_from_generator(
        5, face.support()
    )


def test_covered_faces_are_discarded():
    cx = complex_from_maximal_faces(4, [bv("1100"), bv("1000")])
    assert [str(f) for f in cx.maximal_faces] == ["1100"]
    assert len(cx) == 4


def test_empty_face_family_rejected():
    with pytest.raises(ValueError):
        complex_from_maximal_faces(4, [])


def test_membership_and_down_closure():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(2, 8)
        cx = random_complex(rng, m)
        members = set(cx.words)
        for v in cx.members():
            assert v in cx
            sub = v.bits
            while True:
                assert sub in members
                if sub == 0:
                    break
                sub = (sub - 1) & v.bits
        assert len(members) == len(cx)


def test_len_lists_and_marks_nothing(monkeypatch):
    """len() of a complex and of its complement is the closed form: it
    equals the member count while listing and marking raise."""
    def refuse(self):
        raise AssertionError("len() listed or marked the members")

    rng = random.Random(11)
    cases = []
    with monkeypatch.context() as patched:
        for cls in (geometry.SimplicialComplex, geometry.ComplexComplement):
            for name in ("counts", "words"):
                patched.setattr(cls, name, property(refuse))
        for _ in range(60):
            m = rng.randint(1, 8)
            cx = random_complex(rng, m)
            faces = [f.bits for f in cx.maximal_faces]
            inside = [x for x in range(1 << m) if any(x & ~f == 0 for f in faces)]
            assert len(cx) == len(inside), cx
            assert len(cx.complement()) == (1 << m) - len(inside), cx
            cases.append((m, cx, inside))
    for m, cx, inside in cases:
        outside = sorted(set(range(1 << m)) - set(inside))
        assert cx.words == tuple(inside)
        assert cx.complement().words == tuple(outside)
        assert cx.counts == bytes(x in inside for x in range(1 << m))
        assert cx.complement().counts == bytes(x in outside for x in range(1 << m))
        assert [v.bits for v in cx.complement()] == outside


def test_words_equal_the_marked_listing():
    """words is F_2^m filtered through the marks on random complexes; a
    one-face complex lists its words by doubling and builds no marks."""
    rng = random.Random(13)
    complexes = [random_complex(rng, rng.randint(1, 8)) for _ in range(60)]
    complexes += [complex_from_generator(m, {i for i in range(1, m + 1) if rng.random() < 0.5})
                  for m in range(1, 9)]
    for cx in complexes:
        words = cx.words
        assert ("counts" in vars(cx)) == (len(cx.maximal_faces) > 1)
        assert words == tuple(itertools.compress(range(1 << cx.m), cx.counts))


def test_complement_is_lazy_and_consistent():
    cx = complex_from_generator(4, {1, 2})
    comp = cx.complement()
    assert len(comp) == 16 - 4
    listed = list(comp)
    assert [v.bits for v in listed] == sorted(v.bits for v in listed)
    for v in all_vectors(4):
        assert (v in comp) == (v not in cx)


# --- generating functions ----------------------------------------------------


def test_worked_two_face_generating_function():
    cx = complex_from_maximal_faces(4, [bv("0011"), bv("0101")])
    poly = generating_function(cx)
    # 1 + y2 + y3 + y4 + y2*y4 + y3*y4
    expected = {0b0000: 1, 0b0010: 1, 0b0100: 1, 0b1000: 1, 0b1010: 1, 0b1100: 1}
    assert poly.coeffs == expected
    assert str(poly) == "1 + y2 + y3 + y4 + y2*y4 + y3*y4"
    assert poly.evaluate_all_ones() == 6


def test_trivial_complex_generating_function_is_one():
    poly = generating_function(complex_from_generator(3, set()))
    assert poly.coeffs == {0: 1}
    assert str(poly) == "1"


def test_generating_function_matches_direct_enumeration_on_random_complexes():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 10)
        cx = random_complex(rng, m)
        poly = generating_function(cx)
        assert poly.coeffs == direct_generating_coeffs(cx)
        assert poly.evaluate_all_ones() == len(cx)
        assert set(poly.coeffs.values()) == {1}


def test_generating_function_evaluation():
    cx = complex_from_generator(3, {1, 3})
    poly = generating_function(cx)
    # members: 000, 100, 001, 101 -> 1 + y1 + y3 + y1*y3
    assert poly.evaluate([1, 1, 1]) == 4
    assert poly.evaluate([0, 5, 0]) == 1
    assert poly.evaluate([-1, 1, -1]) == 0
    with pytest.raises(DimensionMismatchError):
        poly.evaluate([1, 1])


# --- the avoidance indicator -------------------------------------------------


def test_support_disjoint_zero_vector():
    for m in range(1, 6):
        assert support_disjoint(BitVector(m, 0), {1}) == 1


def test_support_disjoint_hit_and_miss():
    assert support_disjoint(bv("100"), {1, 2}) == 0
    assert support_disjoint(bv("001"), {1, 2}) == 1
    assert support_disjoint(bv("010"), set()) == 1


def test_support_disjoint_counts_exhaustive():
    # Over all alpha: exactly 2^(m-|M|) avoid M and (2^|M|-1)*2^(m-|M|) meet it.
    for m in range(1, 6):
        for mask in range(1 << m):
            indices = {i + 1 for i in range(m) if mask >> i & 1}
            hits = sum(support_disjoint(v, indices) for v in all_vectors(m))
            assert hits == 1 << (m - len(indices))
            misses = (1 << m) - hits
            assert misses == ((1 << len(indices)) - 1) * (1 << (m - len(indices)))


# --- character sums ----------------------------------------------------------


def direct_character_sum(alpha: BitVector, points) -> int:
    total = 0
    for t in points:
        total += (-1) ** ((alpha.bits & t.bits).bit_count() & 1)
    return total


def test_character_sum_at_zero_counts_points():
    cx = complex_from_generator(4, {1, 3})
    zero = BitVector(4, 0)
    assert character_sum(zero, cx.members()) == len(cx)
    assert character_sum(zero, cx.complement()) == 16 - len(cx)


def test_character_sum_closed_form_on_generated_complexes():
    # Over a generated complex the sum collapses to 2^|M| times the
    # avoidance indicator; checked exhaustively for m <= 5.
    for m in range(1, 6):
        for mask in range(1 << m):
            indices = frozenset(i + 1 for i in range(m) if mask >> i & 1)
            cx = complex_from_generator(m, indices)
            for alpha in all_vectors(m):
                expected = (1 << len(indices)) * support_disjoint(alpha, indices)
                assert character_sum(alpha, cx.members()) == expected
                assert direct_character_sum(alpha, cx.members()) == expected


def test_character_sum_complement_identity():
    # The complement sum is 2^m * [alpha == 0] minus the complex sum;
    # both sides by direct summation, exhaustively for m <= 4.
    for m in range(1, 5):
        for mask in range(1 << m):
            indices = frozenset(i + 1 for i in range(m) if mask >> i & 1)
            cx = complex_from_generator(m, indices)
            for alpha in all_vectors(m):
                delta = 1 if alpha.bits == 0 else 0
                lhs = character_sum(alpha, cx.complement())
                rhs = (1 << m) * delta - character_sum(alpha, cx.members())
                assert lhs == rhs


def test_character_sum_equals_generating_function_at_signs():
    rng = random.Random(13)
    for _ in range(20):
        m = rng.randint(1, 8)
        cx = random_complex(rng, m)
        poly = generating_function(cx)
        for _ in range(5):
            alpha = BitVector(m, rng.randrange(1 << m))
            signs = [(-1) ** (alpha.bits >> i & 1) for i in range(m)]
            assert character_sum(alpha, cx.members()) == poly.evaluate(signs)


def test_character_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        character_sum(bv("01"), [bv("011")])


# --- Walsh-Hadamard transform -------------------------------------------------


def scalar_walsh_hadamard(values):
    """Reference: the transform one butterfly at a time, in place."""
    half = 1
    while half < len(values):
        for start in range(0, len(values), 2 * half):
            for i in range(start, start + half):
                x, y = values[i], values[i + half]
                values[i], values[i + half] = x + y, x - y
        half *= 2


def test_walsh_hadamard_gives_every_character_sum():
    rng = random.Random(5)
    for m in range(1, 11):
        counts = [rng.randrange(4) for _ in range(1 << m)]
        transform = list(counts)
        walsh_hadamard(transform)
        reference = list(counts)
        scalar_walsh_hadamard(reference)
        assert transform == reference
        assert all(type(total) is int for total in transform)
        if m <= 5:
            points = [BitVector(m, x) for x, count in enumerate(counts) for _ in range(count)]
            assert transform == [character_sum(alpha, points) for alpha in all_vectors(m)]
        walsh_hadamard(transform)  # the transform is its own inverse up to 2^m
        assert transform == [count << m for count in counts]
    single = [5]
    walsh_hadamard(single)
    assert single == [5]


def check_against_scalar(values):
    transform, reference = list(values), list(values)
    walsh_hadamard(transform)
    scalar_walsh_hadamard(reference)
    assert transform == reference
    assert all(type(total) is int for total in transform)


def test_walsh_hadamard_lanes_take_negative_entries():
    rng = random.Random(6)
    for m in range(0, 11):
        for spread in (3, 1000, 1 << 40):
            check_against_scalar([rng.randint(-spread, spread) for _ in range(1 << m)])


def test_walsh_hadamard_of_lengths_one_and_two():
    for values in ([0], [5], [-7], [0, 0], [3, 4], [-3, 4], [4, -3], [-2, -9]):
        check_against_scalar(values)


def extremes(bound, m, rng):
    """Lists of length 2^m with sum(|v|) = bound whose transforms reach
    +bound and -bound: one spike of either sign, and a random split of the
    bound into signed parts."""
    size = 1 << m
    yield [bound] + [0] * (size - 1)
    yield [0] * (size - 1) + [-bound]
    cuts = sorted(rng.randrange(bound + 1) for _ in range(size - 1))
    parts = [high - low for low, high in zip([0, *cuts], [*cuts, bound])]
    yield [part * rng.choice((1, -1)) for part in parts]
    yield [part * (1 - 2 * (x.bit_count() & 1)) for x, part in enumerate(parts)]


@pytest.mark.parametrize("width", [16, 32, 64])
def test_walsh_hadamard_at_each_lane_width_switch(width):
    # the narrowest lanes with 4 * bound < 2^width: the last bound that fits
    # and, below 64 bits, the first that needs the next width and one that
    # only a looser rule would give these lanes
    rng = random.Random(width)
    top = (1 << (width - 2)) - 1
    for bound in (top, top + 1, (1 << (width - 1)) - 1) if width < 64 else (top,):
        for m in (1, 2, 5, 8):
            for values in extremes(bound, m, rng):
                assert sum(map(abs, values)) == bound
                check_against_scalar(values)


@pytest.mark.parametrize("spread", [100, 1 << 40], ids=["32-bit", "64-bit"])
def test_walsh_hadamard_holds_less_than_a_second_list(spread):
    # the input's ints are let go once packed, and each whole-int pass's
    # masks and halves once read, so the peak stays below twice what the
    # list and its ints hold
    rng = random.Random(7)
    tracemalloc.start()
    try:
        values = [rng.randint(-spread, spread) for _ in range(1 << 16)]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        walsh_hadamard(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * held, (peak, held)


def test_walsh_hadamard_refuses_what_64_bit_lanes_cannot_hold():
    for values in ([1 << 62], [1 << 61, -(1 << 61)], [1, 1 << 62, 0, 0]):
        before = list(values)
        with pytest.raises(OverflowError, match="64-bit lanes"):
            walsh_hadamard(values)
        assert values == before  # refused before anything is written


def test_walsh_hadamard_lane_bound_survives_optimized_mode():
    script = "from icodes.geometry import walsh_hadamard\nwalsh_hadamard([1 << 62, 0])\n"
    src = pathlib.Path(geometry.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 1
    assert "OverflowError: 4 * sum(|values|) = " in result.stderr


@pytest.mark.parametrize("size", [0, 3, 6])
def test_walsh_hadamard_needs_a_power_of_two(size):
    with pytest.raises(ValueError, match="power of two"):
        walsh_hadamard([1] * size)


# --- GF(2) basis helper -------------------------------------------------------


def test_gf2_basis_rank_and_span():
    words = [0b101, 0b011, 0b110, 0b000]
    basis = gf2_basis(words)
    assert len(basis) == 2
    span = {0}
    for b in basis:
        span |= {s ^ b for s in span}
    assert span == {0b000, 0b101, 0b011, 0b110}


def test_gf2_basis_of_zero_set_is_empty():
    assert gf2_basis([0, 0]) == ()
