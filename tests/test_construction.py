"""Defining sets, encoding, code enumeration, and Gray images.

The key dual-route check lives in `table_driven_code`: a brute-force
encoder written directly from the 4x4 symbol tables, sharing nothing with
the library's arithmetic, against which small enumerations are compared.
"""

import dataclasses
import functools
import itertools
import operator
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from icodes import construction
from icodes import (
    BitVector,
    BudgetExceededError,
    CodeTable,
    DefiningSetSpec,
    DimensionMismatchError,
    ELEMENTS,
    EmptyDefiningSetError,
    RingElement,
    RingVector,
    Variant,
    binary_params,
    build_defining_set,
    defining_set_length,
    encode,
    enumerate_code,
    gray_image,
    weight_enumerator,
)
from icodes.analysis import is_minimal_exhaustive, is_self_orthogonal
from icodes.geometry import all_vectors, bit_string, character_sum, gf2_basis, walsh_hadamard
from icodes.ring import dot

# Independent mini-ring: symbol tables only, no bit tricks.
ADD = {
    ("0", "0"): "0", ("0", "a"): "a", ("0", "b"): "b", ("0", "c"): "c",
    ("a", "0"): "a", ("a", "a"): "0", ("a", "b"): "c", ("a", "c"): "b",
    ("b", "0"): "b", ("b", "a"): "c", ("b", "b"): "0", ("b", "c"): "a",
    ("c", "0"): "c", ("c", "a"): "b", ("c", "b"): "a", ("c", "c"): "0",
}
MUL = {
    ("0", "0"): "0", ("0", "a"): "0", ("0", "b"): "0", ("0", "c"): "0",
    ("a", "0"): "0", ("a", "a"): "b", ("a", "b"): "0", ("a", "c"): "b",
    ("b", "0"): "0", ("b", "a"): "0", ("b", "b"): "0", ("b", "c"): "0",
    ("c", "0"): "0", ("c", "a"): "b", ("c", "b"): "0", ("c", "c"): "b",
}
LEE = {"0": 0, "a": 1, "b": 2, "c": 1}


def table_dot(x: str, y: str) -> str:
    acc = "0"
    for xi, yi in zip(x, y):
        acc = ADD[(acc, MUL[(xi, yi)])]
    return acc


def table_driven_code(ds):
    """Oracle: full 4^m message walk using the symbol tables alone."""
    m = ds.m
    d_strings = [str(RingVector(ds.m, t1, t2)) for t1, t2 in ds.word_pairs()]
    profile: dict[int, int] = {}
    codewords: dict[str, int] = {}
    for symbols in itertools.product("0abc", repeat=m):
        v = "".join(symbols)
        cw = "".join(table_dot(v, d) for d in d_strings)
        weight = sum(LEE[ch] for ch in cw)
        profile[weight] = profile.get(weight, 0) + 1
        codewords[cw] = codewords.get(cw, 0) + 1
    return profile, codewords


def lee_weight(v):
    """Lee weight of a ring vector: a and c weigh 1, b weighs 2."""
    return v.t_word.bit_count() + (v.s_word ^ v.t_word).bit_count()


def gray_bits(v):
    """Gray image of a ring vector as a 2m-bit word: t-part low, (s+t)-part high."""
    return v.t_word | (v.s_word ^ v.t_word) << v.m


def plain_walk(ds):
    """Reference: the full 4^m message walk, each message through encode.

    Reads no generator row.  Every codeword must be b*c, its a-part zero;
    the distinct words c are the rows of the table of c it returns, so a
    word set that is not a subspace fails the table's rank law, and the
    profile of c's weights it counts must be the derived one (the kernel
    law).  Also returns the Lee profile, each message's codeword weighed
    by lee_weight.
    """
    m = ds.m
    codeword_hits = Counter()
    profile = Counter()
    lee_profile = Counter()
    for s_word in range(1 << m):
        for t_word in range(1 << m):
            cw = encode(RingVector(m, s_word, t_word), ds)
            assert cw.s_word == 0, "every codeword must be b times a binary word"
            codeword_hits[cw.t_word] += 1
            profile[cw.t_word.bit_count()] += 1
            lee_profile[lee_weight(cw)] += 1
    per_codeword = set(codeword_hits.values())
    assert len(per_codeword) == 1, "codeword preimage counts must be uniform"
    table = CodeTable(
        len(ds),
        tuple(codeword_hits),
        per_codeword.pop(),
        dict(Counter(word.bit_count() for word in codeword_hits)),
    )
    assert dict(profile) == table.message_profile, (
        "kernel law fails: the walked message profile is not the distribution "
        "times the kernel size"
    )
    return table, dict(lee_profile)


def ring_texts(table):
    """The ring codewords b*c of a table of c, as 0abc text."""
    return {bit_string(c, table.length).replace("1", "b") for c in table.codewords}


def spec(variant, m, M=(), N=()):
    return DefiningSetSpec(variant=variant, m=m, M=frozenset(M), N=frozenset(N))


# --- defining sets -------------------------------------------------------------


def test_t1_small_example_pairs_in_order():
    ds = build_defining_set(spec(Variant.T1, 2, {1}, {2}))
    rendered = [(str(t1), str(t2)) for t1, t2 in ds.pairs]
    assert rendered == [("00", "00"), ("00", "01"), ("10", "00"), ("10", "01")]
    assert len(ds) == 4


def test_lengths_match_closed_forms():
    for m in range(1, 5):
        for mm in range(1 << m):
            for nn in range(1 << m):
                M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
                N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
                a, b, full = len(M), len(N), 1 << m
                expected = {
                    Variant.T1: 1 << (a + b),
                    Variant.T2: (full - (1 << a)) << b,
                    Variant.T3: (1 << a) * (full - (1 << b)),
                    Variant.T4: (full - (1 << a)) * (full - (1 << b)),
                    Variant.T5: full * full - (1 << (a + b)),
                }
                for variant, length in expected.items():
                    if length == 0:
                        with pytest.raises(EmptyDefiningSetError):
                            build_defining_set(spec(variant, m, M, N))
                    else:
                        assert len(build_defining_set(spec(variant, m, M, N))) == length


def test_t4_and_t5_reference_lengths():
    assert len(build_defining_set(spec(Variant.T4, 5, {1, 2, 3}, {1, 2, 3, 4}))) == 384
    assert len(build_defining_set(spec(Variant.T5, 4, {1, 2, 3}, {1, 2, 3}))) == 192


def test_pairs_are_lexicographic_t1_major():
    ds = build_defining_set(spec(Variant.T2, 3, {1}, {2, 3}))
    keys = list(ds.word_pairs())
    assert keys == sorted(keys)


# The README variant table, written out independently of the library.
def _delta(m, indices):
    mask = sum(1 << (i - 1) for i in indices)
    return [x for x in range(1 << m) if x & ~mask == 0]


def _outside(m, indices):
    inside = _delta(m, indices)
    return [x for x in range(1 << m) if x not in inside]


README_BLOCKS = {
    Variant.T1: lambda m, M, N: [(_delta(m, M), _delta(m, N))],
    Variant.T2: lambda m, M, N: [(_outside(m, M), _delta(m, N))],
    Variant.T3: lambda m, M, N: [(_delta(m, M), _outside(m, N))],
    Variant.T4: lambda m, M, N: [(_outside(m, M), _outside(m, N))],
    Variant.T5: lambda m, M, N: [
        (_outside(m, M), list(range(1 << m))),
        (_delta(m, M), _outside(m, N)),
    ],
}
EMPTY_MESSAGES = {
    Variant.T2: "complement of the full complex is empty (|M| = m)",
    Variant.T3: "complement of the full complex is empty (|N| = m)",
    Variant.T4: "complement of the full complex is empty",
    Variant.T5: "T1 set is all of I^m, its complement is empty",
}


def test_pair_sequences_follow_the_readme_table():
    empty_seen = set()
    for m in range(1, 4):
        for mm, nn in itertools.product(range(1 << m), repeat=2):
            M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
            N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
            for variant, blocks in README_BLOCKS.items():
                expected = [
                    (x, y) for d1, d2 in blocks(m, M, N) for x in d1 for y in d2
                ]
                if not expected:
                    with pytest.raises(EmptyDefiningSetError) as err:
                        build_defining_set(spec(variant, m, M, N))
                    assert str(err.value) == EMPTY_MESSAGES[variant]
                    empty_seen.add((variant, len(M) == m, len(N) == m))
                    continue
                ds = build_defining_set(spec(variant, m, M, N))
                assert [(t1.bits, t2.bits) for t1, t2 in ds.pairs] == expected
                assert all(t1.m == t2.m == m for t1, t2 in ds.pairs)
    assert empty_seen == {
        (Variant.T2, True, False), (Variant.T2, True, True),
        (Variant.T3, False, True), (Variant.T3, True, True),
        (Variant.T4, True, False), (Variant.T4, False, True), (Variant.T4, True, True),
        (Variant.T5, True, True),
    }


def test_budget_check_builds_no_members(monkeypatch):
    def refuse(*args):
        raise AssertionError("the budget check built a member list")

    monkeypatch.setattr(construction, "complex_from_generator", refuse)
    with pytest.raises(BudgetExceededError):
        enumerate_code(build_defining_set(spec(Variant.T2, 24, {1})))


def test_t5_blocks_partition_the_complement():
    m = 3
    M, N = {1, 2}, {3}
    t1_pairs = set(build_defining_set(spec(Variant.T1, m, M, N)).word_pairs())
    t5_list = list(build_defining_set(spec(Variant.T5, m, M, N)).word_pairs())
    assert len(set(t5_list)) == len(t5_list)  # blocks are disjoint
    everything = {(x, y) for x in range(1 << m) for y in range(1 << m)}
    assert set(t5_list) | t1_pairs == everything
    assert set(t5_list) & t1_pairs == set()
    # block A first: a-part outside the M-complex, with the full 2^m b-parts
    m_complex_bits = {0b000, 0b001, 0b010, 0b011}
    block_a_len = (8 - 4) * 8
    assert all(t1 not in m_complex_bits for t1, _ in t5_list[:block_a_len])
    assert all(t1 in m_complex_bits for t1, _ in t5_list[block_a_len:])


def test_empty_defining_sets_raise():
    with pytest.raises(EmptyDefiningSetError):
        build_defining_set(spec(Variant.T5, 3, {1, 2, 3}, {1, 2, 3}))
    with pytest.raises(EmptyDefiningSetError):
        build_defining_set(spec(Variant.T2, 3, {1, 2, 3}, {1}))
    with pytest.raises(EmptyDefiningSetError):
        build_defining_set(spec(Variant.T3, 2, {1}, {1, 2}))
    with pytest.raises(EmptyDefiningSetError):
        DefiningSetSpec(variant=Variant.GENERIC, m=2, d1=(), d2=())


def test_generic_preserves_multiset_duplicates():
    v = BitVector(2, 0b01)
    w = BitVector(2, 0b10)
    ds = build_defining_set(
        DefiningSetSpec(variant=Variant.GENERIC, m=2, d1=(v, v), d2=(w,))
    )
    assert len(ds) == 2
    assert list(ds.word_pairs()) == [(1, 2), (1, 2)]
    # the block is the plain product of its sorted parts: a repeated t1
    # repeats its whole run of len(D2) pairs
    ds = build_defining_set(
        DefiningSetSpec(variant=Variant.GENERIC, m=2, d1=(w, v, w), d2=(w, v))
    )
    assert list(ds.word_pairs()) == [
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 1), (2, 2),
    ]


# --- the blocks against the materialized pair list ------------------------------


def pair_list(blocks):
    """Oracle: each block's pairs materialized, the product of its parts
    each sorted stably by bit word."""
    return [
        pair
        for d1, d2 in blocks
        for pair in itertools.product(*(sorted(part, key=lambda v: v.bits) for part in (d1, d2)))
    ]


def check_blocks_against_pairs(ds, pairs, messages):
    m = ds.m
    keys = [(t1.bits, t2.bits) for t1, t2 in pairs]
    assert list(ds.word_pairs()) == keys
    assert [(t1.bits, t2.bits) for t1, t2 in ds.pairs] == keys
    assert len(ds) == len(pairs)
    mu = Counter(t1.bits for t1, _t2 in pairs)
    assert ds.mu == [mu[x] for x in range(1 << m)]
    assert ds.rows == tuple(
        sum((t1.bits >> i & 1) << j for j, (t1, _t2) in enumerate(pairs)) for i in range(m)
    )
    points = [RingVector(m, t1.bits, t2.bits).elements() for t1, t2 in pairs]
    for v in messages:
        message = v.elements()
        assert encode(v, ds).elements() == tuple(dot(message, d) for d in points)


def test_blocks_agree_with_the_pair_list_up_to_m4():
    rng = random.Random(11)
    for m in range(1, 5):
        # at m = 4 one random message per set, to keep the walk short
        full = (1 << m) - 1
        corners = [RingVector(m, s, t) for s in (0, full) for t in (0, full)] if m < 4 else []
        for mm, nn in itertools.product(range(1 << m), repeat=2):
            M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
            N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
            for variant, blocks in README_BLOCKS.items():
                pairs = pair_list(
                    ([BitVector(m, x) for x in d1], [BitVector(m, y) for y in d2])
                    for d1, d2 in blocks(m, M, N)
                )
                if not pairs:
                    continue
                message = RingVector(m, rng.randrange(1 << m), rng.randrange(1 << m))
                ds = build_defining_set(spec(variant, m, M, N))
                check_blocks_against_pairs(ds, pairs, [*corners, message])


def test_generic_blocks_keep_the_stable_pair_order():
    rng = random.Random(12)
    for m in range(1, 5):
        for _ in range(12):
            d1 = [BitVector(m, rng.randrange(1 << m)) for _ in range(rng.randint(1, 7))]
            d2 = [BitVector(m, rng.randrange(1 << m)) for _ in range(rng.randint(1, 5))]
            d1.append(BitVector(m, d1[0].bits))  # at least one repeated t1
            d2.append(BitVector(m, d2[-1].bits))  # and one repeated t2
            ds = build_defining_set(DefiningSetSpec(variant=Variant.GENERIC, m=m, d1=d1, d2=d2))
            pairs = pair_list([(d1, d2)])
            messages = [
                RingVector(m, rng.randrange(1 << m), rng.randrange(1 << m)) for _ in range(4)
            ]
            check_blocks_against_pairs(ds, pairs, messages)


#: mu of each variant in closed form: (on Delta_M, off Delta_M) for |N| = b.
MU_CLOSED_FORMS = {
    Variant.T1: lambda m, b: (1 << b, 0),
    Variant.T2: lambda m, b: (0, 1 << b),
    Variant.T3: lambda m, b: ((1 << m) - (1 << b), 0),
    Variant.T4: lambda m, b: (0, (1 << m) - (1 << b)),
    Variant.T5: lambda m, b: ((1 << m) - (1 << b), 1 << m),
}


@pytest.mark.parametrize("m", range(12, 17))
def test_blocks_scale_without_the_pairs(m):
    # T5 at m = 12 with |M| + |N| = 3 has n = 4^12 - 8 = 16777208 pairs
    for M, N in [({1, 2}, {3}), (set(range(2, m)), {1, m})]:
        mask = sum(1 << (i - 1) for i in M)
        for variant, closed_form in MU_CLOSED_FORMS.items():
            s = spec(variant, m, M, N)
            tracemalloc.start()
            try:
                ds = build_defining_set(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (variant, m, peak)
            inside, outside = closed_form(m, len(N))
            assert ds.mu == [outside if x & ~mask else inside for x in range(1 << m)]
            assert sum(ds.mu) == len(ds) == defining_set_length(s)
    ds = build_defining_set(spec(Variant.T5, 12, {1, 2}, {3}))
    assert len(ds) == 16777208


def test_spec_validation():
    with pytest.raises(IndexError):
        spec(Variant.T1, 3, {4}, set())
    with pytest.raises(ValueError):
        DefiningSetSpec(variant=Variant.T1, m=0)
    with pytest.raises(ValueError):
        DefiningSetSpec(variant=Variant.T1, m=2, d1=(BitVector(2, 1),))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"m": True}, "m: expected an integer, got True"),
        ({"m": 3.5}, "m: expected an integer, got 3.5"),
        ({"M": {1.7}}, "M: expected an integer, got 1.7"),
        ({"M": {True}}, "M: expected an integer, got True"),
        ({"N": {"2"}}, "N: expected an integer, got '2'"),
    ],
    ids=["bool-m", "float-m", "float-M", "bool-M", "string-N"],
)
def test_spec_rejects_non_integers(fields, message):
    with pytest.raises(ValueError) as excinfo:
        DefiningSetSpec(**{"variant": Variant.T1, "m": 3, **fields})
    assert str(excinfo.value) == message


# --- ring vectors and encoding -------------------------------------------------


def test_ring_vector_round_trip_and_weight():
    v = RingVector.from_string("0abc")
    assert str(v) == "0abc"
    assert lee_weight(v) == 0 + 1 + 2 + 1
    assert v.element(2).symbol == "a"
    for i in range(1, 5):
        assert v.element(i) is ELEMENTS[i - 1]
    assert v.elements() == ELEMENTS
    rng = random.Random(2024)
    for length in (1, 1, 1, 65, 70, 71, 127, 128, 129, 1000, 4099):
        w = RingVector(length, rng.randrange(1 << length), rng.randrange(1 << length))
        assert str(w) == "".join(x.symbol for x in w.elements())
        assert RingVector.from_string(str(w)) == w
    with pytest.raises(ValueError, match="length must be positive"):
        RingVector.from_string("")
    for text in ("d", "0ad", "ab "):
        with pytest.raises(ValueError, match="unknown ring element"):
            RingVector.from_string(text)


def test_ring_vector_gray_blocks():
    # "ab": t-part is 01 (bit 1), s+t part is 11 (bits 2 and 3)
    v = RingVector.from_string("ab")
    assert gray_bits(v) == 0b1110
    assert gray_bits(v).bit_count() == lee_weight(v) == 3


def test_encode_zero_message_gives_zero_codeword():
    ds = build_defining_set(spec(Variant.T1, 2, {1}, {2}))
    cw = encode(RingVector(2, 0, 0), ds)
    assert str(cw) == "0000"


def test_encode_worked_example():
    ds = build_defining_set(spec(Variant.T1, 2, {1}, {2}))
    cw = encode(RingVector.from_string("a0"), ds)
    assert str(cw) == "00bb"
    assert lee_weight(cw) == 4


def test_encode_b_multiples_lie_in_kernel():
    ds = build_defining_set(spec(Variant.T2, 3, {1}, {2}))
    for t_word in range(8):
        cw = encode(RingVector(3, 0, t_word), ds)
        assert lee_weight(cw) == 0


def test_encode_agrees_with_symbol_table_oracle():
    rng = random.Random(5)
    ds = build_defining_set(spec(Variant.T5, 3, {1, 3}, {2}))
    d_strings = [str(RingVector(ds.m, t1, t2)) for t1, t2 in ds.word_pairs()]
    for _ in range(20):
        v = RingVector(3, rng.randrange(8), rng.randrange(8))
        expected = "".join(table_dot(str(v), d) for d in d_strings)
        assert str(encode(v, ds)) == expected


def test_encode_dimension_mismatch():
    ds = build_defining_set(spec(Variant.T1, 2, {1}, {2}))
    with pytest.raises(DimensionMismatchError):
        encode(RingVector(3, 0, 0), ds)


def generic_sets_with_zero_and_repeats(seed):
    """Random GENERIC sets up to m = 4, each part holding the zero vector
    and at least one repeated member."""
    rng = random.Random(seed)
    for m in range(1, 5):
        for _ in range(4):
            parts = []
            for size in (rng.randint(1, 5), rng.randint(1, 4)):
                part = [BitVector(m, 0)] + [BitVector(m, rng.randrange(1 << m)) for _ in range(size)]
                part.append(BitVector(m, rng.choice(part).bits))
                rng.shuffle(part)
                parts.append(part)
            yield build_defining_set(
                DefiningSetSpec(variant=Variant.GENERIC, m=m, d1=parts[0], d2=parts[1])
            )


def test_word_wide_encode_equals_per_coordinate_dot():
    """Every message of every T1..T5 code up to m = 3, and of GENERIC sets
    with repeated and zero members, against the ring's dot one coordinate
    at a time, reading each message's and each pair's elements once."""
    sets = [ds for m in range(1, 4) for ds in defining_sets(m)]
    for ds in [*sets, *generic_sets_with_zero_and_repeats(14)]:
        m = ds.m
        points = [RingVector(m, t1, t2).elements() for t1, t2 in ds.word_pairs()]
        for s_word, t_word in itertools.product(range(1 << m), repeat=2):
            v = RingVector(m, s_word, t_word)
            message = v.elements()
            expected = tuple(dot(message, d) for d in points)
            assert encode(v, ds).elements() == expected, ds


def test_coordinate_words_are_the_pair_bits():
    for ds in [*defining_sets(3), *generic_sets_with_zero_and_repeats(15)]:
        assert ds.rows is ds.coordinate_words[0]
        pairs = list(ds.word_pairs())
        for words, part in zip(ds.coordinate_words, (0, 1)):
            assert words == tuple(
                sum((pair[part] >> i & 1) << j for j, pair in enumerate(pairs))
                for i in range(ds.m)
            ), ds


@pytest.mark.parametrize(
    "s, flip",
    [
        (spec(Variant.T2, 3, {1}, {2}), lambda n: 1 << 5),
        # n = 512 > 256: the oracle sees 256 seeded coordinates, so flip them all
        (spec(Variant.T2, 9, {1, 2, 3, 4, 5, 6, 7, 8}, {1}), lambda n: (1 << n) - 1),
    ],
    ids=["one-bit", "sampled-coordinates"],
)
def test_tampered_coordinate_word_fails_the_oracle(s, flip):
    ds = build_defining_set(s)
    s_words, t_words = ds.coordinate_words
    tampered = (s_words[0] ^ flip(len(ds)), *s_words[1:])
    object.__setattr__(ds, "coordinate_words", (tampered, t_words))
    # the oracle runs first, before the rows or the transform are compared
    with pytest.raises(AssertionError, match="per-coordinate ring arithmetic"):
        enumerate_code(ds)


def test_coordinate_word_oracle_survives_optimized_mode():
    script = (
        "from icodes.construction import *\n"
        "ds = build_defining_set(DefiningSetSpec(Variant.T2, 3, {1}, {2}))\n"
        "s_words, t_words = ds.coordinate_words\n"
        "object.__setattr__(ds, 'coordinate_words', ((s_words[0] ^ 1, *s_words[1:]), t_words))\n"
        "enumerate_code(ds)\n"
    )
    src = pathlib.Path(construction.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 1
    assert (
        "AssertionError: per-coordinate ring arithmetic disagrees with the word-wide evaluation"
        in result.stderr
    )


def unsampled_a_part(ds):
    """An a-part whose Lee weight the spot check does not read."""
    read = set()

    class Logged(tuple):
        def __getitem__(self, x):
            read.add(x)
            return tuple.__getitem__(self, x)

    weights = ds.lee_weights
    object.__setattr__(ds, "lee_weights", Logged(weights))
    enumerate_code(ds)
    object.__setattr__(ds, "lee_weights", weights)
    return next(x for x in range(1 << ds.m) if x not in read)


#: Code size 2^m, one a-part per codeword: Lee weights 48 and 64.
ODD_WEIGHT_SPEC = spec(Variant.T2, 5, {1, 2, 3}, {4})


def test_odd_lee_weight_fails_enumeration():
    # 48 + 1 or 64 + 1 halves to the true weight of c, so only the parity
    # check sees it; the spot check never reads that a-part
    ds = build_defining_set(ODD_WEIGHT_SPEC)
    x = unsampled_a_part(ds)
    weights = list(ds.lee_weights)
    weights[x] += 1
    object.__setattr__(ds, "lee_weights", tuple(weights))
    with pytest.raises(AssertionError, match="every Lee weight must be even"):
        enumerate_code(ds)


def test_odd_lee_weight_check_survives_optimized_mode():
    x = unsampled_a_part(build_defining_set(ODD_WEIGHT_SPEC))
    script = (
        "from icodes.construction import *\n"
        "ds = build_defining_set(DefiningSetSpec(Variant.T2, 5, {1, 2, 3}, {4}))\n"
        "weights = list(ds.lee_weights)\n"
        f"weights[{x}] += 1\n"
        "object.__setattr__(ds, 'lee_weights', tuple(weights))\n"
        "enumerate_code(ds)\n"
    )
    src = pathlib.Path(construction.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 1
    assert "AssertionError: every Lee weight must be even: each codeword is b*c" in result.stderr


#: T2 m = 9 with n = 1022 > 256: the oracle checks 256 seeded coordinates.
SAMPLED_SPEC = spec(Variant.T2, 9, (), {1})


@pytest.mark.parametrize(
    "name, wrong",
    [
        # a * 0 = b
        ("__mul__", lambda x, y: ELEMENTS[(x.s | y.s) << 1]),
        # b + b = b
        ("__add__", lambda x, y: ELEMENTS[(x.s ^ y.s) | (x.t | y.t) << 1]),
    ],
    ids=["mul", "add"],
)
def test_patched_ring_arithmetic_fails_the_oracle(monkeypatch, name, wrong):
    # the oracle calls the ring's own operations as it runs, one coordinate
    # at a time (n = 12) or to build each message's sum table (n = 1022), so
    # a change made after import reaches it (the word-wide steps were
    # read from the tables at import and do not see it)
    sets = [build_defining_set(s) for s in (spec(Variant.T2, 3, {1}, {2}), SAMPLED_SPEC)]
    monkeypatch.setattr(RingElement, name, wrong)
    for ds in sets:
        with pytest.raises(
            AssertionError,
            match="per-coordinate ring arithmetic disagrees with the word-wide evaluation",
        ):
            enumerate_code(ds)


@pytest.mark.parametrize(
    "s, sums",
    [
        # n = 12: every coordinate, each adding its m products
        (spec(Variant.T2, 3, {1}, {2}), lambda m: 12 * m),
        # n = 512: 256 seeded picks, walked through a table of 16m sums
        (spec(Variant.T2, 9, {1, 2, 3, 4, 5, 6, 7, 8}, {1}), lambda m: 16 * m),
    ],
    ids=["every-coordinate", "sampled-coordinates"],
)
def test_oracle_multiplies_each_message_once(monkeypatch, s, sums):
    # 4 corners + 8 seeded messages; each takes its 4m products v_i * y once
    ds = build_defining_set(s)
    messages, m = 12, ds.m
    calls = Counter()
    for name in ("__mul__", "__add__"):
        def counted(x, y, original=getattr(RingElement, name), name=name):
            calls[name] += 1
            return original(x, y)

        monkeypatch.setattr(RingElement, name, counted)
    enumerate_code(ds)
    assert calls == {"__mul__": messages * 4 * m, "__add__": messages * sums(m)}


def test_sum_table_walks_to_every_dot():
    for m in range(1, 4):
        for s_word, t_word in itertools.product(range(1 << m), repeat=2):
            xs = RingVector(m, s_word, t_word).elements()
            table = construction._sum_table(xs)
            for d in itertools.product(range(4), repeat=m):
                walked = functools.reduce(operator.getitem, d, table)
                assert walked == dot(xs, [ELEMENTS[i] for i in d]), (xs, d)


@pytest.mark.parametrize(
    "s",
    [
        SAMPLED_SPEC,
        spec(Variant.T5, 7, {1, 2, 3}, {4, 5}),  # two blocks, n = 16352
        spec(Variant.T5, 5, {1, 2, 3, 4, 5}, {1}),  # first block empty, n = 960
        DefiningSetSpec(
            variant=Variant.GENERIC,
            m=4,
            d1=tuple(BitVector(4, x) for x in (3, 0, 3, 9, 15, 9, 9, 6, 0, 12) * 2),
            d2=tuple(BitVector(4, x) for x in (5, 1, 5, 14, 0, 7, 5, 2, 11, 1, 8, 13, 5, 4)),
        ),  # repeated members, n = 280
    ],
    ids=["T2-m9", "T5-two-blocks", "T5-empty-first-block", "generic-repeats"],
)
def test_block_arithmetic_picks_the_walked_pairs(s):
    ds = build_defining_set(s)
    n = len(ds)
    assert n > construction.ORACLE_COORDINATES
    pairs = list(ds.word_pairs())
    for seed in (0, 1, 0x9E3779B1 * ds.m ^ n):
        oracle = construction._oracle_pairs(ds, seed)
        picks = sorted(random.Random(seed).sample(range(n), construction.ORACLE_COORDINATES))
        assert [j for j, _d in oracle] == picks
        for j, d in oracle:
            t1, t2 = pairs[j]
            assert d == tuple(t1 >> i & 1 | (t2 >> i & 1) << 1 for i in range(ds.m))


# --- enumeration ---------------------------------------------------------------


def test_hand_computed_t1_m2_code():
    table = enumerate_code(build_defining_set(spec(Variant.T1, 2, {1}, {2})))
    assert table.weight_distribution == {0: 1, 2: 1}
    image = gray_image(table)
    assert image.weight_distribution == {0: 1, 4: 1}
    assert image.message_profile == {0: 8, 4: 8}
    assert table.kernel_size == image.kernel_size == 8
    assert ring_texts(table) == {"0000", "00bb"}


@pytest.mark.parametrize("variant", [Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5])
def test_enumeration_matches_symbol_table_oracle_m2(variant):
    for mm in range(4):
        for nn in range(4):
            M = frozenset(i + 1 for i in range(2) if mm >> i & 1)
            N = frozenset(i + 1 for i in range(2) if nn >> i & 1)
            try:
                ds = build_defining_set(spec(variant, 2, M, N))
            except EmptyDefiningSetError:
                continue
            table = enumerate_code(ds)
            profile, codewords = table_driven_code(ds)
            assert gray_image(table).message_profile == profile
            assert ring_texts(table) == set(codewords)
            assert table.kernel_size == codewords["0" * len(ds)]


#: GENERIC (d1, d2) per m, whose a-parts repeat and include zero.
GENERIC_PARTS = {
    1: (("1", "0", "1"), ("1",)),
    2: (("11", "00", "11", "01"), ("10", "10")),
    3: (("110", "101", "110", "000", "011"), ("001", "001", "111")),
    4: (("0000", "1100", "1100", "0111", "1111", "0000"), ("1010", "0001")),
}


def defining_sets(m):
    """Every nonempty T1..T5 defining set of dimension m, then the GENERIC one."""
    for variant in (Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5):
        for mm in range(1 << m):
            for nn in range(1 << m):
                M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
                N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
                try:
                    yield build_defining_set(spec(variant, m, M, N))
                except EmptyDefiningSetError:
                    pass
    yield generic_parts_set(m)


def generic_parts_set(m):
    d1, d2 = (tuple(map(BitVector.from_string, part)) for part in GENERIC_PARTS[m])
    return build_defining_set(DefiningSetSpec(variant=Variant.GENERIC, m=m, d1=d1, d2=d2))


def test_collapsed_and_plain_walks_agree(no_spot_check):
    """The transform table against the XOR span of the rows, its own
    built codewords and the character sums, and against the plain 4^m
    walk with the rows hidden, on every code up to m = 4."""
    for m in range(1, 5):
        for ds in defining_sets(m):
            check_transform_table(ds)


def check_transform_table(ds):
    m, n = ds.m, len(ds)
    table = enumerate_code(ds)
    image = gray_image(table)
    mu_hat = list(ds.mu)
    walsh_hadamard(mu_hat)
    points = [t1 for t1, _t2 in ds.pairs]
    words = [0]
    for row in ds.rows:
        words += [w ^ row for w in words]
    for alpha in all_vectors(m):
        assert character_sum(alpha, points) == mu_hat[alpha.bits]
        assert 2 * words[alpha.bits].bit_count() == n - mu_hat[alpha.bits]
    # the facts of c, from the XOR span of the rows
    distribution = Counter(w.bit_count() for w in set(words))
    profile = {w: count << m for w, count in Counter(w.bit_count() for w in words).items()}
    facts = (distribution, profile, words.count(0) << m, len(gf2_basis(words)))
    assert (table.weight_distribution, table.message_profile, table.kernel_size,
            len(table.rows)) == facts, ds
    assert list(table.codewords) == sorted(set(words))
    # the doubled image (c, c): its words, c's weights doubled, the same kernel and rank
    assert tuple(image.codewords) == tuple(c | c << n for c in table.codewords)
    assert image.weight_distribution == {2 * w: count for w, count in distribution.items()}
    assert (image.length, image.kernel_size, len(image.rows)) == (2 * n, *facts[2:])
    # the reference reads no generator row, so hide the rows from it
    object.__setattr__(ds, "rows", None)
    slow, lee_profile = plain_walk(ds)
    assert slow == table
    assert image.message_profile == lee_profile, ds
    assert (slow.weight_distribution, slow.message_profile, slow.kernel_size,
            len(gf2_basis(slow.codewords))) == facts, ds


#: (weight distribution, message profile, kernel size, Gray [n, k, d],
#: minimal, self-orthogonal) of GENERIC codes, recorded when equal members
#: of a part still paired in a row; the pair order permutes coordinates
#: only, so these stay, and only codeword strings and witnesses may move.
GENERIC_FACTS = {
    "parts-m1": ({0: 1, 4: 1}, {0: 2, 4: 2}, 2, [6, 1, 4], True, True),
    "parts-m2": (
        {0: 1, 4: 1, 8: 1, 12: 1}, {0: 4, 4: 4, 8: 4, 12: 4}, 4, [16, 2, 4], False, True,
    ),
    "parts-m3": ({0: 1, 12: 1, 18: 2}, {0: 16, 12: 16, 18: 32}, 16, [30, 2, 12], True, True),
    "parts-m4": (
        {0: 1, 4: 2, 8: 2, 12: 2, 16: 1}, {0: 32, 4: 64, 8: 64, 12: 64, 16: 32}, 32,
        [24, 3, 4], False, True,
    ),
    "random-0": ({0: 1, 16: 1}, {0: 2, 16: 2}, 2, [24, 1, 16], True, True),
    "random-4": ({0: 1, 12: 2, 24: 1}, {0: 4, 12: 8, 24: 4}, 4, [36, 2, 12], False, True),
    "random-8": (
        {0: 1, 10: 1, 20: 1, 30: 1}, {0: 16, 10: 16, 20: 16, 30: 16}, 16, [50, 2, 10], False,
        True,
    ),
    "random-11": (
        {0: 1, 10: 2, 20: 2, 30: 2, 40: 1}, {0: 8, 10: 16, 20: 16, 30: 16, 40: 8}, 8,
        [60, 3, 10], False, True,
    ),
    "random-14": (
        {0: 1, 10: 2, 20: 1, 30: 1, 40: 2, 50: 1},
        {0: 32, 10: 64, 20: 32, 30: 32, 40: 64, 50: 32}, 32, [70, 3, 10], False, True,
    ),
}


def test_generic_facts_do_not_depend_on_the_pair_order():
    sets = {f"parts-m{m}": generic_parts_set(m) for m in range(1, 5)}
    for i, ds in enumerate(generic_sets_with_zero_and_repeats(14)):
        if f"random-{i}" in GENERIC_FACTS:
            sets[f"random-{i}"] = ds
    assert sets.keys() == GENERIC_FACTS.keys()
    for name, ds in sets.items():
        image = gray_image(enumerate_code(ds))
        facts = (
            image.weight_distribution, image.message_profile, image.kernel_size,
            binary_params(image).as_list(), is_minimal_exhaustive(image).minimal,
            is_self_orthogonal(image).self_orthogonal,
        )
        assert facts == GENERIC_FACTS[name], name


def test_tables_build_their_codewords_when_read():
    ds = build_defining_set(spec(Variant.T2, 4, {1, 2}, {3}))
    table = enumerate_code(ds)
    image = gray_image(table)
    for t in (table, image):
        assert "codewords" not in vars(t) and len(t) == 16 and len(t.rows) == 4
    # the image of row r is r | r << n, and the image keeps the table order
    n = len(ds)
    assert image.rows == tuple(r | r << n for r in table.rows)
    assert tuple(image.codewords) == tuple(c | c << n for c in table.codewords)
    # streamed words meet the weight law of the distribution, here one with
    # the true size and total weight, {0: 1, 24: 12, 32: 3}, but not the
    # shape: every word is yielded, and the law is checked after the last
    broken = dataclasses.replace(image, weight_distribution={0: 1, 16: 3, 28: 12})
    words = iter(broken.codewords)
    assert len(list(itertools.islice(words, 16))) == 16
    with pytest.raises(AssertionError, match="codeword weights disagree"):
        next(words)
    # and each word must rise above the one before as it is yielded: with
    # the basis reversed, the third word falls back below the second
    unordered = dataclasses.replace(image)
    object.__setattr__(unordered, "rows", image.rows[::-1])
    words = iter(unordered.codewords)
    assert len(list(itertools.islice(words, 2))) == 2
    with pytest.raises(AssertionError, match="must increase"):
        next(words)
    # the image's own weight law refuses weights that were not doubled
    with pytest.raises(AssertionError, match="weights must total"):
        CodeTable(2 * n, image.rows, table.kernel_size, table.weight_distribution)


def test_table_equality_builds_no_codeword(monkeypatch):
    ds = build_defining_set(spec(Variant.T2, 3, {1}, {2}))
    fast = enumerate_code(ds)
    slow, _lee_profile = plain_walk(ds)

    def refuse(table):
        raise AssertionError("codewords built")

    monkeypatch.setattr(CodeTable, "codewords", property(refuse))
    # the walk's 2^k word rows and the m generator rows reduce to one basis
    assert slow == fast
    assert gray_image(slow) == gray_image(fast)
    assert fast != dataclasses.replace(fast, kernel_size=2 * fast.kernel_size)


def test_tampered_generator_rows_fail_the_ring_check():
    ds = build_defining_set(spec(Variant.T2, 3, {1}, {2}))
    v = RingVector(3, 0b010, 0)
    codeword = encode(v, ds)
    assert codeword.t_word == ds.rows[1]
    rows = list(ds.rows)
    rows[1] ^= 1 << 3
    object.__setattr__(ds, "rows", tuple(rows))
    assert encode(v, ds) == codeword  # encode reads no row
    with pytest.raises(AssertionError, match="ring-arithmetic"):
        enumerate_code(ds)


@pytest.mark.parametrize(
    "length, rows, distribution, message",
    [
        pytest.param(3, (0, 5, 5), {0: 1, 2: 2}, "2\\^rank", id="duplicate-words"),
        pytest.param(3, (0, 3, 5), {0: 1, 2: 2}, "2\\^rank", id="non-linear-binary-table"),
        # the Gray images 0101 and 1010 of the ring words 0b and b0, without their sum
        pytest.param(
            4, (0, 0b0101, 0b1010), {0: 1, 2: 2}, "2\\^rank", id="non-linear-ring-table"
        ),
        pytest.param(3, (3, 5, 6), {2: 3}, "zero codeword", id="missing-zero"),
        pytest.param(
            3, (0b111,), {0: 1, 4: 1}, "weight outside", id="weight-above-length"
        ),
        # the Gray image of the length-1 ring word b, given Lee weight 4 > 2n
        pytest.param(
            2, (0b11,), {0: 1, 4: 1}, "weight outside", id="weight-above-twice-the-length"
        ),
        pytest.param(3, (0b1000,), {0: 1, 1: 1}, "wider", id="row-wider-than-length"),
    ],
)
def test_validate_rejects_each_broken_law(length, rows, distribution, message):
    # a table validates its laws when it is built; rows given as a word set
    # with its words counted make 2^rank of them only if it is a subspace,
    # so no certificate ever meets a non-linear table
    with pytest.raises(AssertionError, match=message):
        CodeTable(length, rows, 1, distribution)


def test_validate_survives_optimized_mode():
    # python -O strips assert statements; the laws must still raise.
    script = (
        "from icodes.construction import CodeTable\n"
        "CodeTable(3, (3, 5, 6), 1, {2: 3})\n"
    )
    src = pathlib.Path(construction.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 1
    assert "AssertionError: zero codeword must be the unique weight-0 word" in result.stderr


def test_reference_distributions():
    # the Lee distributions, read off the Gray images
    for s, distribution in [
        (spec(Variant.T1, 6, {2, 3}, {4, 5}), {0: 1, 16: 3}),
        (spec(Variant.T2, 5, {1, 2, 3}, {4}), {0: 1, 48: 28, 64: 3}),
        (spec(Variant.T5, 4, {2, 3, 4}, {1, 2, 4}), {0: 1, 192: 14, 256: 1}),
    ]:
        assert gray_image(enumerate_code(build_defining_set(s))).weight_distribution == distribution


def test_code_sizes_follow_the_variant():
    for m, M, N in [(3, {1, 2}, {3}), (4, {2}, {1, 3})]:
        for variant in (Variant.T1, Variant.T3):
            table = enumerate_code(build_defining_set(spec(variant, m, M, N)))
            assert len(table.codewords) == 1 << len(M)
        for variant in (Variant.T2, Variant.T4, Variant.T5):
            table = enumerate_code(build_defining_set(spec(variant, m, M, N)))
            assert len(table.codewords) == 1 << m


def test_kernel_law_and_totals():
    table = enumerate_code(build_defining_set(spec(Variant.T2, 4, {1, 2}, {3})))
    assert sum(table.message_profile.values()) == 4**4
    assert len(table.codewords) * table.kernel_size == 4**4
    for w, count in table.weight_distribution.items():
        assert table.message_profile[w] == count * table.kernel_size


def test_code_is_a_module_over_the_ring():
    ds = build_defining_set(spec(Variant.T2, 3, {1}, {2}))
    # the ring codewords, every message through encode, are the words b*c
    words = {encode(RingVector(3, s, t), ds) for s in range(8) for t in range(8)}
    assert {str(u) for u in words} == ring_texts(enumerate_code(ds))
    elements = {u.elements() for u in words}
    for u in words:
        for v in words:
            assert u + v in words
        for r in ELEMENTS:
            assert tuple(r * x for x in u.elements()) in elements


def test_budget_exceeded_reports_required_work():
    ds = build_defining_set(spec(Variant.T1, 4, {1, 2}, {3, 4}))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_code(ds, work_budget=10)
    assert err.value.required == (1 << 4) * len(ds)
    assert err.value.budget == 10


# --- Gray images ---------------------------------------------------------------


def test_gray_image_of_worked_example():
    table = enumerate_code(build_defining_set(spec(Variant.T1, 6, {2, 3}, {4, 5})))
    image = gray_image(table)
    assert binary_params(image).as_list() == [32, 2, 16]
    assert image.weight_distribution == {0: 1, 16: 3}


def test_gray_zero_and_all_b_codewords():
    zero = RingVector(4, 0, 0)
    assert gray_bits(zero) == 0
    all_b = RingVector(4, 0, 0b1111)
    assert gray_bits(all_b) == 0b11111111


def test_gray_isometry_exhaustive_small():
    for m in range(1, 4):
        for s in range(1 << m):
            for t in range(1 << m):
                v = RingVector(m, s, t)
                assert gray_bits(v).bit_count() == lee_weight(v)


def test_gray_distance_form_random_pairs():
    rng = random.Random(3)
    for _ in range(500):
        m = rng.randint(1, 10)
        x = RingVector(m, rng.randrange(1 << m), rng.randrange(1 << m))
        y = RingVector(m, rng.randrange(1 << m), rng.randrange(1 << m))
        diff = x + y  # additive group has exponent 2, so x - y = x + y
        assert (gray_bits(x) ^ gray_bits(y)).bit_count() == lee_weight(diff)


def test_binary_params_reference_values():
    t2 = enumerate_code(build_defining_set(spec(Variant.T2, 5, {1, 2, 3}, {4})))
    assert binary_params(gray_image(t2)).as_list() == [96, 5, 48]
    t3 = enumerate_code(build_defining_set(spec(Variant.T3, 3, {1, 2, 3}, {1, 2})))
    assert binary_params(gray_image(t3)).as_list() == [64, 3, 32]


def test_binary_params_zero_code_degenerate():
    table = enumerate_code(build_defining_set(spec(Variant.T1, 3, set(), set())))
    params = binary_params(gray_image(table))
    assert params.n == 2 and params.k == 0 and params.d is None
    assert params.degenerate


def test_binary_params_rejects_non_power_of_two():
    # three words are no subspace: the table cannot be built, so binary_params
    # never sees it; the words closed under addition have parameters
    with pytest.raises(AssertionError, match="2\\^rank"):
        CodeTable(3, (0, 0b101, 0b011), 1, {0: 1, 2: 2})
    closed = CodeTable(3, (0, 0b101, 0b011, 0b110), 1, {0: 1, 2: 3})
    assert binary_params(closed).as_list() == [3, 2, 2]


# --- enumerator rendering -------------------------------------------------------


def test_weight_enumerator_strings():
    # the Lee enumerators are the Gray images' enumerators
    t1 = enumerate_code(build_defining_set(spec(Variant.T1, 6, {2, 3}, {4, 5})))
    assert weight_enumerator(gray_image(t1)) == "X^32 + 3X^16Y^16"
    t5 = enumerate_code(build_defining_set(spec(Variant.T5, 4, {2, 3, 4}, {1, 2, 4})))
    assert weight_enumerator(gray_image(t5)) == "X^384 + 14X^192Y^192 + X^128Y^256"
    # c itself: length 16, three words of weight 8
    assert weight_enumerator(t1) == "X^16 + 3X^8Y^8"
