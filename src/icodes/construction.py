"""Defining sets over I^m and the codes they generate.

A defining set is a union of blocks D1 x D2, each pair (t1, t2) of a
block standing for the element a*t1 + b*t2 of I^m, and it is held as
those blocks, never as its n pairs.  One table (:func:`_blocks`) states
each variant's blocks.  T1..T4 have one, whose parts are Delta_M or
Delta_N (the vectors supported inside M or N) or their complements in
F_2^m; T5, the complement in I^m of the T1 set, has two disjoint ones;
GENERIC has one, of its given lists.  Each part lists its members in
increasing order and has a closed-form size, so lengths and empty-set
errors build no members, and :func:`enumerate_code`, the one place that
charges the work budget, charges it before anything is read; the blocks
and mu take O(2^m) memory whatever n is, and the 2m coordinate words,
cached once read, add 2m*n bits.  The pairs are each block's plain
product D1 x D2 in turn (the one order, stated in
:meth:`DefiningSet.word_pairs`), listed only when that method walks
them.  The code is the image of the evaluation
map v -> (v . d)_{d in D} over all messages v in I^m; because b kills
every product, a codeword depends only on the a-part alpha of the
message: the code is b times the row space of one m x n
binary generator matrix (:attr:`DefiningSet.rows`), whose columns are
the t1 parts.  So the code is fixed by the column multiplicity
mu(x) = #{d : t1(d) = x} (:attr:`DefiningSet.mu`), and the Lee weight of
alpha's codeword is the character sum n - mu_hat(alpha):
:attr:`DefiningSet.lee_weights` holds every weight from one
Walsh-Hadamard transform of mu, which :func:`enumerate_code` and the
minimality certificate share.  Both mu and the coordinate words are
read off the blocks, and the rows are the s-half of the coordinate
words.  A :class:`CodeTable` is a binary linear code: its generator rows,
reduced once to the canonical reduced echelon basis, with its weight
distribution and kernel size; its codewords stream from the basis as
ints in increasing order.  :func:`enumerate_code` returns the table of
c, and :func:`gray_image` that of (c, c), which every Lee fact is read off.
:func:`encode` takes every coordinate at once, moving n-bit element
masks through the ring's tables.  :func:`enumerate_code` always
spot-checks the rows and the transform against the elements' own ring
arithmetic on sampled messages, summing each of a large code's 256
sampled coordinates through a per-message table of 4m products and 16m
sums (:func:`_sum_table`; :func:`_spot_check` states the chain).  Each
law is checked with explicit raises that survive ``python -O``: the laws
of the weight data and the rank when a table is constructed, so no table
exists unless they hold, and the laws that read codewords as codewords
are streamed.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, DimensionMismatchError, EmptyDefiningSetError
from .geometry import (
    MAX_DIMENSION,
    BitVector,
    SimplicialComplex,
    bit_string,
    complex_from_generator,
    gf2_basis,
    walsh_hadamard,
)
from .ring import (
    ELEMENTS,
    SYMBOLS,
    ZERO,
    RingElement,
    addition_table,
    multiplication_table,
)

#: Default cap on elementary parity operations for one code enumeration.
DEFAULT_WORK_BUDGET = 1 << 32

#: The symbols in the canonical 0, a, b, c order, as one text.
_SYMBOL_TEXT = "".join(SYMBOLS)
#: Hex digit s_i + 2*t_i (a vector's two 0/1 texts read as hex) to its symbol.
_SYMBOL_OF_DIGIT = str.maketrans("0123", _SYMBOL_TEXT)
#: A symbol to its s bit, and to its t bit, as 0/1 text.
_S_BIT_OF_SYMBOL = str.maketrans(_SYMBOL_TEXT, "0101")
_T_BIT_OF_SYMBOL = str.maketrans(_SYMBOL_TEXT, "0011")
#: Most coordinates per code that the agreement check evaluates one by one.
ORACLE_COORDINATES = 256


def _ring_steps() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each x, every (s, y, s + x*y), read from the ring's tables with
    each element as its index in ELEMENTS: a running sum s at a coordinate
    where d is y becomes s + x*y.  Empty when x*y leaves every sum as it is."""
    times, plus, index = multiplication_table(), addition_table(), ELEMENTS.index
    out = []
    for x in range(4):
        steps = [(s, y, index(plus[s][index(times[x][y])])) for s in range(4) for y in range(4)]
        out.append(tuple(steps) if any(s != after for s, _y, after in steps) else ())
    return tuple(out)


_STEPS = _ring_steps()


class Variant(str, Enum):
    """How the two halves of the defining set are chosen."""

    T1 = "T1"  # a*complex(M)            + b*complex(N)
    T2 = "T2"  # a*complement(M)         + b*complex(N)
    T3 = "T3"  # a*complex(M)            + b*complement(N)
    T4 = "T4"  # a*complement(M)         + b*complement(N)
    T5 = "T5"  # complement in I^m of the T1 set
    GENERIC = "GENERIC"  # caller-supplied D1, D2


@dataclass(frozen=True, slots=True)
class RingVector:
    """A vector a*alpha + b*beta in I^m, stored as two bit words.

    Also used for the ring codewords :func:`encode` evaluates, whose length
    may exceed the ambient-dimension cap of :class:`BitVector`; the words
    are plain ints for that reason.
    """

    m: int
    s_word: int = 0
    t_word: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"length must be positive, got {self.m}")
        for word in (self.s_word, self.t_word):
            if not 0 <= word < 1 << self.m:
                raise ValueError(f"word {word:#x} does not fit in {self.m} bits")

    @classmethod
    def from_string(cls, text: str) -> RingVector:
        """The inverse of ``str``: one symbol of ``0abc`` per coordinate,
        coordinate 1 first."""
        unknown = text.lstrip(_SYMBOL_TEXT)
        if unknown:
            raise ValueError(f"unknown ring element {unknown[0]!r}")
        # the last coordinate (the highest bit) first, as int() reads it
        digits = text[::-1] or "0"
        return cls(
            len(text),
            int(digits.translate(_S_BIT_OF_SYMBOL), 2),
            int(digits.translate(_T_BIT_OF_SYMBOL), 2),
        )

    def element(self, i: int) -> RingElement:
        """Coordinate i (1-based)."""
        if not 1 <= i <= self.m:
            raise IndexError(f"coordinate {i} outside [{self.m}]")
        return ELEMENTS[(self.s_word >> (i - 1) & 1) | (self.t_word >> (i - 1) & 1) << 1]

    def elements(self) -> tuple[RingElement, ...]:
        return tuple(self.element(i) for i in range(1, self.m + 1))

    def __add__(self, other: RingVector) -> RingVector:
        if self.m != other.m:
            raise DimensionMismatchError(f"dimension mismatch: {self.m} vs {other.m}")
        return RingVector(self.m, self.s_word ^ other.s_word, self.t_word ^ other.t_word)

    def __str__(self) -> str:
        s, t = (int(bit_string(word, self.m), 16) for word in (self.s_word, self.t_word))
        return format(s + 2 * t, f"0{self.m}x").translate(_SYMBOL_OF_DIGIT)


@dataclass(frozen=True)
class DefiningSetSpec:
    """Parameters selecting a defining set.

    M and N are subsets of [m] generating the complexes used by variants
    T1..T5; GENERIC instead takes explicit component lists d1, d2 (kept as
    multisets: duplicates are preserved).
    """

    variant: Variant
    m: int
    M: frozenset[int] = frozenset()
    N: frozenset[int] = frozenset()
    d1: tuple[BitVector, ...] | None = None
    d2: tuple[BitVector, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "M", frozenset(self.M))
        object.__setattr__(self, "N", frozenset(self.N))
        for name, values in (("m", (self.m,)), ("M", self.M), ("N", self.N)):
            for value in values:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{name}: expected an integer, got {value!r}")
        if not 1 <= self.m <= MAX_DIMENSION:
            raise ValueError(f"m must be in 1..{MAX_DIMENSION}, got {self.m}")
        for name, subset in (("M", self.M), ("N", self.N)):
            for i in subset:
                if not 1 <= i <= self.m:
                    raise IndexError(f"{name} contains {i}, outside [{self.m}]")
        if self.variant is Variant.GENERIC:
            if not self.d1 or not self.d2:
                raise EmptyDefiningSetError("GENERIC requires nonempty d1 and d2")
            object.__setattr__(self, "d1", tuple(self.d1))
            object.__setattr__(self, "d2", tuple(self.d2))
            for part in (self.d1, self.d2):
                for v in part:
                    if v.m != self.m:
                        raise DimensionMismatchError(
                            f"component dimension {v.m} does not match m={self.m}"
                        )
        elif self.d1 is not None or self.d2 is not None:
            raise ValueError("explicit d1/d2 are only valid for the GENERIC variant")


@dataclass(frozen=True)
class DefiningSet:
    """A defining set held as its blocks D1 x D2, in turn.

    Each pair (t1, t2) of a block stands for a*t1 + b*t2.  A part lists
    its members in increasing order of the bit word, so the set holds
    nothing of size n until its coordinate words are read: its length is
    the closed form, and mu and the coordinate words are read off the
    blocks.  The pairs, in the order :meth:`word_pairs` states, are
    listed only when that method walks them.
    """

    m: int
    blocks: tuple[tuple[_Part | _Listed, _Part | _Listed], ...]

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The m rows of the binary generator matrix G, as n-bit words:
        the s-half of :attr:`coordinate_words`, so bit j of row i is
        coordinate i+1 of t1 in pair j.  Since ab = b^2 = 0, the codeword
        of a message with a-part alpha is b times the XOR of the rows that
        alpha selects."""
        return self.coordinate_words[0]

    @cached_property
    def coordinate_words(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The pairs' coordinates as 2m n-bit words: (s_1..s_m, t_1..t_m).

        Bit j of s_i is bit i-1 of t1 in pair j, and bit j of t_i the same
        bit of t2, so coordinate i of pair j is a*s + b*t for those bits.
        A block D1 x D2 is a plain product (:meth:`word_pairs`), so each
        member of D1 fills len(D2) consecutive bits of s_i with its bit,
        and t_i repeats the pattern of D2 len(D1) times.
        """
        # each block's parts, from the last pair down
        layout = [
            (tuple(d1.words())[::-1], tuple(d2.words())[::-1]) for d1, d2 in reversed(self.blocks)
        ]
        s_words, t_words = [], []
        for i in range(self.m):
            s_text, t_text = [], []
            for t1_words, t2_words in layout:
                zero, one = "0" * len(t2_words), "1" * len(t2_words)
                s_text += [one if x >> i & 1 else zero for x in t1_words]
                t_text.append("".join(["01"[y >> i & 1] for y in t2_words]) * len(t1_words))
            s_words.append(int("".join(s_text), 2))
            t_words.append(int("".join(t_text), 2))
        return tuple(s_words), tuple(t_words)

    @cached_property
    def mu(self) -> list[int]:
        """The column multiplicity: mu[x] pairs have t1 with bit word x.

        Each member of D1 adds len(D2), so GENERIC duplicates and zero
        members count too; a list over all 2^m words, summing to n.
        """
        mu = [0] * (1 << self.m)
        for d1, d2 in self.blocks:
            width = len(d2)
            for x in d1.words():
                mu[x] += width
        _check(sum(mu) == len(self), "the listed members disagree with the closed-form length")
        return mu

    @cached_property
    def lee_weights(self) -> tuple[int, ...]:
        """W(alpha) = n - mu_hat(alpha), the Lee weight of the codeword of
        every a-part alpha, from one Walsh-Hadamard transform of :attr:`mu`:
        the one transform that enumeration and the certificates share."""
        weights = list(self.mu)
        walsh_hadamard(weights)
        n = len(self)
        return tuple(n - total for total in weights)

    @property
    def pairs(self) -> Iterator[tuple[BitVector, BitVector]]:
        """The pairs in order, as bit vectors: :meth:`word_pairs` wrapped."""
        m = self.m
        return ((BitVector(m, s), BitVector(m, t)) for s, t in self.word_pairs())

    def __len__(self) -> int:
        return sum(len(d1) * len(d2) for d1, d2 in self.blocks)

    def word_pairs(self) -> Iterator[tuple[int, int]]:
        """The bit words (t1, t2) of the pairs, in the one order of the set.

        Each block in turn is the plain product D1 x D2 of its parts, each
        part in increasing order: t1 major, t2 minor, and a member given k
        times repeats its whole run of len(D2) pairs k times.
        """
        for d1, d2 in self.blocks:
            yield from itertools.product(d1.words(), d2.words())


@dataclass(frozen=True)
class _Part:
    """One factor of a block: Delta_S, or its complement in F_2^m.

    len() is the closed form 2^|S| (2^m - 2^|S| for the complement), so
    sizing a block builds no members; words() lists the members in
    increasing integer order.  All of F_2^m is Delta_[m].
    """

    m: int
    indices: frozenset[int]
    inside: bool = True

    def __len__(self) -> int:
        size = 1 << len(self.indices)
        return size if self.inside else (1 << self.m) - size

    @cached_property
    def _complex(self) -> SimplicialComplex:
        return complex_from_generator(self.m, self.indices)

    def words(self) -> Iterator[int]:
        complex_ = self._complex
        return iter((complex_ if self.inside else complex_.complement()).words())


@dataclass(frozen=True)
class _Listed:
    """A GENERIC part: the bit words of the given members in increasing
    order, a member given k times listed k times (for the pair order see
    :meth:`DefiningSet.word_pairs`)."""

    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def words(self) -> Iterator[int]:
        return iter(self.members)


#: Why a variant's defining set can be empty; T1 and GENERIC never are.
_EMPTY_REASONS = {
    Variant.T2: "complement of the full complex is empty (|M| = m)",
    Variant.T3: "complement of the full complex is empty (|N| = m)",
    Variant.T4: "complement of the full complex is empty",
    Variant.T5: "T1 set is all of I^m, its complement is empty",
}


def _blocks(spec: DefiningSetSpec) -> tuple[tuple[_Part | _Listed, _Part | _Listed], ...]:
    """The blocks D1 x D2 whose products, in turn, make up the defining set."""
    if spec.variant is Variant.GENERIC:
        d1, d2 = (_Listed(tuple(sorted(v.bits for v in part))) for part in (spec.d1, spec.d2))
        return ((d1, d2),)
    m = spec.m
    delta_m, delta_n = _Part(m, spec.M), _Part(m, spec.N)
    outside_m, outside_n = _Part(m, spec.M, inside=False), _Part(m, spec.N, inside=False)
    everything = _Part(m, frozenset(range(1, m + 1)))
    return {
        Variant.T1: ((delta_m, delta_n),),
        Variant.T2: ((outside_m, delta_n),),
        Variant.T3: ((delta_m, outside_n),),
        Variant.T4: ((outside_m, outside_n),),
        Variant.T5: ((outside_m, everything), (delta_m, outside_n)),
    }[spec.variant]


def defining_set_length(spec: DefiningSetSpec) -> int:
    """Closed-form length of the defining set, without building a member.

    Raises EmptyDefiningSetError for parameter choices whose set has no
    elements.
    """
    return len(build_defining_set(spec))


def build_defining_set(spec: DefiningSetSpec) -> DefiningSet:
    """The defining set described by spec, held as its blocks.

    Its pairs are in the order of :meth:`DefiningSet.word_pairs`; T5
    lists its two disjoint blocks in turn (a-part outside the M-complex
    with free b-part, then a-part inside with b-part outside the
    N-complex).  Building it lists no member and no pair is stored: the
    set takes O(2^m) memory once mu is read, and 2m*n bits more once the
    coordinate words (or the rows, their s-half) are read.
    """
    ds = DefiningSet(spec.m, _blocks(spec))
    if not len(ds):
        raise EmptyDefiningSetError(_EMPTY_REASONS[spec.variant])
    return ds


def encode(v: RingVector, ds: DefiningSet) -> RingVector:
    """Evaluate the codeword (v . d)_{d in D} on all n coordinates at once.

    For each coordinate i, the n elements d_i are split by
    :attr:`DefiningSet.coordinate_words` into four n-bit masks (where d_i
    is 0, a, b, c); the product v_i * d_i and the running sum then move
    whole masks as the ring's multiplication and addition tables say, so
    a message costs O(m) big-int operations.  Reads the coordinate words
    only, never the cached :attr:`DefiningSet.rows`, their s-half.
    """
    if v.m != ds.m:
        raise DimensionMismatchError(f"message length {v.m} != ambient {ds.m}")
    n = len(ds)
    full = (1 << n) - 1
    sums = [full, 0, 0, 0]  # where the running sum is 0, a, b, c: 0 everywhere
    for i, (s, t) in enumerate(zip(*ds.coordinate_words)):
        steps = _STEPS[v.s_word >> i & 1 | (v.t_word >> i & 1) << 1]
        if steps:
            masks = (full ^ (s | t), s & ~t, t & ~s, s & t)  # where d_i is 0, a, b, c
            total = [0, 0, 0, 0]
            for before, y, after in steps:
                total[after] |= sums[before] & masks[y]
            sums = total
    return RingVector(n, sums[1] | sums[3], sums[2] | sums[3])


@dataclass(frozen=True)
class CodeTable:
    """A binary linear code: its generator rows with its weight bookkeeping.

    rows generate the code over GF(2) and may be dependent; construction
    replaces them by the canonical basis of their span
    (:func:`_reduced_echelon`), so tables of one code compare equal
    whatever rows they were given, and the x-th codeword in increasing
    order is the XOR of the rows that x selects.  weight_distribution
    counts codewords per Hamming weight.  The laws of a table are checked
    on construction, so no table exists unless they hold: among them, the
    words number 2^rank and weigh in all what the coordinates the rows
    reach fix.  The laws that read codewords are checked as
    :attr:`codewords` streams them.
    """

    length: int
    rows: tuple[int, ...]
    kernel_size: int
    weight_distribution: dict[int, int]

    def __post_init__(self) -> None:
        rows = _reduced_echelon(self.rows)
        object.__setattr__(self, "rows", rows)
        wd = self.weight_distribution
        _check(wd.get(0) == 1, "zero codeword must be the unique weight-0 word")
        _check(all(0 <= w <= self.length for w in wd), "weight outside the possible range")
        _check(not rows or rows[-1].bit_length() <= self.length, "row wider than the length")
        _check(1 << len(rows) == len(self), "code size must be 2^rank of the rows")
        # each coordinate some row reaches is 1 in half the codewords
        support = 0
        for row in rows:
            support |= row
        _check(
            2 * sum(w * count for w, count in wd.items()) == support.bit_count() << len(rows),
            "weights must total half the code size per reached coordinate",
        )

    def __len__(self) -> int:
        return sum(self.weight_distribution.values())

    def __repr__(self) -> str:
        return (
            f"CodeTable(length={self.length}, size={len(self)}, "
            f"kernel_size={self.kernel_size}, weight_distribution={self.weight_distribution})"
        )

    @property
    def message_profile(self) -> dict[int, int]:
        """Messages per weight, in increasing weight order: each codeword
        is the image of kernel_size messages."""
        wd = self.weight_distribution
        return {w: wd[w] * self.kernel_size for w in sorted(wd)}

    @property
    def num_weights(self) -> int:
        """Number of distinct nonzero weights."""
        return sum(1 for w in self.weight_distribution if w > 0)

    def min_nonzero_weight(self) -> int | None:
        nonzero = [w for w in self.weight_distribution if w > 0]
        return min(nonzero) if nonzero else None

    def max_weight(self) -> int:
        return max(self.weight_distribution)

    @property
    def codewords(self) -> _Codewords:
        """Every codeword, in increasing order, streamed from the rows on
        each pass (see :class:`_Codewords`); len() is the code size."""
        return _Codewords(self)


class _Codewords:
    """The codewords of a table as ints in increasing order, never held whole.

    Each pass builds the words from the rows one at a time: the x-th is
    the XOR of the rows that x selects, so it is the (x-1)-th XOR rows 0
    to i, where bit i is the lowest set bit of x.  Each word is checked
    to be above the one before as it is yielded (so the words are
    distinct), and the weights of all of them against the distribution
    after the last.
    """

    __slots__ = ("_table",)

    def __init__(self, table: CodeTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        table = self._table
        prefix = list(itertools.accumulate(table.rows, operator.xor))
        weights, word = Counter(), 0
        for x in range(1 << len(prefix)):
            if x:
                before, word = word, word ^ prefix[(x & -x).bit_length() - 1]
                _check(before < word, "codewords must increase from the zero word in index order")
            weights[word.bit_count()] += 1
            yield word
        _check(
            weights == Counter(table.weight_distribution),
            "codeword weights disagree with the weight distribution",
        )


def _check(holds: bool, message: str) -> None:
    """An invariant that must survive ``python -O``, unlike ``assert``."""
    if not holds:
        raise AssertionError(message)


def _reduced_echelon(words: Iterable[int]) -> tuple[int, ...]:
    """The canonical basis of the span of the words: reduced echelon form,
    by increasing leading bit.

    Each leading bit is then set in its own row only, so the XOR of the
    rows that x selects grows with x: the x-th word in increasing order.
    """
    rows = sorted(gf2_basis(words))  # distinct leading bits, so this orders by them
    for i, row in enumerate(rows):
        lead = 1 << (row.bit_length() - 1)
        for j in range(i + 1, len(rows)):
            if rows[j] & lead:
                rows[j] ^= row
    return tuple(rows)


def _combine(rows: Sequence[int], x: int) -> int:
    """The XOR of the rows that x selects: bit i of x selects row i."""
    word = 0
    for i, row in enumerate(rows):
        if x >> i & 1:
            word ^= row
    return word


def _sample_messages(m: int, count: int, seed: int) -> list[RingVector]:
    """Deterministic spot-check messages: structured corners plus randoms."""
    full = (1 << m) - 1
    picks = {(0, 0), (full, 0), (0, full), (full, full)}
    rng = random.Random(seed)
    while len(picks) < min(count + 4, 1 << (2 * m)):
        picks.add((rng.randrange(1 << m), rng.randrange(1 << m)))
    return [RingVector(m, s, t) for s, t in sorted(picks)]


def _oracle_pairs(ds: DefiningSet, seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """The coordinates j that the agreement check evaluates one by one,
    each with its pair's m elements as indices s | t << 1 into ELEMENTS:
    every coordinate when n <= 256, in one walk of
    :meth:`DefiningSet.word_pairs`, else 256 drawn by a seeded sample,
    each found by block arithmetic (:func:`_picked_pairs`)."""
    m, n = ds.m, len(ds)
    if n <= ORACLE_COORDINATES:
        pairs: Iterable[tuple[int, tuple[int, int]]] = enumerate(ds.word_pairs())
    else:
        pairs = _picked_pairs(ds, sorted(random.Random(seed).sample(range(n), ORACLE_COORDINATES)))
    return [(j, tuple(t1 >> i & 1 | (t2 >> i & 1) << 1 for i in range(m))) for j, (t1, t2) in pairs]


def _picked_pairs(ds: DefiningSet, picks: list[int]) -> list[tuple[int, tuple[int, int]]]:
    """Each sorted pick j with its pair (t1, t2), without walking the pairs.

    A block D1 x D2 holds the len(D1) * len(D2) pairs after those of the
    blocks before it, D2 minor (:meth:`DefiningSet.word_pairs`), so pair j
    of a block at offset o is (member i1 of D1, member i2 of D2) with
    (i1, i2) = divmod(j - o, len(D2)).  Each block with a pick lists its
    two parts' members once, O(2^m) like :attr:`DefiningSet.mu`.
    """
    out, offset = [], 0
    for d1, d2 in ds.blocks:
        width = len(d2)
        end = offset + len(d1) * width
        inside = [j for j in picks if offset <= j < end]
        if inside:
            t1s, t2s = tuple(d1.words()), tuple(d2.words())
            for j in inside:
                i1, i2 = divmod(j - offset, width)
                out.append((j, (t1s[i1], t2s[i2])))
        offset = end
    return out


def _sum_table(elements: Sequence[RingElement]) -> list:
    """The sums x_1*d_1 + ... + x_m*d_m of the elements x_i, as a table
    walked by the indices of d: for d given as indices into ELEMENTS,
    ``functools.reduce(operator.getitem, d, _sum_table(xs))`` is that sum.

    Built backwards from the last coordinate: level m+1 maps each element
    s to s, and level i maps s to the list of level i+1 at s + x_i*y for
    y in ELEMENTS; the table is level 1 at ZERO.  Each entry is the value
    s + x_i*y that the left fold ``sum(map(mul, xs, ys), ZERO)`` reaches at
    that step, so for any deterministic + and * the walk ends on the
    fold's element.  The table is built when called, through the
    elements' own operators: 4 products and 16 sums per coordinate.
    """
    level: dict[RingElement, object] = {s: s for s in ELEMENTS}
    for x in reversed(elements):
        products = [x * y for y in ELEMENTS]
        level = {s: [level[s + p] for p in products] for s in ELEMENTS}
    return level[ZERO]


def _spot_check(ds: DefiningSet) -> None:
    """Check the rows and the transform of ds on sampled messages.

    The messages are four corners plus 16 seeded random ones for m <= 2
    (so every message), else plus 8.  Each is checked along a chain.  The
    oracle sums each picked coordinate's m products v_i * d_i through the
    elements' own * and + (:func:`_oracle_pairs` picks them): 256 seeded
    picks when n > 256, each by walking the message's sum table
    (:func:`_sum_table`: 4m products, 16m sums) with d's indices; every
    coordinate otherwise, each by adding its products one at a time (4m
    products taken once, n*m sums).  The table would also serve the small
    codes, but it runs the m <= 4 benchmark sweep about 1.5x faster, and
    that sweep's peak RSS grows with its pass count, by 13% then, past its
    10% bound.  The sums, as one list, must be the elements at those
    coordinates of the word-wide :func:`encode` value, read from its two
    words' bytes.  The message's elements are read once per message and
    each picked pair's once per code, from the blocks: the oracle reads no
    coordinate word, row or step table.  That codeword must be b times the
    XOR of the rows alpha selects, and twice that word's weight the
    transform's.  The rows share their words with :func:`encode`, so the
    links that see a fault in those words are the first and the last,
    which walk the blocks apart from them.  The tests keep the ring's
    :func:`~icodes.ring.dot` as the per-coordinate reference, and the full
    4^m message walk, which reads no row, as the reference for every code
    up to m = 4.
    """
    m, n = ds.m, len(ds)
    weights, rows = ds.lee_weights, ds.rows
    seed = m * 0x9E3779B1 ^ n
    oracle = _oracle_pairs(ds, seed)
    digits = [d for _j, d in oracle]
    places = [(j >> 3, j & 7) for j, _d in oracle]
    size = (n + 7) // 8
    for v in _sample_messages(m, 16 if m <= 2 else 8, seed):
        codeword = encode(v, ds)
        if n > ORACLE_COORDINATES:
            table = _sum_table(v.elements())
            sums = [functools.reduce(operator.getitem, d, table) for d in digits]
        else:
            products = [[x * y for y in ELEMENTS] for x in v.elements()]
            sums = [sum(map(operator.getitem, products, d), ZERO) for d in digits]
        s, t = (word.to_bytes(size, "little") for word in (codeword.s_word, codeword.t_word))
        _check(
            sums == [ELEMENTS[s[k] >> b & 1 | (t[k] >> b & 1) << 1] for k, b in places],
            "per-coordinate ring arithmetic disagrees with the word-wide evaluation",
        )
        word = _combine(rows, v.s_word)
        _check(
            codeword == RingVector(n, 0, word),
            "ring-arithmetic evaluation disagrees with the reduced form b*(alpha.t1)",
        )
        _check(
            2 * word.bit_count() == weights[v.s_word],
            "the rows disagree with the Walsh-Hadamard weight n - mu_hat(alpha)",
        )


def enumerate_code(ds: DefiningSet, *, work_budget: int | None = None) -> CodeTable:
    """Enumerate the code of a defining set as the binary code c.

    Every codeword is b*c for c in the row space of :attr:`DefiningSet.rows`,
    so the table is that code, of length n, with Hamming weights; its Lee
    view is the Gray image (c, c) (:func:`gray_image`).  The Lee weight of
    every a-part alpha comes at once, as n - mu_hat(alpha) from one
    Walsh-Hadamard transform of the column multiplicity
    (:attr:`DefiningSet.lee_weights`, cached on the set); each distinct
    weight is checked to be even and halved, and each alpha is credited
    with its 2^m free b-parts; the kernel is the a-parts of weight 0.
    The table streams its codewords only when they are read.  Before
    that, :func:`_spot_check` checks the rows and the weights against the
    elements' own ring arithmetic on sampled messages, at every coordinate
    of a code with n <= 256 and at 256 seeded ones otherwise.
    The work, the 2^m a-parts walked times max(n, 1), is charged against
    work_budget before mu or the rows are read; no other function
    charges it.
    """
    m, n = ds.m, len(ds)
    budget = DEFAULT_WORK_BUDGET if work_budget is None else work_budget
    work = (1 << m) * max(n, 1)
    if work > budget:
        raise BudgetExceededError(work, budget, "code enumeration")

    _spot_check(ds)
    alphas = Counter(ds.lee_weights)
    _check(all(w % 2 == 0 for w in alphas), "every Lee weight must be even: each codeword is b*c")
    per_codeword = alphas[0]  # the a-parts in the kernel
    _check(
        all(count % per_codeword == 0 for count in alphas.values()),
        "codeword preimage counts must be uniform",
    )
    table = CodeTable(
        n, ds.rows, per_codeword << m, {w // 2: count // per_codeword for w, count in alphas.items()}
    )
    _check(
        sum(table.message_profile.values()) == 1 << (2 * m), "message profile must sum to 4^m"
    )
    return table


def gray_image(table: CodeTable) -> CodeTable:
    """The Gray image (c, c) of the ring code b*C, C the table's code.

    The Gray map sends b to 11, so b*c maps to the 2n-bit word c | c << n
    (t-part low, (s+t)-part high).  The map is an isometry, linear on
    these words, so the image is the table of the rows r | r << n, in the
    same order and with the same kernel, weighing each of c's weights
    doubled: every Lee fact is read off it.  Its weight law, checked on
    construction, refuses weights that were not doubled.
    """
    n = table.length
    return CodeTable(
        2 * n,
        tuple(row | row << n for row in table.rows),
        table.kernel_size,
        {2 * w: count for w, count in table.weight_distribution.items()},
    )


@dataclass(frozen=True)
class CodeParams:
    """Binary code parameters [n, k, d]; d is None for the zero code."""

    n: int
    k: int
    d: int | None

    @property
    def degenerate(self) -> bool:
        return self.k == 0 or self.d is None

    def as_list(self) -> list:
        return [self.n, self.k, self.d]

    def __str__(self) -> str:
        d = "-" if self.d is None else str(self.d)
        return f"[{self.n}, {self.k}, {d}]"


def binary_params(table: CodeTable) -> CodeParams:
    """[n, k, d] of a table, k its rank; of the Gray image, the image's."""
    return CodeParams(table.length, len(table.rows), table.min_nonzero_weight())


def weight_enumerator(table: CodeTable) -> str:
    """Homogeneous two-variable weight enumerator as text.

    Terms appear in increasing codeword weight, with X to the length
    minus the weight.  The Lee enumerator of the ring code is that of its
    Gray image, whose length is 2n, the most a Lee weight can be.
    """
    parts = []
    for w in sorted(table.weight_distribution):
        count = table.weight_distribution[w]
        term = "" if count == 1 else str(count)
        if table.length - w > 0:
            term += f"X^{table.length - w}"
        if w > 0:
            term += f"Y^{w}"
        parts.append(term or "1")
    return " + ".join(parts)
