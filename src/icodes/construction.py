"""Defining sets over I^m and the codes they generate.

A defining set is a union of blocks D1 x D2, each pair (t1, t2) of a
block standing for the element a*t1 + b*t2 of I^m, and it is held as
those blocks, never as its n pairs.  One table (:func:`_blocks`) states
each variant's blocks.  T1..T4 have one, whose parts are Delta_M or
Delta_N (the vectors supported inside M or N) or their complements in
F_2^m; T5, the complement in I^m of the T1 set, has two disjoint ones;
GENERIC has one, of its given lists.  Each part lists its members once,
in increasing order, and has a closed-form size, so lengths and
empty-set errors build no members, and :func:`enumerate_code`, the one
place that charges the work budget, charges it before anything is read;
the blocks and mu take O(2^m) memory whatever n is, and the rows, cached
once read, add m*n bits.  The pairs are ordered block by block, t1
major, and are listed only when :meth:`DefiningSet.word_pairs` walks
them (for :func:`encode`).  The code is the image of the evaluation
map v -> (v . d)_{d in D} over all messages v in I^m; because b kills
every product, a codeword depends only on the a-part alpha of the
message: the code is b times the row space of one m x n
binary generator matrix (:attr:`DefiningSet.rows`), whose columns are
the t1 parts.  So the code is fixed by the column multiplicity
mu(x) = #{d : t1(d) = x} (:attr:`DefiningSet.mu`), and the Lee weight of
alpha's codeword is the character sum n - mu_hat(alpha):
:func:`enumerate_code` takes every weight from one Walsh-Hadamard
transform of mu.  Both mu and the rows are read off the blocks.  A
:class:`CodeTable` is the code's generator rows, reduced once on
construction to the canonical reduced echelon basis, with its weight
distribution and kernel size; its message profile is derived from those,
and its codewords are built from the basis, in increasing order, only
when something reads :attr:`CodeTable.codewords`.  :func:`encode` is
plain ring arithmetic and reads no row; the rows meet it in one place,
the sampled agreement check of the fast walk, which also checks each
sampled weight against the transform.  The 4^m walk stays an oracle independent of the rows: it
passes its own distinct ring-evaluated words as rows, and checks the
message profile it counted against the derived one.  Each law is checked
with explicit raises that survive ``python -O``: the laws of the weight
data and the rank when a table is constructed, so no table exists unless
they hold, and the laws that read codewords whenever codewords are built.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
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
from .ring import ELEMENTS, SYMBOLS, ZERO, RingElement

#: Default cap on elementary parity operations for one code enumeration.
DEFAULT_WORK_BUDGET = 1 << 32

#: Hex digit s_i + 2*t_i (a vector's two 0/1 texts read as hex) to its symbol.
_SYMBOL_OF_DIGIT = str.maketrans("0123", "".join(SYMBOLS))
#: A symbol to its s bit, and to its t bit, as 0/1 text.
_S_BIT_OF_SYMBOL = str.maketrans("".join(SYMBOLS), "0101")
_T_BIT_OF_SYMBOL = str.maketrans("".join(SYMBOLS), "0011")


class Variant(str, Enum):
    """How the two halves of the defining set are chosen."""

    T1 = "T1"  # a*complex(M)            + b*complex(N)
    T2 = "T2"  # a*complement(M)         + b*complex(N)
    T3 = "T3"  # a*complex(M)            + b*complement(N)
    T4 = "T4"  # a*complement(M)         + b*complement(N)
    T5 = "T5"  # complement in I^m of the T1 set
    GENERIC = "GENERIC"  # caller-supplied D1, D2


class Alphabet(str, Enum):
    RING = "ring-I"
    BINARY = "binary"


@dataclass(frozen=True, slots=True)
class RingVector:
    """A vector a*alpha + b*beta in I^m, stored as two bit words.

    Also used for codewords, whose length may exceed the ambient-dimension
    cap of :class:`BitVector`; the words are plain ints for that reason.
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
    def from_elements(cls, elements: Sequence[RingElement]) -> RingVector:
        # one text of symbols, last coordinate (the highest bit) first
        text = "".join([x.symbol for x in reversed(elements)]) or "0"
        return cls(
            len(elements),
            int(text.translate(_S_BIT_OF_SYMBOL), 2),
            int(text.translate(_T_BIT_OF_SYMBOL), 2),
        )

    @classmethod
    def from_string(cls, text: str) -> RingVector:
        return cls.from_elements([RingElement.from_symbol(ch) for ch in text])

    def element(self, i: int) -> RingElement:
        """Coordinate i (1-based)."""
        if not 1 <= i <= self.m:
            raise IndexError(f"coordinate {i} outside [{self.m}]")
        return ELEMENTS[(self.s_word >> (i - 1) & 1) | (self.t_word >> (i - 1) & 1) << 1]

    def elements(self) -> tuple[RingElement, ...]:
        return tuple(self.element(i) for i in range(1, self.m + 1))

    def lee_weight(self) -> int:
        return self.t_word.bit_count() + (self.s_word ^ self.t_word).bit_count()

    def gray_bits(self) -> int:
        """Gray image as a 2m-bit word: t-part low, (s+t)-part high."""
        return self.t_word | (self.s_word ^ self.t_word) << self.m

    def dot(self, other: RingVector) -> RingElement:
        """Ring inner product, evaluated coordinate by coordinate in I."""
        if self.m != other.m:
            raise DimensionMismatchError(f"dimension mismatch: {self.m} vs {other.m}")
        acc = ZERO
        for i in range(1, self.m + 1):
            acc = acc + self.element(i) * other.element(i)
        return acc

    def scaled_by(self, r: RingElement) -> RingVector:
        """Coordinatewise ring action r*x (module structure)."""
        return RingVector.from_elements([r * x for x in self.elements()])

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
    its members once, in increasing order of the bit word (a GENERIC
    part keeps its repeated members together, as runs, in the order they
    were given), so the set holds nothing of size n until its rows are
    read: its length is the closed form, and mu and the rows are read
    off the blocks.  The pairs are listed block by block, t1 major and
    t2 minor, only when :meth:`word_pairs` walks them.
    """

    m: int
    blocks: tuple[tuple[_Part | _Listed, _Part | _Listed], ...]

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The m rows of the binary generator matrix G, as n-bit words.

        Bit j of row i is coordinate i+1 of t1 in pair j.  Pairs are t1
        major, so in block D1 x D2 each member of D1 fills len(D2)
        consecutive bits with its own bit.  Since ab = b^2 = 0, the
        codeword of a message with a-part alpha is b times the XOR of the
        rows that alpha selects.
        """
        spans = [(tuple(d1.words()), len(d2)) for d1, d2 in self.blocks]
        rows = []
        for i in range(self.m):
            # the text of row i, from its highest bit (the last pair) down
            chunks: list[str] = []
            for words, width in reversed(spans):
                one, zero = "1" * width, "0" * width
                chunks += [one if x >> i & 1 else zero for x in reversed(words)]
            rows.append(int("".join(chunks) or "0", 2))
        return tuple(rows)

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

    @property
    def pairs(self) -> Iterator[tuple[BitVector, BitVector]]:
        """The pairs in order, as bit vectors: :meth:`word_pairs` wrapped."""
        m = self.m
        return ((BitVector(m, s), BitVector(m, t)) for s, t in self.word_pairs())

    def __len__(self) -> int:
        return sum(len(d1) * len(d2) for d1, d2 in self.blocks)

    def word_pairs(self) -> Iterator[tuple[int, int]]:
        """The bit words (t1, t2) of the pairs, block by block, t1 major
        and t2 minor; equal members pair in the order given, as a stable
        sort puts them."""
        for d1, d2 in self.blocks:
            t2_words = tuple(d2.words())
            for t1, run in itertools.groupby(d1.words()):
                # a t1 given k times pairs k times in a row with each t2
                copies = sum(1 for _ in run)
                t2_run = t2_words if copies == 1 else [y for y in t2_words for _ in range(copies)]
                yield from itertools.product((t1,), t2_run)


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
    """A GENERIC part: the given members, sorted stably by bit word, so
    repeated members sit together in the order they were given."""

    members: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members, key=attrgetter("bits"))))

    def __len__(self) -> int:
        return len(self.members)

    def words(self) -> Iterator[int]:
        return (v.bits for v in self.members)


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
        return ((_Listed(spec.d1), _Listed(spec.d2)),)
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

    Its pairs are listed block by block, each block lexicographically, t1
    major and t2 minor, with each component in increasing integer order
    (stably, so GENERIC duplicates keep their order); T5 lists its two
    disjoint blocks in turn (a-part outside the M-complex with free
    b-part, then a-part inside with b-part outside the N-complex).
    Building it lists no member and no pair is stored: the set takes
    O(2^m) memory once mu is read, and m*n bits more once rows is read.
    """
    ds = DefiningSet(spec.m, _blocks(spec))
    if not len(ds):
        raise EmptyDefiningSetError(_EMPTY_REASONS[spec.variant])
    return ds


def encode(v: RingVector, ds: DefiningSet) -> RingVector:
    """Evaluate the codeword (v . d)_{d in D} with plain ring arithmetic,
    one coordinate per pair, walking the blocks in order.

    Reads no generator row, so the 4^m walk built on it is independent
    of :attr:`DefiningSet.rows`.
    """
    if v.m != ds.m:
        raise DimensionMismatchError(f"message length {v.m} != ambient {ds.m}")
    return RingVector.from_elements([v.dot(RingVector(ds.m, s, t)) for s, t in ds.word_pairs()])


@dataclass(frozen=True)
class CodeTable:
    """An enumerated code: its generator rows with its weight bookkeeping.

    rows generate the code over GF(2) (for a ring table, the t-parts of
    the codewords, whose a-parts are all zero) and may be dependent;
    construction replaces them by the canonical basis of their span
    (:func:`_reduced_echelon`), so tables of one code compare equal
    whatever rows they were given, and the x-th codeword in increasing
    order is the XOR of the rows that x selects.  weight_distribution
    counts codewords per weight.  The laws of a table are checked on
    construction, so no table exists unless they hold: among them, the
    words number 2^rank and weigh in all what the coordinates the rows
    reach fix.  The laws that read codewords are checked whenever
    :attr:`codewords` builds them.
    """

    alphabet: Alphabet
    length: int
    rows: tuple[int, ...]
    kernel_size: int
    weight_distribution: dict[int, int]

    def __post_init__(self) -> None:
        rows = _reduced_echelon(self.rows)
        object.__setattr__(self, "rows", rows)
        wd = self.weight_distribution
        _check(wd.get(0) == 1, "zero codeword must be the unique weight-0 word")
        cap = 2 * self.length if self.alphabet is Alphabet.RING else self.length
        _check(all(0 <= w <= cap for w in wd), "weight outside the possible range")
        _check(not rows or rows[-1].bit_length() <= self.length, "row wider than the length")
        _check(1 << len(rows) == len(self), "code size must be 2^rank of the rows")
        # each coordinate some row reaches is 1 in half the codewords, and a
        # ring word's Lee weight is twice that of its t-part
        support = 0
        for row in rows:
            support |= row
        per_bit = 2 if self.alphabet is Alphabet.RING else 1
        _check(
            2 * sum(w * count for w, count in wd.items())
            == per_bit * support.bit_count() << len(rows),
            "weights must total half the code size per reached coordinate",
        )

    def __len__(self) -> int:
        return sum(self.weight_distribution.values())

    def __repr__(self) -> str:
        return (
            f"CodeTable(alphabet={self.alphabet}, length={self.length}, size={len(self)}, "
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
    def codewords(self) -> tuple:
        """Every codeword, in increasing order, built from the rows on each
        read: the x-th is the XOR of the rows that x selects.  The words
        are checked to increase from zero (so they are distinct) and to
        be weighed as the distribution says."""
        words = [0]
        for row in self.rows:
            words += [w ^ row for w in words]
        _check(
            all(u < v for u, v in itertools.pairwise(words)),
            "codewords must increase from the zero word in index order",
        )
        ring = self.alphabet is Alphabet.RING
        if ring:
            words = [RingVector(self.length, 0, w) for w in words]
        words = tuple(words)
        weight = RingVector.lee_weight if ring else int.bit_count
        _check(
            Counter(map(weight, words)) == Counter(self.weight_distribution),
            "codeword weights disagree with the weight distribution",
        )
        return words


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


def enumerate_code(
    ds: DefiningSet,
    *,
    work_budget: int | None = None,
    collapse_beta: bool = True,
    agreement_samples: int | None = None,
) -> CodeTable:
    """Enumerate the code of a defining set with its Lee weight data.

    The default path takes the Lee weight of every a-part alpha at once,
    as n - mu_hat(alpha) from one Walsh-Hadamard transform of the column
    multiplicity, and credits each alpha with its 2^m free b-parts; the
    kernel is the a-parts of weight 0.  The table is the generator rows,
    so it builds its codewords only when they are read.  Before that,
    sampled messages (all of them for m <= 2) are spot-checked: raw ring
    evaluation (:func:`encode`) must match b times the XOR of the rows
    alpha selects, and twice that word's weight the transform.  That
    check is the one place where the rows meet ring arithmetic.
    collapse_beta=False forces the plain 4^m message walk with full ring
    arithmetic everywhere and reads no row: its distinct words are the
    table's rows, so a word set that is not a subspace fails the table's
    rank law, and the message profile it counts must be the derived one.
    The work, the a-parts walked (2^m, or 4^m messages for the plain
    walk) times max(n, 1), is charged against work_budget before mu or
    the rows are read; no other function charges it.
    """
    m, n = ds.m, len(ds)
    budget = DEFAULT_WORK_BUDGET if work_budget is None else work_budget
    messages = 1 << (2 * m)
    work = ((1 << m) if collapse_beta else messages) * max(n, 1)
    if work > budget:
        raise BudgetExceededError(work, budget, "code enumeration")

    if not collapse_beta:
        codeword_hits: Counter[int] = Counter()
        profile: Counter[int] = Counter()
        for s_word in range(1 << m):
            for t_word in range(1 << m):
                cw = encode(RingVector(m, s_word, t_word), ds)
                codeword_hits[cw.t_word] += 1
                profile[cw.lee_weight()] += 1
        per_codeword = set(codeword_hits.values())
        _check(len(per_codeword) == 1, "codeword preimage counts must be uniform")
        table = CodeTable(
            Alphabet.RING,
            n,
            tuple(codeword_hits),
            per_codeword.pop(),
            dict(Counter(2 * word.bit_count() for word in codeword_hits)),
        )
        _check(
            dict(profile) == table.message_profile,
            "kernel law fails: the walked message profile is not the distribution "
            "times the kernel size",
        )
    else:
        if agreement_samples is None:
            agreement_samples = 16 if m <= 2 else 8
        weights = list(ds.mu)
        walsh_hadamard(weights)
        weights = [n - total for total in weights]
        rows = ds.rows
        if agreement_samples > 0:
            for v in _sample_messages(m, agreement_samples, seed=m * 0x9E3779B1 ^ n):
                word = _combine(rows, v.s_word)
                _check(
                    encode(v, ds) == RingVector(n, 0, word),
                    "ring-arithmetic evaluation disagrees with the reduced form b*(alpha.t1)",
                )
                _check(
                    2 * word.bit_count() == weights[v.s_word],
                    "the rows disagree with the Walsh-Hadamard weight n - mu_hat(alpha)",
                )
        alphas = Counter(weights)
        per_codeword = alphas[0]  # the a-parts in the kernel
        _check(
            all(count % per_codeword == 0 for count in alphas.values()),
            "codeword preimage counts must be uniform",
        )
        table = CodeTable(
            Alphabet.RING,
            n,
            rows,
            per_codeword << m,
            {w: count // per_codeword for w, count in alphas.items()},
        )
    _check(sum(table.message_profile.values()) == messages, "message profile must sum to 4^m")
    return table


def gray_image(table: CodeTable) -> CodeTable:
    """Binary image of a ring code under the componentwise Gray map.

    Each length-n ring word maps to 2n bits in block layout (t-part, then
    (s+t)-part).  The map is an isometry, so the image keeps the
    distribution; every codeword here has a zero a-part, on which the map
    is linear, so the images r | r << n of the rows generate the image,
    in the same index order.  Each row's image is checked against its Lee
    weight (a failure signals a bug and aborts); the image's codewords
    meet the weight law whenever they are built.
    """
    if table.alphabet is not Alphabet.RING:
        raise ValueError("gray_image expects a ring-alphabet code")
    n = table.length
    rows = []
    for row in table.rows:
        word = RingVector(n, 0, row)
        bits = word.gray_bits()
        if bits.bit_count() != word.lee_weight():
            raise RuntimeError("Gray image weight differs from Lee weight")
        rows.append(bits)
    return CodeTable(
        Alphabet.BINARY, 2 * n, tuple(rows), table.kernel_size, dict(table.weight_distribution)
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
    """[n, k, d] of a binary table, k its rank."""
    if table.alphabet is not Alphabet.BINARY:
        raise ValueError("binary_params expects a binary-alphabet code")
    return CodeParams(table.length, len(table.rows), table.min_nonzero_weight())


def weight_enumerator(table: CodeTable) -> str:
    """Homogeneous two-variable weight enumerator as text.

    Terms appear in increasing codeword weight; the X-exponent base is
    twice the length for ring codes (Lee weights run up to 2n) and the
    length itself for binary codes.
    """
    top = 2 * table.length if table.alphabet is Alphabet.RING else table.length
    parts = []
    for w in sorted(table.weight_distribution):
        count = table.weight_distribution[w]
        term = "" if count == 1 else str(count)
        if top - w > 0:
            term += f"X^{top - w}"
        if w > 0:
            term += f"Y^{w}"
        parts.append(term or "1")
    return " + ".join(parts)
