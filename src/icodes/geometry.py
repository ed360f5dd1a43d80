"""Bit-vector machinery for F_2^m.

Covers supports and the cover (support containment) partial order,
simplicial complexes given by maximal faces, their multivariate
generating functions computed by inclusion-exclusion, the indicator of a
support avoiding an index set, signed character sums over point sets, and
the fast Walsh-Hadamard transform that takes all 2^m of those sums at
once from a multiplicity function.

Conventions fixed here and used everywhere else: coordinate i of [m] is
stored at bit position i-1, F_2^m is enumerated in increasing integer
order of the bit word, and the textual form of a vector lists coordinate
1 leftmost.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError

#: Largest ambient dimension accepted for F_2^m machinery.  Exhaustive
#: message enumeration in the code layer caps practical m far lower; this
#: bound just keeps every word in a predictable small-int range.
MAX_DIMENSION = 24


def _indices_mask(m: int, indices: Iterable[int]) -> int:
    """Bit mask for a subset of [m]; rejects indices outside 1..m."""
    mask = 0
    for i in indices:
        if not 1 <= int(i) <= m:
            raise IndexError(f"coordinate {i} outside [{m}]")
        mask |= 1 << (int(i) - 1)
    return mask


@dataclass(frozen=True, slots=True)
class BitVector:
    """A vector in F_2^m with coordinate i at bit position i-1."""

    m: int
    bits: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {self.m}")
        if not 0 <= self.bits < 1 << self.m:
            raise ValueError(f"word {self.bits:#x} does not fit in {self.m} bits")

    @classmethod
    def from_support(cls, m: int, indices: Iterable[int]) -> BitVector:
        return cls(m, _indices_mask(m, indices))

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"expected a nonempty 0/1 string, got {text!r}")
        return cls(len(text), int(text[::-1], 2))

    def support(self) -> tuple[int, ...]:
        """Sorted 1-based coordinates where the vector is 1."""
        return tuple(i + 1 for i in range(self.m) if self.bits >> i & 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def covers(self, other: BitVector) -> bool:
        """True iff other's support is contained in this vector's support."""
        self._check_dimension(other)
        return other.bits & ~self.bits == 0

    def dot(self, other: BitVector) -> int:
        """Inner product over F_2 (parity of the coordinatewise AND)."""
        self._check_dimension(other)
        return (self.bits & other.bits).bit_count() & 1

    def __str__(self) -> str:
        return bit_string(self.bits, self.m)

    def _check_dimension(self, other: BitVector) -> None:
        if self.m != other.m:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.m} vs {other.m}"
            )


def bit_string(word: int, length: int) -> str:
    """The 0/1 text of a length-bit word, coordinate 1 (bit 0) leftmost."""
    return format(word, f"0{length}b")[::-1]


def all_vectors(m: int) -> Iterator[BitVector]:
    """All of F_2^m in increasing integer order."""
    for bits in range(1 << m):
        yield BitVector(m, bits)


def _subset_masks(mask: int) -> Iterator[int]:
    """All submasks of mask (order unspecified)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class SimplicialComplex:
    """A down-closed subset of F_2^m, represented by its maximal faces.

    The face family must already be reduced: pairwise incomparable under
    the cover order.  Use :func:`complex_from_maximal_faces` to reduce an
    arbitrary family, or :func:`complex_from_generator` for the complex
    of all vectors supported inside one index set.
    """

    m: int
    maximal_faces: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if not self.maximal_faces:
            raise ValueError("a simplicial complex needs at least one maximal face")
        for face in self.maximal_faces:
            if face.m != self.m:
                raise DimensionMismatchError(
                    f"face dimension {face.m} does not match ambient {self.m}"
                )
        for i, face in enumerate(self.maximal_faces):
            for j, other in enumerate(self.maximal_faces):
                if i != j and other.covers(face):
                    raise ValueError(
                        f"face family not reduced: {face} is covered by {other}"
                    )
        object.__setattr__(
            self,
            "maximal_faces",
            tuple(sorted(self.maximal_faces, key=lambda f: f.bits)),
        )

    @cached_property
    def _member_bits(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for face in self.maximal_faces:
            seen.update(_subset_masks(face.bits))
        return tuple(sorted(seen))

    def words(self) -> tuple[int, ...]:
        """The members' bit words, in increasing order."""
        return self._member_bits

    def members(self) -> tuple[BitVector, ...]:
        """All members, in increasing integer order of the bit word."""
        return tuple(BitVector(self.m, bits) for bits in self._member_bits)

    def __len__(self) -> int:
        return len(self._member_bits)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, BitVector):
            return False
        if item.m != self.m:
            raise DimensionMismatchError(
                f"dimension mismatch: {item.m} vs {self.m}"
            )
        return any(face.covers(item) for face in self.maximal_faces)

    def complement(self) -> ComplexComplement:
        return ComplexComplement(self)


@dataclass(frozen=True)
class ComplexComplement:
    """The set complement of a simplicial complex in F_2^m.

    Kept implicit: membership is a predicate and enumeration streams
    F_2^m, so the complement is never materialized.
    """

    base: SimplicialComplex

    @property
    def m(self) -> int:
        return self.base.m

    def __len__(self) -> int:
        return (1 << self.base.m) - len(self.base)

    def words(self) -> Iterator[int]:
        """The members' bit words, in increasing order, streamed."""
        inside = set(self.base._member_bits)
        return (bits for bits in range(1 << self.base.m) if bits not in inside)

    def __iter__(self) -> Iterator[BitVector]:
        return (BitVector(self.base.m, bits) for bits in self.words())

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, BitVector):
            return False
        return item not in self.base


def complex_from_generator(m: int, indices: Iterable[int]) -> SimplicialComplex:
    """The complex of all vectors whose support lies inside the index set."""
    return SimplicialComplex(m, (BitVector(m, _indices_mask(m, indices)),))


def complex_from_maximal_faces(
    m: int, faces: Sequence[BitVector]
) -> SimplicialComplex:
    """Reduce a nonempty face family and build the complex it generates.

    Faces covered by another face are discarded (they add nothing to the
    down-closure); duplicates collapse.
    """
    if not faces:
        raise ValueError("face family must be nonempty")
    for face in faces:
        if face.m != m:
            raise DimensionMismatchError(
                f"face dimension {face.m} does not match ambient {m}"
            )
    unique = {face.bits: face for face in faces}
    reduced = [
        face
        for bits, face in sorted(unique.items())
        if not any(other != bits and bits & ~other == 0 for other in unique)
    ]
    return SimplicialComplex(m, tuple(reduced))


@dataclass(frozen=True)
class GeneratingPolynomial:
    """Sparse multilinear polynomial in y_1..y_m with integer coefficients.

    Monomials are bit masks over the variable indices.  For a point set P
    this encodes the sum over members of prod_i y_i^{v_i}; evaluating at
    all ones therefore recovers |P|.
    """

    m: int
    coeffs: dict[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", {mono: c for mono, c in self.coeffs.items() if c != 0}
        )

    def evaluate(self, values: Sequence[float]) -> float:
        if len(values) != self.m:
            raise DimensionMismatchError(
                f"expected {self.m} values, got {len(values)}"
            )
        total = 0
        for mono, coeff in self.coeffs.items():
            term = coeff
            for i in range(self.m):
                if mono >> i & 1:
                    term *= values[i]
            total += term
        return total

    def evaluate_all_ones(self) -> int:
        return sum(self.coeffs.values())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, key=lambda x: (x.bit_count(), x)):
            coeff = self.coeffs[mono]
            names = "*".join(f"y{i + 1}" for i in range(self.m) if mono >> i & 1)
            if not names:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(names)
            else:
                parts.append(f"{coeff}*{names}")
        return " + ".join(parts)


def generating_function(complex_: SimplicialComplex) -> GeneratingPolynomial:
    """Generating polynomial of a complex, by inclusion-exclusion.

    Sums (-1)^(|S|+1) * prod_{i in common support of S} (1 + y_i) over the
    nonempty subfamilies S of the maximal faces; each product is expanded
    into 0/1 monomials.  Must agree with summing monomials over the
    enumerated members directly.
    """
    faces = complex_.maximal_faces
    coeffs: dict[int, int] = {}
    for picks in range(1, 1 << len(faces)):
        common = (1 << complex_.m) - 1
        for i, face in enumerate(faces):
            if picks >> i & 1:
                common &= face.bits
        sign = -1 if picks.bit_count() % 2 == 0 else 1
        for mono in _subset_masks(common):
            coeffs[mono] = coeffs.get(mono, 0) + sign
    return GeneratingPolynomial(complex_.m, coeffs)


def support_disjoint(alpha: BitVector, indices: Iterable[int]) -> int:
    """1 if alpha's support avoids every listed coordinate, else 0.

    Equals the product over the index set of (1 - alpha_i).
    """
    return 1 if alpha.bits & _indices_mask(alpha.m, indices) == 0 else 0


def character_sum(alpha: BitVector, points: Iterable[BitVector]) -> int:
    """Signed sum of (-1)^(alpha . t) over the given points, in Z."""
    total = 0
    for t in points:
        total += -1 if alpha.dot(t) else 1
    return total


def walsh_hadamard(values: list[int]) -> None:
    """Replace a function on F_2^m by its Walsh-Hadamard transform, in place.

    values[x] is the function at the vector with bit word x, and becomes
    the sum over y of values[y] * (-1)^(x . y): the character sum at x of
    the point multiset that values counts.  m butterfly passes of 2^(m-1)
    integer additions each.  A pass pairs i with i + half in blocks of
    2*half and adds whole list slices: while half is below the number of
    blocks, the slices are strided, one pair of them per offset below
    half; after that, each block's two contiguous halves.
    """
    size = len(values)
    if size & (size - 1) or not size:
        raise ValueError(f"length must be a power of two, got {size}")
    half = 1
    while half < size:
        step = 2 * half
        if half < size // step:
            for low in range(half):
                x, y = values[low::step], values[low + half :: step]
                values[low::step] = map(operator.add, x, y)
                values[low + half :: step] = map(operator.sub, x, y)
        else:
            for low in range(0, size, step):
                mid, high = low + half, low + step
                x, y = values[low:mid], values[mid:high]
                values[low:mid] = map(operator.add, x, y)
                values[mid:high] = map(operator.sub, x, y)
        half = step


def gf2_basis(words: Iterable[int]) -> tuple[int, ...]:
    """A basis (as bit words) of the GF(2) span of the given words.

    Standard leading-bit elimination; the result has pairwise distinct
    leading bits, listed with decreasing leading bit.
    """
    pivots: dict[int, int] = {}
    for word in words:
        w = word
        while w:
            lead = w.bit_length() - 1
            if lead in pivots:
                w ^= pivots[lead]
            else:
                pivots[lead] = w
                break
    return tuple(pivots[k] for k in sorted(pivots, reverse=True))
