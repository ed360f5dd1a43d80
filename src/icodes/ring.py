"""Exact arithmetic in the four-element commutative non-unital ring I.

The ring is generated by two elements a, b subject to 2a = 0, 2b = 0,
a^2 = b and ab = 0; its underlying set is {0, a, b, c} with c = a + b.
Every element factors uniquely as a*s + b*t with bits s, t, which is the
canonical encoding used here: addition is coordinatewise XOR of (s, t)
pairs and multiplication collapses to b*(s*s').  The Gray map sends
a*s + b*t to the bit pair (t, s+t), and the Lee weight of an element is
the Hamming weight of its Gray image.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

SYMBOLS = ("0", "a", "b", "c")


@dataclass(frozen=True, slots=True)
class RingElement:
    """The element a*s + b*t of I, carried as the bit pair (s, t)."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s not in (0, 1) or self.t not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got ({self.s}, {self.t})")

    def __add__(self, other: RingElement) -> RingElement:
        return ELEMENTS[(self.s ^ other.s) | (self.t ^ other.t) << 1]

    def __mul__(self, other: RingElement) -> RingElement:
        # a^2 = b, ab = b^2 = 0, so (as+bt)(as'+bt') = b*(s*s').
        return ELEMENTS[(self.s & other.s) << 1]

    def gray(self) -> tuple[int, int]:
        """Gray image (t, s+t) of a*s + b*t."""
        return (self.t, self.s ^ self.t)

    def lee_weight(self) -> int:
        """Hamming weight of the Gray image: 0, a, b, c weigh 0, 1, 2, 1."""
        first, second = self.gray()
        return first + second

    @property
    def symbol(self) -> str:
        return SYMBOLS[self.s | self.t << 1]

    @classmethod
    def from_symbol(cls, text: str) -> RingElement:
        try:
            return ELEMENTS[SYMBOLS.index(text)]
        except ValueError:
            raise ValueError(f"unknown ring element {text!r}") from None


ZERO = RingElement(0, 0)
A = RingElement(1, 0)
B = RingElement(0, 1)
C = RingElement(1, 1)

#: All elements, indexed by s | t<<1; doubles as the canonical 0, a, b, c order.
ELEMENTS: tuple[RingElement, ...] = (ZERO, A, B, C)


def addition_table() -> list[list[RingElement]]:
    """4x4 table of x + y in the canonical element order."""
    return [[x + y for y in ELEMENTS] for x in ELEMENTS]


def multiplication_table() -> list[list[RingElement]]:
    """4x4 table of x * y in the canonical element order."""
    return [[x * y for y in ELEMENTS] for x in ELEMENTS]


def dot(xs: Iterable[RingElement], ys: Iterable[RingElement]) -> RingElement:
    """Inner product: the sum of the products x_i * y_i, one coordinate at
    a time through the elements' own multiplication and addition.  The
    tests' per-coordinate reference for the word-wide encoder and the
    enumerator's spot check."""
    return sum(map(operator.mul, xs, ys), ZERO)
