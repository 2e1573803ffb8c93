"""Squarefree ideals in up to four variables, generators as 4-bit masks.

Bit i of a mask stands for the variable y_{i+1}; divisibility of
squarefree monomials is mask inclusion.  Bit-strings elsewhere in the
package render masks with y1 leftmost.
"""

from collections import namedtuple

from .errors import InvariantViolation
from .values import Value, set_field


class SquarefreeIdeal(Value):
    """Squarefree monomial ideal with a minimal, ascending-sorted mask tuple."""

    __slots__ = ("gens",)

    def __init__(self, gens):
        if list(gens) != sorted(set(gens)):
            raise InvariantViolation("masks must be ascending and distinct")
        for m in gens:
            if not 0 <= m < 16:
                raise InvariantViolation(f"bad mask {m!r}")
            if any(o != m and o & m == o for o in gens):
                raise InvariantViolation("generating set must be minimal")
        set_field(self, "gens", gens)

    @property
    def support(self):
        """Union of the generator supports; equals lcm of the generators."""
        out = 0
        for m in self.gens:
            out |= m
        return out

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return self.gens == (0,)

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)


def mask_monomial(mask):
    """The 0/1 exponent vector of a mask, for feeding masks back into monomial code."""
    return tuple(mask >> i & 1 for i in range(4))


def mask_string(mask):
    """Bit-string form of a mask, leftmost character = y1."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(4))


def parse_mask(text):
    """Inverse of mask_string."""
    if len(text) != 4 or not set(text) <= {"0", "1"}:
        raise ValueError(f"bad bit-string {text!r}")
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def permute_mask(mask, perm):
    """Relabel variables: new bit i is old bit perm[i]."""
    out = 0
    for i in range(4):
        if mask >> perm[i] & 1:
            out |= 1 << i
    return out


Shape = namedtuple("Shape", ("count", "degrees", "semidominance"))
Shape.__doc__ = """The features of a squarefree ideal that the closed formulas test:
the generator count, the sorted multiset of generator degrees, and the
semidominance, 0 iff the ideal is dominant."""


def dominant_mask_members(gens):
    """Members owning a private bit, i.e. a variable no other member uses."""
    gens = tuple(gens)
    if len(gens) <= 1:
        return gens
    out = []
    for m in gens:
        others = 0
        for o in gens:
            if o != m:
                others |= o
        if m & ~others:
            out.append(m)
    return tuple(out)


def shape_descriptor(ideal):
    """(generator count, degree multiset, semidominance)."""
    gens = ideal.gens
    count = len(gens)
    degrees = tuple(sorted(m.bit_count() for m in gens))
    p = count - len(dominant_mask_members(gens))
    return Shape(count, degrees, p)
