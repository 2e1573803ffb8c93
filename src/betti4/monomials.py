"""Monomials in four variables and minimally generated monomial ideals.

A monomial is a plain 4-tuple of non-negative exponents for x1..x4.
Plain tuples keep the subset walks in the rest of the package cheap.
This module holds what a run computes with: lcm, divisibility, support
masks and minimal generating sets.  The package computes the last in
one place: a MonomialIdeal stores minimalize() of whatever generators
it is given.  Dominance, semidominance and strong divisibility are
computed where the formulas read them, on masks in
squarefree.shape_descriptor and on bit columns in
engine.dominant_quadruples; their definition-level versions on exponent
tuples are test references.
"""

from .errors import InvariantViolation
from .values import Value, set_field

NUM_VARS = 4

# the constant monomial x^0
UNIT = (0, 0, 0, 0)


def lcm(a, b):
    """Least common multiple: componentwise max of exponent vectors."""
    return (
        a[0] if a[0] > b[0] else b[0],
        a[1] if a[1] > b[1] else b[1],
        a[2] if a[2] > b[2] else b[2],
        a[3] if a[3] > b[3] else b[3],
    )


def divides(a, b):
    """True iff a divides b, i.e. a_i <= b_i for every variable."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2] and a[3] <= b[3]


def support_mask(m):
    """4-bit mask with bit i set iff x_{i+1} has positive exponent."""
    mask = 0
    for i in range(NUM_VARS):
        if m[i] > 0:
            mask |= 1 << i
    return mask


class MonomialIdeal(Value):
    """The monomial ideal that an iterable of generators generates.

    gens holds its minimal generating set, lex-sorted, so ideals built
    from different generators of one ideal are equal.  The zero ideal
    has no generators; the unit ideal is generated by the constant
    monomial.
    """

    __slots__ = ("gens",)

    def __init__(self, gens):
        gens = tuple(gens)
        for g in gens:
            # exponents are exactly ints (no bool, float or NaN), so min compares numbers
            if (len(g) != NUM_VARS
                    or not type(g[0]) is type(g[1]) is type(g[2]) is type(g[3]) is int
                    or min(g) < 0):
                raise InvariantViolation(f"bad monomial {g!r}")
        # an ideal is a hashable value: an unhashable generator raises
        # TypeError in minimalize's set()
        set_field(self, "gens", minimalize(gens))

    def __hash__(self):
        return hash(self.gens)

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return self.gens == (UNIT,)

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)


def minimalize(gens):
    """Reduce a generating set to the unique minimal one, as a sorted tuple.

    Drops duplicates and any generator divisible by another generator.
    In lex order a proper divisor comes before its multiples, and a
    dropped generator's divisor divides them too, so each monomial is
    checked against the kept ones only.
    """
    kept = []
    for m in sorted(set(gens)):
        m0, m1, m2, m3 = m
        for g0, g1, g2, g3 in kept:
            if g0 <= m0 and g1 <= m1 and g2 <= m2 and g3 <= m3:
                break
        else:
            kept.append(m)
    return tuple(kept)
