"""Restriction of an ideal to a multidegree and its squarefree reduction.

For a multidegree m of the Taylor resolution, the pipeline is:
restrict to the generators dividing m, rewrite each generator so every
exponent either attains m's exponent or drops to zero, then read the
result as a squarefree ideal (one bit per attained variable).  The
multigraded Betti numbers of the original ideal at m equal those of the
squarefree image at the support of m.
"""

from .errors import IllFormedTwin, RestrictionViolation
from .monomials import MonomialIdeal, divides, minimalize, support_mask
from .squarefree import SquarefreeIdeal
from .values import Value, set_field


def restrict(ideal, m):
    """Subideal generated by the generators dividing m.

    A subsequence of a lex-sorted minimal generating set is still
    lex-sorted and minimal, so the divisors go to the constructor as
    they are; the result can be the zero ideal when no generator
    divides m.
    """
    return MonomialIdeal(tuple(g for g in ideal.gens if divides(g, m)))


def _twin_images(gens, m):
    """Generator-by-generator twin images, index-aligned with gens."""
    images = []
    for g in gens:
        if not divides(g, m):
            raise RestrictionViolation(f"generator {g} does not divide {m}")
        images.append(tuple(a if b == a else 0 for a, b in zip(m, g)))
    return tuple(images)


def twin(restriction, m):
    """Keep each exponent at m's full value iff the generator attains it.

    The images may stop being a minimal generating set even when the
    input was minimal, so the result is minimalized.
    """
    return MonomialIdeal(minimalize(_twin_images(restriction.gens, m)))


def squarefree_twin(twin_ideal, m):
    """Bitmask image of a twin ideal together with the support mask of m.

    Every nonzero exponent must agree with m's exponent for its
    variable; otherwise the generators have no consistent squarefree
    reading and the input was not a genuine twin.  Once it has one,
    divisibility among the generators is inclusion of their masks, so
    a minimal twin ideal reads as distinct, minimal masks.
    """
    for g in twin_ideal.gens:
        for j in range(4):
            if g[j] and g[j] != m[j]:
                raise IllFormedTwin(
                    f"generator {g} uses x{j + 1}^{g[j]} but the multidegree fixes x{j + 1}^{m[j]}"
                )
    masks = tuple(sorted(support_mask(g) for g in twin_ideal.gens))
    return SquarefreeIdeal(masks), support_mask(m)


class TwinBundle(Value):
    """Everything the reduction pipeline derives from one multidegree.

    twin_images keeps the pre-minimalization images index-aligned with
    restriction.gens; divisibility statements among restricted
    generators transfer to these images index by index.
    """

    __slots__ = ("m", "restriction", "twin_images", "twin", "squarefree", "y_m")

    def __init__(self, m, restriction, twin_images, twin, squarefree, y_m):
        set_field(self, "m", m)
        set_field(self, "restriction", restriction)
        set_field(self, "twin_images", twin_images)
        set_field(self, "twin", twin)
        set_field(self, "squarefree", squarefree)
        set_field(self, "y_m", y_m)


def build_bundle(ideal, m):
    """Run the whole reduction pipeline at one multidegree."""
    restriction = restrict(ideal, m)
    images = _twin_images(restriction.gens, m)
    twin_ideal = MonomialIdeal(minimalize(images))
    sq, y_m = squarefree_twin(twin_ideal, m)
    return TwinBundle(m, restriction, images, twin_ideal, sq, y_m)
