"""The reduction of an ideal at one multidegree to its squarefree twin.

build_bundle is the paper's reduction written out, the reference the
tests hold the formula route's bit-column keying to: restrict to the
generators dividing m, rewrite each generator so every exponent either
attains m's exponent or drops to zero, then read the result as a
squarefree ideal (one bit per attained variable).  The multigraded
Betti numbers of the original ideal at m equal those of the squarefree
image at the support of m.
"""

from collections import namedtuple

from .monomials import MonomialIdeal


TwinBundle = namedtuple("TwinBundle", ("m", "restriction", "twin_images", "twin", "squarefree",
                                       "y_m"))
TwinBundle.__doc__ = """Everything the reduction pipeline derives from one multidegree.

twin_images keeps the pre-minimalization images index-aligned with
restriction.gens; divisibility statements among restricted
generators transfer to these images index by index."""


def _divides(a, b):
    """True iff a divides b, i.e. a_i <= b_i for every variable."""
    return all(x <= y for x, y in zip(a, b))


def _support_mask(m):
    """4-bit mask with bit i set iff x_{i+1} has positive exponent."""
    return sum(1 << i for i, x in enumerate(m) if x)


def build_bundle(ideal, m):
    """Run the whole reduction pipeline at one multidegree.

    The restriction and the twin are the ideals their generators
    generate, so MonomialIdeal keeps the minimal ones.  Every twin
    exponent is m's or 0 by construction, so divisibility among the
    images is inclusion of their masks: the twin's minimal generators
    read as distinct, minimal masks, and squarefree is their sorted
    tuple.
    """
    restriction = MonomialIdeal(g for g in ideal.gens if _divides(g, m))
    images = tuple(tuple(a if b == a else 0 for a, b in zip(m, g)) for g in restriction.gens)
    twin = MonomialIdeal(images)
    squarefree = tuple(sorted(_support_mask(g) for g in twin.gens))
    return TwinBundle(m, restriction, images, twin, squarefree, _support_mask(m))
