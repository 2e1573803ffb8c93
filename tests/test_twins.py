import pytest
from conftest import ideal_of, ideals
from hypothesis import given, strategies as st
from reference import divides, lcm, lcm_all, lcm_lattice, reduced_homology_rank, support_mask

from betti4.homology import koszul_complex
from betti4.monomials import MonomialIdeal
from betti4.squarefree import mask_monomial, support
from betti4.twins import build_bundle


@pytest.fixture
def five_gen_ideal():
    # x1^3, x1^2 x2^2, x3^2 x4^2, x1^2 x2 x3, x2 x3 x4^2
    return ideal_of(
        (3, 0, 0, 0), (2, 2, 0, 0), (0, 0, 2, 2), (2, 1, 1, 0), (0, 1, 1, 2)
    )


def test_restriction_keeps_divisors_only(five_gen_ideal):
    m = (3, 2, 1, 2)  # x1^3 x2^2 x3 x4^2
    restriction = build_bundle(five_gen_ideal, m).restriction
    assert restriction.gens == (
        (0, 1, 1, 2), (2, 1, 1, 0), (2, 2, 0, 0), (3, 0, 0, 0)
    )


def test_twin_keeps_attained_exponents_and_minimalizes(five_gen_ideal):
    m = (3, 2, 1, 2)
    # images: x1^3; x2^2 (x1^2 falls short of 3); x3 (x2 falls short); x3 x4^2
    # and x3 divides x3 x4^2, so the twin has three generators
    assert build_bundle(five_gen_ideal, m).twin.gens == ((0, 0, 1, 0), (0, 2, 0, 0), (3, 0, 0, 0))


def test_squarefree_twin_reads_attained_variables(five_gen_ideal):
    # twin generators x1^3, x2^2, x3 at m = x1^3 x2^2 x3 x4^2
    bundle = build_bundle(five_gen_ideal, (3, 2, 1, 2))
    assert bundle.squarefree == (0b0001, 0b0010, 0b0100)
    assert bundle.y_m == 0b1111


@pytest.mark.parametrize("m, gens, masks", [
    # images x1^2 x2^3, x1^2, x1^2 x2^3 x3: x1^2 divides the other two
    ((2, 3, 1, 4), ((2, 3, 0, 1), (2, 0, 0, 3), (2, 3, 1, 0)), (0b0001,)),
    # images x1^2 x2^3 (twice) and x1^2 x3^2
    ((2, 3, 2, 4), ((2, 3, 1, 0), (2, 3, 0, 1), (2, 0, 2, 3)), (0b0011, 0b0101)),
], ids=["nested-images", "repeated-image"])
def test_squarefree_twin_of_a_twin_has_minimal_masks(m, gens, masks):
    # the twin images repeat or divide each other; once the twin has
    # minimalized them, their masks are distinct and minimal as read
    bundle = build_bundle(ideal_of(*gens), m)
    assert bundle.restriction.gens == tuple(sorted(gens))
    assert bundle.squarefree == masks
    assert bundle.y_m == 0b1111


def test_bundle_matches_worked_example():
    ideal = ideal_of((2, 2, 0, 0), (2, 1, 1, 0), (0, 1, 1, 2), (0, 0, 2, 2))
    # squarefree twins at the six multidegrees with at least two
    # restricted generators, keyed by the expected generator masks
    cases = {
        (2, 2, 1, 0): ((0b0011, 0b0101), 0b0111),
        (2, 2, 1, 2): ((0b0011, 0b0101, 0b1100), 0b1111),
        (2, 2, 2, 2): ((0b0001, 0b1000), 0b1111),
        (2, 1, 1, 2): ((0b0111, 0b1110), 0b1111),
        (2, 1, 2, 2): ((0b0011, 0b1010, 0b1100), 0b1111),
        (0, 1, 2, 2): ((0b1010, 0b1100), 0b1110),
    }
    for m, (masks, y_m) in cases.items():
        bundle = build_bundle(ideal, m)
        assert bundle.squarefree == tuple(sorted(masks)), m
        assert bundle.y_m == y_m, m
    # the full-degree case is the one whose support drops a variable
    assert support(build_bundle(ideal, (2, 2, 2, 2)).squarefree) != 0b1111


@given(ideals(), st.data())
def test_restriction_lcm_recovers_genuine_multidegrees(ideal, data):
    m = data.draw(st.sampled_from(lcm_lattice(ideal)))
    restriction = build_bundle(ideal, m).restriction
    assert lcm_all(restriction.gens) == m
    for g in restriction.gens:
        assert divides(g, m)


@given(ideals(), st.data())
def test_pairwise_lcm_divisibility_transfers(ideal, data):
    """Divisibility among restricted generators survives the twin rewrite."""
    m = data.draw(st.sampled_from(lcm_lattice(ideal)))
    bundle = build_bundle(ideal, m)
    gens = bundle.restriction.gens
    images = [support_mask(t) for t in bundle.twin_images]
    for i in range(len(gens)):
        for j in range(len(gens)):
            for k in range(len(gens)):
                if divides(gens[k], lcm(gens[i], gens[j])):
                    assert images[k] & ~(images[i] | images[j]) == 0


@given(ideals(max_gens=5), st.data())
def test_reduction_preserves_koszul_homology(ideal, data):
    """The whole point: Betti rows at m equal rows of the squarefree twin at y_m."""
    m = data.draw(st.sampled_from(lcm_lattice(ideal)))
    bundle = build_bundle(ideal, m)
    image = MonomialIdeal(mask_monomial(g) for g in bundle.squarefree)
    y = mask_monomial(bundle.y_m)
    for dim in range(-1, 3):
        assert reduced_homology_rank(
            koszul_complex(ideal, m), dim
        ) == reduced_homology_rank(koszul_complex(image, y), dim)
