import pytest
from conftest import ideal_of, ideals, monomials, permutations_of_4
from hypothesis import example, given, strategies as st
from reference import (
    divides,
    dominant_generators,
    dominant_members,
    is_dominant,
    lcm,
    lcm_all,
    permute_ideal,
    permute_monomial,
    semidominance,
    strongly_divides,
    support_mask,
)

from betti4.errors import InvariantViolation
from betti4.monomials import NUM_VARS, UNIT, MonomialIdeal, minimalize


def test_lcm_is_componentwise_max():
    assert lcm((1, 0, 2, 5), (0, 3, 2, 1)) == (1, 3, 2, 5)
    assert lcm_all([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 3)]) == (1, 2, 0, 3)
    assert lcm_all([]) == UNIT


def test_divides():
    assert divides((1, 0, 2, 0), (1, 1, 2, 0))
    assert not divides((1, 0, 2, 0), (1, 1, 1, 0))
    assert divides(UNIT, (0, 0, 0, 7))


def test_strong_divisibility_ignores_missing_variables():
    # zero exponents are exempt; present exponents must strictly increase
    assert strongly_divides((1, 0, 2, 0), (2, 0, 3, 0))
    assert not strongly_divides((1, 0, 2, 0), (2, 0, 2, 0))
    assert strongly_divides(UNIT, (1, 0, 0, 0))


@given(monomials(), monomials())
def test_strong_divisibility_implies_divisibility(a, b):
    if strongly_divides(a, b):
        assert divides(a, b)


@given(monomials(), monomials(), monomials())
def test_lcm_properties(a, b, c):
    assert lcm(a, b) == lcm(b, a)
    assert lcm(a, lcm(b, c)) == lcm(lcm(a, b), c)
    assert lcm(a, a) == a
    assert divides(a, lcm(a, b))


def test_support_mask():
    assert support_mask((3, 0, 1, 0)) == 0b0101
    assert support_mask(UNIT) == 0
    assert support_mask((1, 1, 1, 1)) == 0b1111


def test_minimalize_drops_multiples():
    gens = [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 3, 0)]
    assert minimalize(gens) == ((0, 0, 3, 0), (1, 0, 0, 0))


@given(ideals())
def test_minimalize_is_an_antichain(ideal):
    for a in ideal.gens:
        for b in ideal.gens:
            if a != b:
                assert not divides(a, b)


@given(ideals())
def test_minimalize_idempotent(ideal):
    assert minimalize(ideal.gens) == ideal.gens


def _minimalize_pairwise(gens):
    """Reference: keep each distinct generator that no other one divides."""
    pool = sorted(set(gens))
    return tuple(m for m in pool if not any(g != m and divides(g, m) for g in pool))


def _ideal_pairwise(gens):
    """Reference: the message MonomialIdeal(gens) raises, else its generators."""
    for g in gens:
        if len(g) != NUM_VARS or min(g) < 0:
            return f"bad monomial {g!r}"
    return _minimalize_pairwise(gens)


# small exponents, so that duplicates and divisible pairs are common
_SMALL = st.integers(0, 2)
_SMALL_MONOMIALS = st.tuples(_SMALL, _SMALL, _SMALL, _SMALL)


@given(st.lists(_SMALL_MONOMIALS, max_size=10))
def test_minimalize_matches_the_pairwise_scan(gens):
    assert minimalize(gens) == _minimalize_pairwise(gens)


@st.composite
def _candidate_gens(draw):
    """Small monomials with duplicates and divisible pairs, now and then
    with a negative exponent or a 3-tuple among them; as drawn, sorted
    and distinct, or minimalized."""
    gens = draw(st.lists(_SMALL_MONOMIALS, max_size=8))
    if draw(st.booleans()):
        odd = st.tuples(st.integers(-1, 2), _SMALL, _SMALL, _SMALL) | st.tuples(_SMALL, _SMALL, _SMALL)
        gens.insert(draw(st.integers(0, len(gens))), draw(odd))
    four = [g for g in gens if len(g) == NUM_VARS]
    return tuple(draw(st.sampled_from([gens, sorted(set(gens)), list(_minimalize_pairwise(four))])))


@given(_candidate_gens())
# the only divisible pair is not adjacent
@example(((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)))
def test_ideal_keeps_the_minimal_generators(gens):
    try:
        verdict = MonomialIdeal(gens).gens
    except InvariantViolation as exc:
        verdict = str(exc)
    assert verdict == _ideal_pairwise(gens)


@given(st.lists(_SMALL_MONOMIALS, max_size=8), st.randoms(use_true_random=False))
def test_generators_of_one_ideal_build_one_value(gens, rng):
    # shuffled and with a multiple of every generator added, the list
    # generates the same ideal; any iterable of generators is read
    more = gens + [lcm(g, (0, 1, 0, 1)) for g in gens]
    rng.shuffle(more)
    ideal, same = MonomialIdeal(gens), MonomialIdeal(g for g in more)
    assert same == ideal and hash(same) == hash(ideal)


def test_ideal_rejects_unhashable_generators():
    with pytest.raises(TypeError):
        MonomialIdeal(([1, 0, 0, 0],))


def test_zero_and_unit_flags():
    assert MonomialIdeal(()).is_zero
    assert MonomialIdeal((UNIT,)).gens == (UNIT,)
    assert not ideal_of((1, 0, 0, 0)).is_zero


def test_semidominance_examples():
    # a^2 and b^3 carry a strict column maximum, ab does not
    one = ideal_of((2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 0, 0))
    assert set(dominant_members(one.gens)) == {(2, 0, 0, 0), (0, 3, 0, 0)}
    assert semidominance(one) == 1

    # ab, bc, ac: every column maximum is shared
    three = ideal_of((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))
    assert semidominance(three) == 3
    assert not is_dominant(three)

    # a^2b, ab^3c, bc^2, ad^2: strict maxima in a, b, c, d respectively
    zero = ideal_of((2, 1, 0, 0), (1, 3, 1, 0), (0, 1, 2, 0), (1, 0, 0, 2))
    assert is_dominant(zero)
    assert dominant_generators(zero) == zero.gens


def test_zero_ideal_has_no_dominance_verdict():
    zero = MonomialIdeal(())
    for classify in (dominant_generators, semidominance, is_dominant):
        with pytest.raises(ValueError, match="zero ideal"):
            classify(zero)


def test_single_generator_is_dominant():
    assert is_dominant(ideal_of((1, 1, 1, 1)))


@given(ideals())
def test_semidominance_counts_nondominant_generators(ideal):
    p = semidominance(ideal)
    assert 0 <= p <= len(ideal.gens)
    assert (p == 0) == is_dominant(ideal)
    assert len(dominant_members(ideal.gens)) == len(ideal.gens) - p


def test_dominant_ideals_have_at_most_four_generators():
    # each dominant generator needs its own strict-maximum variable
    quads = ideal_of((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    assert is_dominant(quads)
    five = ideal_of((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 1, 1))
    assert not is_dominant(five)
    assert semidominance(five) >= 1


@given(ideals(), permutations_of_4())
def test_permuting_preserves_structure(ideal, perm):
    image = permute_ideal(ideal, perm)
    assert len(image.gens) == len(ideal.gens)
    assert semidominance(image) == semidominance(ideal)


@given(monomials(), monomials(), permutations_of_4())
def test_permuting_commutes_with_lcm(a, b, perm):
    assert permute_monomial(lcm(a, b), perm) == lcm(
        permute_monomial(a, perm), permute_monomial(b, perm)
    )
