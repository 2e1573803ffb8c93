import pytest
from conftest import ideal_of, ideals
from hypothesis import given

from betti4.errors import GeneratorCapExceeded
from betti4.monomials import UNIT, MonomialIdeal, lcm_all
from betti4.multidegrees import enumerate_multidegrees


def test_known_multidegree_set():
    # 4 generators, 16 subsets, 11 distinct lcms
    ideal = ideal_of((2, 2, 0, 0), (2, 1, 1, 0), (0, 1, 1, 2), (0, 0, 2, 2))
    degrees = enumerate_multidegrees(ideal)
    assert len(degrees) == 11
    expected = {
        UNIT,
        (2, 2, 0, 0), (2, 1, 1, 0), (0, 1, 1, 2), (0, 0, 2, 2),
        (2, 2, 1, 0), (2, 2, 1, 2), (2, 2, 2, 2),
        (2, 1, 1, 2), (2, 1, 2, 2), (0, 1, 2, 2),
    }
    assert set(degrees) == expected
    assert (2, 2, 1, 0) in degrees
    assert (1, 1, 1, 1) not in degrees


def test_zero_and_unit_ideals():
    assert tuple(enumerate_multidegrees(MonomialIdeal(()))) == (UNIT,)
    assert tuple(enumerate_multidegrees(MonomialIdeal((UNIT,)))) == (UNIT,)


def test_generator_cap():
    gens = tuple((i, 20 - i, 0, 0) for i in range(21))
    ideal = MonomialIdeal(gens)
    with pytest.raises(GeneratorCapExceeded):
        enumerate_multidegrees(ideal)
    assert len(enumerate_multidegrees(ideal, cap=21)) > 0


def test_memo_checks_a_lower_cap_again():
    ideal = MonomialIdeal(tuple((i, 20 - i, 0, 0) for i in range(21)))
    degrees = enumerate_multidegrees(ideal, 40)
    with pytest.raises(GeneratorCapExceeded, match="21 generators exceed the cap of 1"):
        enumerate_multidegrees(ideal, 1)
    # the refusal is not cached either, and a cap the ideal fits still answers
    with pytest.raises(GeneratorCapExceeded):
        enumerate_multidegrees(ideal, 1)
    assert enumerate_multidegrees(ideal, 40) == degrees
    assert enumerate_multidegrees(ideal, 21) == degrees


def test_memo_holds_the_most_recent_lattice_only():
    first = ideal_of((1, 0, 0, 0), (0, 1, 0, 0))
    second = ideal_of((2, 0, 0, 0), (0, 0, 3, 0), (0, 1, 1, 1))
    assert enumerate_multidegrees.cache_info().maxsize == 1
    for ideal in (first, second, first):
        enumerate_multidegrees(ideal, 20)
        assert enumerate_multidegrees.cache_info().currsize == 1
    hits = enumerate_multidegrees.cache_info().hits
    assert enumerate_multidegrees(first, 20) == ((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0))
    assert enumerate_multidegrees.cache_info().hits == hits + 1


@given(ideals())
def test_multidegrees_are_exactly_the_subset_lcms(ideal):
    degrees = enumerate_multidegrees(ideal)
    seen = set(degrees)
    # every generator and the empty lcm appear
    assert UNIT in seen
    assert set(ideal.gens) <= seen
    # closed under lcm, and each member is recovered by its divisor set
    for a in seen:
        for g in ideal.gens:
            assert lcm_all([a, g]) in seen
    for m in seen:
        assert lcm_all(g for g in ideal.gens if all(x <= y for x, y in zip(g, m))) == m


@given(ideals())
def test_degrees_sorted_and_deduplicated(ideal):
    degrees = enumerate_multidegrees(ideal)
    listing = list(degrees)
    assert listing == sorted(set(listing))
