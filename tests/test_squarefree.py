import pytest
from conftest import permutations_of_4
from hypothesis import given, strategies as st
from reference import permute_monomial, support_mask

from betti4.errors import InvariantViolation
from betti4.squarefree import (
    SquarefreeIdeal,
    dominant_mask_members,
    mask_monomial,
    mask_string,
    parse_mask,
    permute_mask,
    shape_descriptor,
)

masks = st.integers(min_value=0, max_value=15)


def test_mask_string_leftmost_is_y1():
    assert mask_string(0b0001) == "1000"
    assert mask_string(0b1000) == "0001"
    assert mask_string(0b0110) == "0110"


@given(masks)
def test_mask_string_roundtrip(mask):
    assert parse_mask(mask_string(mask)) == mask


@pytest.mark.parametrize("text", ["100", "10000", "1020", "abcd", ""])
def test_parse_mask_rejects_bad_bit_strings(text):
    with pytest.raises(ValueError, match="bad bit-string"):
        parse_mask(text)


@given(masks)
def test_mask_monomial_roundtrip(mask):
    assert support_mask(mask_monomial(mask)) == mask


@given(masks, permutations_of_4())
def test_permute_mask_matches_monomial_permutation(mask, perm):
    assert permute_mask(mask, perm) == support_mask(
        permute_monomial(mask_monomial(mask), perm)
    )


def test_antichain_enforced():
    with pytest.raises(InvariantViolation, match="minimal"):
        SquarefreeIdeal((0b0001, 0b0011))


def test_support():
    assert SquarefreeIdeal((0b0011, 0b0101)).support == 0b0111
    assert SquarefreeIdeal(()).support == 0
    assert SquarefreeIdeal((0,)).gens == (0,)


def test_shape_descriptor():
    # two edges sharing a vertex: both have a private bit
    shape = shape_descriptor(SquarefreeIdeal((0b0011, 0b0101)))
    assert shape == (2, (2, 2), 0)

    # triangle of edges: no private bits anywhere
    shape = shape_descriptor(SquarefreeIdeal((0b0011, 0b0101, 0b0110)))
    assert shape.count == 3
    assert shape.semidominance == 3

    # a vertex and the opposite edge both dominate
    shape = shape_descriptor(SquarefreeIdeal((0b0001, 0b0110)))
    assert shape.degrees == (1, 2)
    assert shape.semidominance == 0


def test_dominant_mask_members_single_generator():
    assert dominant_mask_members((0b1111,)) == (0b1111,)
    assert dominant_mask_members(()) == ()
