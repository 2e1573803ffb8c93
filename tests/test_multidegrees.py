from itertools import combinations
from math import comb

import hypothesis.strategies as st
import pytest
from conftest import (
    CountedColumn,
    ideal_of,
    ideals,
    is_cone,
    model_ideals,
    model_or_staircase,
    staircase,
)
from hypothesis import example, given, settings
from reference import k_polynomial, lcm_all, lcm_lattice, lcm_lattice_rows, scarf_rows

from betti4 import engine, multidegrees
from betti4.cli import main
from betti4.engine import COORDINATE_FROM, _coordinate_rows, _rows_on_columns, full_table
from betti4.errors import GeneratorCapExceeded
from betti4.homology import ALL_FIELDS, oracle_betti
from betti4.monomials import UNIT, MonomialIdeal
from betti4.multidegrees import enumerate_multidegrees, generator_columns
from betti4.parsing import format_ideal, format_monomial


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


def test_cones_are_left_out():
    # lcm(x1^2, x2^2) = x1^2 x2^2 is a cone: x1 x2 lies below it in both variables
    ideal = ideal_of((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
    assert set(lcm_lattice(ideal)) - set(enumerate_multidegrees(ideal)) == {(2, 2, 0, 0)}
    assert enumerate_multidegrees(ideal) == (
        UNIT, (0, 2, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0), (2, 0, 0, 0), (2, 1, 0, 0))


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
    assert multidegrees._walk.cache_info().maxsize == 1
    for ideal in (first, second, first):
        enumerate_multidegrees(ideal, 20)
        assert multidegrees._walk.cache_info().currsize == 1
    hits = multidegrees._walk.cache_info().hits
    assert enumerate_multidegrees(first, 20) == ((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0))
    assert multidegrees._walk.cache_info().hits == hits + 1


def test_every_call_form_of_one_cap_gets_the_identical_walk():
    # the memo keys on the cap's value, so leaving it to its default,
    # passing it positionally or by keyword is one walk
    ideal = ideal_of((2, 0, 0, 0), (0, 0, 3, 0), (0, 1, 1, 1))
    multidegrees._walk.cache_clear()
    walk = enumerate_multidegrees(ideal)
    assert enumerate_multidegrees(ideal, multidegrees.DEFAULT_GEN_CAP) is walk
    assert enumerate_multidegrees(ideal, cap=multidegrees.DEFAULT_GEN_CAP) is walk
    assert multidegrees._walk.cache_info().misses == 1


@given(ideals())
def test_lattice_reference_is_every_subset_lcm(ideal):
    subsets = (s for k in range(len(ideal.gens) + 1) for s in combinations(ideal.gens, k))
    assert lcm_lattice(ideal) == tuple(sorted({lcm_all(s) for s in subsets}))


@given(ideals() | model_or_staircase())
def test_multidegrees_are_exactly_the_subset_lcms(ideal):
    # the subset lcms that are not cones, and the unit
    expected = {UNIT} | {m for m in lcm_lattice(ideal) if not is_cone(ideal, m)}
    assert enumerate_multidegrees(ideal, 40) == tuple(sorted(expected))


def _alternating_sums(rows):
    """{m: sum of (-1)^i beta_i at m}, zero sums left out."""
    sums = {m: row[0] - row[1] + row[2] - row[3] + row[4] for m, row in rows.items()}
    return {m: s for m, s in sums.items() if s}


@given(model_ideals())
def test_alternating_row_sums_are_the_taylor_sums(ideal):
    # the Taylor complex has a basis element of degree lcm(S) in
    # homological degree |S| for every subset S, so the alternating sum of
    # the Betti numbers at m counts those subsets with sign (-1)^|S|; no
    # lattice walk is involved, so a point either walk loses is seen here
    taylor = {}
    for k in range(len(ideal.gens) + 1):
        for subset in combinations(ideal.gens, k):
            m = lcm_all(subset)
            taylor[m] = taylor.get(m, 0) + (-1) ** k
    taylor = {m: s for m, s in taylor.items() if s}
    assert _alternating_sums(full_table(ideal, want_multigraded=True).multigraded) == taylor
    for char in ALL_FIELDS:
        assert _alternating_sums(oracle_betti(ideal, char, want_multigraded=True).multigraded) == taylor
    # the K-polynomial reference counts the same subsets, by another road
    assert k_polynomial(ideal.gens) == taylor


@pytest.mark.parametrize("q", [24, 40, 60, 100, 200])
def test_alternating_row_sums_are_the_k_polynomial_at_large_q(q):
    # the Taylor sums need all 2^q subsets; Bigatti's pivot recursion
    # gives the same K-polynomial without them and without a lattice
    # walk, so a live point either walk loses is seen at any q
    ideal = staircase(q, 17)
    expected = k_polynomial(ideal.gens)
    table = full_table(ideal, want_multigraded=True, cap=q)
    assert _alternating_sums(table.multigraded) == expected
    assert _alternating_sums(oracle_betti(ideal, cap=q, want_multigraded=True).multigraded) == expected


def test_routes_agree_on_a_hundred_generator_staircase():
    ideal = staircase(100, 13)
    table = full_table(ideal, cap=100)
    assert table.betti == oracle_betti(ideal, cap=100).betti
    assert table.betti[4] > 0


def _counted_columns(gens):
    """generator_columns(gens) with every upto and below column counting
    the lookups made in it."""
    order, upto, below = generator_columns(gens)
    return order, tuple(map(CountedColumn, upto)), tuple(map(CountedColumn, below))


def test_walk_tests_far_fewer_points_than_the_lattice_holds(monkeypatch):
    # the lcm lattice of this staircase has 62,645 points (too slow to
    # rebuild here), most of them cones.  The pairwise walk grows lcms
    # from live points only, so it tests a fraction of them, each with
    # one lookup in each variable's below column.  The keyed coordinate
    # walk, which the formula route takes at 100 generators, reads each
    # column entry once up front, eight for the unit's key and then two
    # entries per m3 it tries, stopping at the first cone: under 4 reads
    # per point it returns here, where running on past the cones would
    # take 14
    ideal = staircase(100, 13)
    monkeypatch.setattr(multidegrees, "generator_columns", _counted_columns)
    monkeypatch.setattr(CountedColumn, "reads", 0)
    multidegrees._walk.cache_clear()
    try:
        walked = enumerate_multidegrees(ideal, 100)
    finally:
        multidegrees._walk.cache_clear()
    assert CountedColumn.reads % 4 == 0
    tests = CountedColumn.reads // 4
    assert len(walked) <= tests < 62_645 // 2
    monkeypatch.setattr(CountedColumn, "reads", 0)
    rows = _coordinate_rows(_counted_columns(ideal.gens))
    assert len(walked) <= CountedColumn.reads < min(4 * len(walked), 62_645 // 2)
    assert rows == _rows_on_columns(generator_columns(ideal.gens), walked)


def test_columns_are_built_once_per_ideal(monkeypatch, capsys):
    # a cold formula table builds the generator columns once.  Below
    # COORDINATE_FROM generators the walk hands them on, so verify's
    # formula pass and its four oracle passes build them once as well;
    # from there on each route walks the lattice its own way, on columns
    # of its own, so verify builds them once per route
    calls = []
    build = multidegrees.generator_columns

    def counted(gens):
        calls.append(gens)
        return build(gens)

    for module in (multidegrees, engine):
        monkeypatch.setattr(module, "generator_columns", counted)
    for q, builds in ((COORDINATE_FROM - 1, 1), (24, 2)):
        ideal = staircase(q, 5)
        calls.clear()
        multidegrees._walk.cache_clear()
        table = full_table(ideal, cap=40)
        assert calls == [ideal.gens]
        calls.clear()
        multidegrees._walk.cache_clear()
        assert main(["verify", "--max-gens", "40", format_ideal(ideal)]) == 0
        assert calls == [ideal.gens] * builds
        out = capsys.readouterr().out
        assert "char0=ok char2=ok char3=ok char5=ok" in out and f"betti={list(table.betti)}" in out


def test_verify_sees_a_point_the_formula_walk_drops(monkeypatch, capsys):
    # from COORDINATE_FROM generators on, the formula route and the
    # oracle walk the lattice two ways, so a point the formula walk
    # loses shows as a mismatch.  The point dropped here carries the row
    # (0, 0, 1, 1, 0), so the formula route's own checks (beta1 = q, the
    # Euler relation, the beta4 degrees) still pass; this staircase has
    # one such point, at x1^3 x2^2 x3^3 x4^2
    ideal = staircase(24, 13)
    walk = engine._coordinate_rows
    dropped = []

    def dropping(columns):
        rows = walk(columns)
        m = next(m for m, row in rows.items() if row[0] == row[1] == row[4] == 0 and row[2] == row[3])
        dropped.append((m, rows.pop(m)))
        return rows

    monkeypatch.setattr(engine, "_coordinate_rows", dropping)
    assert main(["verify", "--max-gens", "40", format_ideal(ideal)]) == 1
    out = capsys.readouterr().out
    (m, row), = dropped
    assert "char0=FAIL char2=FAIL char3=FAIL char5=FAIL" in out
    assert f"multidegree: {format_monomial(m)}\n    expected (oracle): {list(row)}\n" in out


@given(ideals())
def test_degrees_sorted_and_deduplicated(ideal):
    degrees = enumerate_multidegrees(ideal)
    listing = list(degrees)
    assert listing == sorted(set(listing))


def _random_ideals():
    """1-40 generators with exponents up to 1, 3, 10 or 1000."""
    return st.sampled_from([1, 3, 10, 1000]).flatmap(lambda top: ideals(max_gens=40, max_exp=top))


@given(model_ideals() | _random_ideals())
@example(MonomialIdeal(()))
@example(MonomialIdeal((UNIT,)))
def test_keyed_walk_gives_the_rows_of_the_pairwise_walk(ideal):
    # each walk runs on every ideal, whichever the formula route would pick
    walked = enumerate_multidegrees(ideal, 40)
    expected = _rows_on_columns(walked.columns, walked)
    rows = _coordinate_rows(generator_columns(ideal.gens))
    assert rows == expected and list(rows) == list(expected)
    assert full_table(ideal, want_multigraded=True, cap=40).multigraded == expected


@given(model_or_staircase(40) | _random_ideals())
def test_every_point_is_the_lcm_of_at_most_four_generators(ideal):
    # each coordinate of a walked point other than 1 is attained by a
    # generator dividing it, so the point is the lcm of four such
    # witnesses; the cap therefore bounds a walk by the subsets of at
    # most four generators, not by all 2^q of them
    q = len(ideal.gens)
    walked = enumerate_multidegrees(ideal, 40)
    assert len(walked) <= sum(comb(q, k) for k in range(5))
    for m in walked[1:]:
        divisors = [g for g in ideal.gens if all(a <= b for a, b in zip(g, m))]
        witnesses = [next((g for g in divisors if g[j] == m[j]), None) for j in range(4)]
        assert None not in witnesses and lcm_all(witnesses) == m


@st.composite
def generic_ideals(draw, max_gens=20):
    """Ideals in which no two generators share a positive exponent in one
    variable, and none is constant.  Either q drawn exponent tuples,
    each variable's positive exponents distinct and any of them 0
    instead (minimalization thins these out), or a staircase antichain
    of q generators spread out so that its exponents differ: each one
    times q plus an offset below q, the offsets of a variable distinct."""
    q = draw(st.integers(1, max_gens))
    if draw(st.booleans()):
        columns = [[0 if zero else e
                    for e, zero in zip(draw(st.permutations(range(1, 2 * q + 1))),
                                       draw(st.lists(st.booleans(), min_size=q, max_size=q)))]
                   for _ in range(4)]
        return MonomialIdeal(g for g in zip(*columns) if any(g))
    offsets = [draw(st.permutations(range(q))) for _ in range(4)]
    return MonomialIdeal(tuple(q * x + offsets[j][i] for j, x in enumerate(g))
                         for i, g in enumerate(staircase(q, draw(st.integers(0, 2**32))).gens))


@settings(max_examples=300)
@given(generic_ideals())
def test_generic_ideals_have_their_scarf_rows(ideal):
    # the Scarf complex walks no lcm lattice, so a point that both the
    # formula walk and the oracle's drop (they share the pairwise walk
    # below COORDINATE_FROM generators) shows here; every row of a
    # generic ideal is a unit vector, and no lone lcm of five
    # generators (the zero row) appears
    expected = scarf_rows(ideal.gens)
    assert all(any(row) for row in expected.values())
    formula = full_table(ideal, want_multigraded=True).multigraded
    assert formula == oracle_betti(ideal, want_multigraded=True).multigraded == expected
    assert all(sorted(row) == [0, 0, 0, 0, 1] for row in formula.values())


@settings(max_examples=100)
@given(model_ideals().filter(lambda ideal: len(ideal.gens) <= 6))
def test_model_ideals_have_their_lcm_lattice_rows(ideal):
    # the lattice rows come from the order complexes of the whole lcm
    # lattice, with no walk and no Koszul complex, so a point that both
    # routes drop (they share the pairwise walk below COORDINATE_FROM
    # generators) shows here on any ideal, generic or not; past six
    # generators the order complexes grow too large to eliminate densely
    formula = full_table(ideal, want_multigraded=True).multigraded
    for char in ALL_FIELDS:
        oracle = oracle_betti(ideal, char, want_multigraded=True).multigraded
        assert formula == oracle == lcm_lattice_rows(ideal.gens, char), char


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_keyed_walk_gives_the_rows_of_the_pairwise_walk_on_staircases(seed):
    for q in range(1, 80):
        ideal = staircase(q, seed)
        walked = enumerate_multidegrees(ideal, 80)
        assert _coordinate_rows(walked.columns) == _rows_on_columns(walked.columns, walked), q


def test_the_walk_picks_its_loop_by_generator_count(monkeypatch):
    # full_table keys the pairwise walk's points below COORDINATE_FROM
    # generators and walks a coordinate at a time from there on; both
    # refuse an ideal over the cap, with the pairwise walk's message
    picked = []
    for walk in (enumerate_multidegrees, _coordinate_rows):
        monkeypatch.setattr(engine, walk.__name__,
                            lambda *args, walk=walk: picked.append(walk) or walk(*args))
    for q in (1, COORDINATE_FROM - 1, COORDINATE_FROM, 28):
        multidegrees._walk.cache_clear()
        full_table(staircase(q, 3), cap=40)
    walks = [enumerate_multidegrees, enumerate_multidegrees, _coordinate_rows, _coordinate_rows]
    assert picked == walks
    for q in (COORDINATE_FROM - 1, 28):
        ideal = staircase(q, 3)
        message = f"{q} generators exceed the cap of {q - 1}"
        with pytest.raises(GeneratorCapExceeded, match=message):
            multidegrees.enumerate_multidegrees(ideal, q - 1)
        with pytest.raises(GeneratorCapExceeded, match=message):
            full_table(ideal, cap=q - 1)
    # below COORDINATE_FROM the refusal comes from the pairwise walk itself
    assert picked == [*walks, enumerate_multidegrees]
