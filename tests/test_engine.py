"""Formula pipeline: closed-form Betti numbers against fixtures and the oracle."""

import random
import time
from itertools import combinations

import pytest
from conftest import (
    CountedColumn,
    ideal_of,
    ideals,
    model_or_staircase,
    permutations_of_4,
    staircase,
    wide_ideals,
)
from hypothesis import example, given, settings, strategies as st
from reference import (
    divides,
    dominant_members,
    is_dominant,
    lcm,
    lcm_all,
    lcm_lattice,
    multigraded_oracle,
    permute_ideal,
    permute_monomial,
    strongly_divides,
)

from betti4 import engine
from betti4.atlas import ENTRIES, LABELED_CLASSES
from betti4.cli import sample_ideal
from betti4.engine import (
    HOLLOW,
    KEY_TABLE,
    NONZERO_ROWS,
    UP,
    BettiTable,
    _build_key_table,
    _rows_on_columns,
    dominant_quadruples,
    full_table,
    pd_two_condition,
    upward_closure,
)
from betti4.errors import GeneratorCapExceeded, InternalInconsistency, InvariantViolation
from betti4.homology import ALL_FIELDS, RATIONALS, oracle_betti
from betti4.monomials import UNIT, MonomialIdeal
from betti4.multidegrees import enumerate_multidegrees, generator_columns
from betti4.parsing import DEFAULT_EXP_CAP
from betti4.twins import build_bundle

COMPUTATIONS = ideal_of((2, 2, 0, 0), (2, 1, 1, 0), (0, 1, 1, 2), (0, 0, 2, 2))
SECTION7 = ideal_of((2, 2, 1, 0), (2, 2, 0, 1), (1, 0, 2, 2), (0, 1, 2, 2), (1, 1, 1, 1))
SECTION8 = ideal_of(
    (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0),
    (0, 0, 3, 0), (0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 0, 3),
)
MODEL_OR_STAIRCASE = model_or_staircase()


def test_betti_table_consistency_checks():
    # pd is derived from the totals, so it cannot be passed in
    with pytest.raises(TypeError):
        BettiTable((1, 2, 1, 0, 0), pd=3)
    with pytest.raises(InvariantViolation, match="bad Betti numbers"):
        BettiTable((1, -1, 0, 0, 0))
    table = BettiTable((1, 2, 1, 0, 0))
    assert sum(table.betti) == 4 and table.euler == 0
    # the last nonzero degree, gaps and all
    for betti, pd in (((1, 0, 0, 0, 0), 0), ((1, 1, 0, 0, 0), 1), ((1, 2, 1, 0, 0), 2),
                      ((1, 4, 4, 1, 0), 3), ((1, 4, 6, 4, 1), 4), ((1, 0, 0, 0, 2), 4)):
        assert BettiTable(betti).pd == pd


def test_long_multigraded_row_is_rejected():
    with pytest.raises(InvariantViolation, match="5-tuples"):
        BettiTable((1, 0, 0, 0, 0), {UNIT: (1, 0, 0, 0, 0, 0)})
    # a long row next to well-formed ones trips the strict column zip
    with pytest.raises(InvariantViolation, match="5-tuples"):
        BettiTable((1, 1, 0, 0, 0), {UNIT: (1, 0, 0, 0, 0), (1, 0, 0, 0): (0, 1, 0, 0, 0, 0)})


def test_short_multigraded_row_is_rejected():
    # this 4-entry row adds up to the first four totals
    with pytest.raises(InvariantViolation, match="5-tuples"):
        BettiTable((1, 0, 0, 0, 0), {UNIT: (1, 0, 0, 0)})
    # a short row next to a well-formed one trips the strict column zip
    with pytest.raises(InvariantViolation, match="5-tuples"):
        BettiTable((1, 1, 0, 0, 0), {UNIT: (1, 0, 0, 0, 0), (1, 0, 0, 0): (0, 1, 0, 0)})


def test_negative_multigraded_entry_is_rejected():
    # the -1 cancels the extra 1 in the column sum
    with pytest.raises(InvariantViolation, match="non-negative"):
        BettiTable((1, 0, 0, 0, 0), {UNIT: (1, 1, 0, 0, 0), (1, 0, 0, 0): (0, -1, 0, 0, 0)})


def test_full_table_on_worked_example():
    table = full_table(COMPUTATIONS, want_multigraded=True)
    assert table.betti == (1, 4, 3, 0, 0)
    assert table.pd == 2
    # the three second-degree rows sit at the three guarded twin degrees
    twos = sorted(m for m, row in table.multigraded.items() if row[2])
    assert twos == [(0, 1, 2, 2), (2, 1, 1, 2), (2, 2, 1, 0)]
    assert table.multigraded[UNIT] == (1, 0, 0, 0, 0)


def test_beta4_quadruple_count():
    five = ideal_of((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 0, 2), (0, 1, 0, 2))
    assert len(dominant_quadruples(five)) == 1
    assert len(dominant_quadruples(COMPUTATIONS)) == 0
    assert len(dominant_quadruples(SECTION8)) == 9
    koszul = ideal_of((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert len(dominant_quadruples(koszul)) == 1


def test_strong_divisor_blocks_a_quadruple():
    # the four squares form a dominant set, but x1x2x3x4 strongly
    # divides their lcm, so that lcm is dropped; the four quadruples
    # containing x1x2x3x4 itself all survive, each with its own lcm
    squares = ((0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0))
    blocked = ideal_of(*squares, (1, 1, 1, 1))
    survivors = dominant_quadruples(blocked)
    assert (2, 2, 2, 2) not in survivors
    assert survivors == ((1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 2, 1))
    assert oracle_betti(blocked).betti[4] == 4
    # without the interloper the square quadruple stands
    assert len(dominant_quadruples(ideal_of(*squares))) == 1


def test_section8_golden():
    table = full_table(SECTION8)
    assert table.betti == (1, 8, 22, 24, 9)
    assert table.pd == 4


def test_formula_entry_points_agree():
    for ideal in (COMPUTATIONS, SECTION7, SECTION8):
        table = full_table(ideal)
        assert len(dominant_quadruples(ideal)) == table.betti[4]
        assert table.betti[3] == 1 + table.betti[2] + table.betti[4] - len(ideal.gens)


def test_degenerate_tables():
    zero = full_table(MonomialIdeal(()), want_multigraded=True)
    assert zero.betti == (1, 0, 0, 0, 0) and zero.pd == 0
    assert zero.multigraded == {UNIT: (1, 0, 0, 0, 0)}
    unit = full_table(MonomialIdeal((UNIT,)), want_multigraded=True)
    assert unit.betti == (1, 1, 0, 0, 0) and unit.pd == 1
    assert unit.multigraded == {UNIT: (1, 1, 0, 0, 0)}


def test_generator_cap():
    ideal = MonomialIdeal(tuple((i, 20 - i, 0, 0) for i in range(21)))
    with pytest.raises(GeneratorCapExceeded):
        full_table(ideal)
    assert full_table(ideal, cap=21).betti[1] == 21


def test_generator_cap_applies_to_the_unit_ideal():
    # the formula route and the oracle refuse the same ideals
    unit = MonomialIdeal((UNIT,))
    zero = MonomialIdeal(())
    for compute in (full_table, oracle_betti):
        with pytest.raises(GeneratorCapExceeded):
            compute(unit, cap=0)
        assert compute(unit, cap=1).betti == (1, 1, 0, 0, 0)
        assert compute(zero, cap=0).betti == (1, 0, 0, 0, 0)
        # no ideal fits under a negative cap, not even the zero ideal
        with pytest.raises(GeneratorCapExceeded, match="0 generators exceed the cap of -1"):
            compute(zero, cap=-1)


def test_pd_two_condition():
    assert pd_two_condition(SECTION7)
    assert not pd_two_condition(COMPUTATIONS)  # pd 2 without the condition
    assert not pd_two_condition(MonomialIdeal(()))
    assert not pd_two_condition(ideal_of((1, 1, 1, 1)))
    # with two generators the condition is vacuous, and pd is always 2
    assert pd_two_condition(ideal_of((1, 0, 0, 0), (0, 1, 0, 0)))
    assert not pd_two_condition(ideal_of((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))


def _pd_two_condition_by_pairs(ideal):
    """Reference: test each candidate against the lcm of every pair of the others."""
    gens = ideal.gens
    if len(gens) < 2:
        return False
    for cand in gens:
        others = [g for g in gens if g != cand]
        if all(divides(cand, lcm(a, b)) for a, b in combinations(others, 2)):
            return True
    return False


@given(st.one_of(MODEL_OR_STAIRCASE, ideals()))
def test_pd_two_condition_matches_the_pair_scan(ideal):
    assert pd_two_condition(ideal) == _pd_two_condition_by_pairs(ideal)


def test_pd_two_condition_holds_on_some_model_ideals():
    # keeps the property above from comparing only False answers
    verdicts = [pd_two_condition(sample_ideal(random.Random(seed), 8, 4)) for seed in range(200)]
    assert any(verdicts) and not all(verdicts)


def test_pd_two_condition_implies_pd_two_on_fixture():
    table = full_table(SECTION7)
    assert table.betti == (1, 5, 4, 0, 0)
    assert table.pd == 2


@given(ideals())
def test_full_table_matches_oracle(ideal):
    formula = full_table(ideal, want_multigraded=True)
    oracle = oracle_betti(ideal, want_multigraded=True)
    assert formula.betti == oracle.betti
    assert formula.multigraded == oracle.multigraded
    assert formula.pd == oracle.pd


@given(ideals())
def test_euler_characteristic_vanishes(ideal):
    assert full_table(ideal).euler == 0


@given(ideals())
def test_taylor_bound_and_dominance(ideal):
    total = sum(full_table(ideal).betti)
    assert total <= 2 ** len(ideal.gens)
    assert (total == 2 ** len(ideal.gens)) == is_dominant(ideal)


@given(ideals(), permutations_of_4())
def test_full_table_is_permutation_invariant(ideal, perm):
    image = permute_ideal(ideal, perm)
    ours = full_table(ideal, want_multigraded=True)
    theirs = full_table(image, want_multigraded=True)
    assert ours.betti == theirs.betti
    relocated = {permute_monomial(m, perm): row for m, row in ours.multigraded.items()}
    assert relocated == theirs.multigraded


@given(ideals())
def test_betti3_routes_agree(ideal):
    # the table's beta3 column against the Euler relation, written out
    betti = full_table(ideal).betti
    assert betti[3] == 1 + betti[2] + betti[4] - len(ideal.gens)
    assert betti[4] == len(dominant_quadruples(ideal))


def test_full_table_scans_the_dominant_quadruples_once(monkeypatch):
    calls = []

    def counted(ideal, columns=None):
        calls.append(ideal)
        return dominant_quadruples(ideal, columns)

    monkeypatch.setattr(engine, "dominant_quadruples", counted)
    table = full_table(SECTION8)
    assert calls == [SECTION8]
    assert table.betti[3] == 24 and table.betti[4] == 9


UNIT_IDEAL = MonomialIdeal((UNIT,))
# exponents at the cap: one generator, and five with three dominant
# quadruples whose lcms reach the cap
ONE_AT_CAP = ideal_of((DEFAULT_EXP_CAP, 0, 3, 0))
FIVE_AT_CAP = ideal_of((DEFAULT_EXP_CAP, 1, 0, 0), (0, DEFAULT_EXP_CAP, 0, 0), (0, 0, 0, DEFAULT_EXP_CAP),
                       (1, 0, DEFAULT_EXP_CAP, 0), (2, 2, 0, 1))


def _reference_row(ideal, m):
    """The key-table row of the squarefree twin that the reduction
    pipeline builds at m, or zero if its support is not that of m."""
    bundle = build_bundle(ideal, m)
    support, row = KEY_TABLE[upward_closure(bundle.squarefree.gens)]
    return row if support == bundle.y_m else (0,) * 5


@given(wide_ideals())
@example(UNIT_IDEAL)
@example(FIVE_AT_CAP)
@example(ideal_of((10**9, 0, 0, 0), (0, 1, 0, 0)))
@example(ideal_of((10**9 + 1, 0, 0, 0), (10**9, 1, 0, 0), (0, 2, 0, 0)))
def test_generator_columns_match_their_definition(ideal):
    order, upto, below = generator_columns(ideal.gens)
    assert order == sorted(ideal.gens, key=lambda g: (g[3], g))
    everyone = (1 << len(order)) - 1
    for j in range(4):
        keys = sorted({0, *(g[j] for g in ideal.gens)})
        assert list(upto[j]) == sorted(below[j]) == keys
        for v in keys:
            assert upto[j][v] == sum(1 << i for i, g in enumerate(order) if g[j] <= v)
            # below v off zero, and off the variable at zero
            assert below[j][v] == sum(1 << i for i, g in enumerate(order)
                                      if (g[j] < v if v else g[j] == 0))
        assert upto[j][keys[-1]] == everyone and below[j][0] == upto[j][0]


def _stretched(gens, factor):
    return tuple(tuple(x * factor for x in g) for g in gens)


@given(wide_ideals(), st.sampled_from([3, 10**9]))
@example(FIVE_AT_CAP, 10**9)
def test_tables_depend_on_the_order_of_exponents_not_their_size(ideal, factor):
    # multiplying every exponent by one factor keeps their order, so the
    # lattice and its rows move along and the totals stay
    wide = MonomialIdeal(_stretched(ideal.gens, factor))
    table = full_table(ideal, want_multigraded=True, cap=40)
    stretched = full_table(wide, want_multigraded=True, cap=40)
    assert stretched.betti == table.betti
    assert stretched.multigraded == dict(zip(_stretched(table.multigraded, factor),
                                             table.multigraded.values()))
    assert dominant_quadruples(wide) == _stretched(dominant_quadruples(ideal), factor)


def test_huge_exponents_cost_no_more_than_small_ones():
    # the columns are keyed by the exponents that occur, so an exponent
    # of 10^9 sizes nothing
    ideal = ideal_of((10**9, 0, 0, 0), (0, 10**9, 0, 0), (0, 0, 10**9, 1), (1, 1, 1, 10**9))
    start = time.perf_counter()
    table = full_table(ideal)
    assert time.perf_counter() - start < 0.25
    assert table.betti == full_table(ideal_of((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 1),
                                              (1, 1, 1, 2))).betti


@given(st.one_of(MODEL_OR_STAIRCASE, wide_ideals()))
@example(UNIT_IDEAL)
@example(ONE_AT_CAP)
@example(FIVE_AT_CAP)
def test_key_rows_match_the_reduction_pipeline(ideal):
    # the bit-operation key at each point names the key-table row of the
    # squarefree twin the reduction pipeline builds there, on the whole
    # lcm lattice, cones included, and in the lattice's order
    degrees = lcm_lattice(ideal)
    expected = {m: _reference_row(ideal, m) for m in degrees}
    nonzero = {m: row for m, row in expected.items() if any(row)}
    assert full_table(ideal, want_multigraded=True, cap=40).multigraded == nonzero
    rows = _rows_on_columns(generator_columns(ideal.gens), iter(degrees))
    assert list(rows.items()) == list(nonzero.items())


def _saturated(ideal, m):
    """True iff some generator dividing m lies below m on all of supp(m),
    i.e. has an empty twin mask there."""
    return any(divides(g, m) and all(g[j] < m[j] for j in range(4) if m[j]) for g in ideal.gens)


@given(MODEL_OR_STAIRCASE)
def test_saturated_lattice_points_have_zero_rows(ideal):
    # where a dividing generator has an empty twin mask, the key, the key
    # table and the homology oracle must all give the zero row, and the
    # lattice walk leaves the point out
    degrees = lcm_lattice(ideal)
    walked = set(enumerate_multidegrees(ideal, 40))
    nonzero = _rows_on_columns(generator_columns(ideal.gens), degrees)
    for m in degrees:
        if not _saturated(ideal, m):
            continue
        assert upward_closure(build_bundle(ideal, m).squarefree.gens) == UP[0]
        assert m not in nonzero and m not in walked
        for field in ALL_FIELDS:
            assert multigraded_oracle(ideal, m, field)[1:] == (0, 0, 0, 0)


def test_most_staircase_lattice_points_are_saturated():
    ideal = staircase(24, 5)
    degrees = lcm_lattice(ideal)
    saturated = sum(_saturated(ideal, m) for m in degrees)
    assert saturated > len(degrees) // 2
    # the lattice walk keeps the others only
    assert enumerate_multidegrees(ideal, 40) == tuple(m for m in degrees if not _saturated(ideal, m))


def _dominant_quadruples_by_scan(ideal):
    """Reference: the distinct lcms, lex-sorted, of the 4-subsets of the
    generators that all four members dominate and whose lcm no generator
    strongly divides."""
    lcms = set()
    for quad in combinations(ideal.gens, 4):
        if len(dominant_members(quad)) != 4:
            continue
        degree = lcm_all(quad)
        if not any(strongly_divides(g, degree) for g in ideal.gens):
            lcms.add(degree)
    return tuple(sorted(lcms))


@given(st.one_of(MODEL_OR_STAIRCASE, wide_ideals()))
@example(FIVE_AT_CAP)
def test_dominant_quadruples_match_the_subset_scan(ideal):
    assert dominant_quadruples(ideal) == _dominant_quadruples_by_scan(ideal)


@pytest.mark.parametrize("q", [40, 60, 100, 200])
def test_dominant_quadruples_match_the_oracle_at_large_q(q):
    # the subset scan cannot reach these sizes; the oracle's beta4 rows,
    # from Koszul homology alone, can
    ideal = staircase(q, 17)
    rows = oracle_betti(ideal, RATIONALS, q, want_multigraded=True).multigraded
    assert dominant_quadruples(ideal) == tuple(m for m, row in rows.items() if row[4])


def test_the_d3_ceiling_prunes_most_of_the_quadruple_search(monkeypatch):
    # each c candidate the search examines costs one read of below[2];
    # without the ceiling this staircase makes 517,674 of them
    ideal = staircase(200, 17)
    order, upto, (lt0, lt1, lt2, lt3) = generator_columns(ideal.gens)
    monkeypatch.setattr(CountedColumn, "reads", 0)
    lcms = dominant_quadruples(ideal, (order, upto, (lt0, lt1, CountedColumn(lt2), lt3)))
    assert CountedColumn.reads < 50_000
    assert lcms == dominant_quadruples(ideal)


@given(MODEL_OR_STAIRCASE)
def test_beta4_rows_sit_at_the_dominant_quadruple_lcms(ideal):
    rows = full_table(ideal, want_multigraded=True, cap=40).multigraded
    assert tuple(m for m, row in rows.items() if row[4]) == _dominant_quadruples_by_scan(ideal)
    table_rows = {row for _, row in KEY_TABLE.values()}
    assert all(row in table_rows for row in rows.values())


def test_a_lost_beta4_row_is_caught_at_runtime(monkeypatch):
    monkeypatch.setitem(NONZERO_ROWS, HOLLOW | 0b1111 << 16, (0, 0, 0, 0, 0))
    with pytest.raises(InternalInconsistency, match="Euler relation"):
        full_table(SECTION8)


def test_beta4_rows_off_the_dominant_quadruples_are_caught_at_runtime(monkeypatch):
    # the two beta4 routes agree on the count here, not on the place
    lcms = dominant_quadruples(SECTION8)
    moved = lcms[:-1] + ((9, 9, 9, 9),)
    monkeypatch.setattr(engine, "dominant_quadruples", lambda ideal, columns=None: moved)
    with pytest.raises(InternalInconsistency, match="beta4 degrees"):
        full_table(SECTION8)


def test_key_table_is_checked_against_the_atlas(monkeypatch):
    table = _build_key_table(LABELED_CLASSES)
    assert len(table) == 168
    incomplete = dict(LABELED_CLASSES)
    del incomplete[(0b0011, 0b0100)]
    with pytest.raises(InternalInconsistency, match="167 upward-closed families"):
        _build_key_table(incomplete)
    entry = ENTRIES[65]
    monkeypatch.setitem(ENTRIES, 65, entry._replace(beta3=entry.beta3 + 1))
    with pytest.raises(InternalInconsistency, match="atlas class 65"):
        _build_key_table(LABELED_CLASSES)
