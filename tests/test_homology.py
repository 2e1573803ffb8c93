import pytest
from conftest import ideal_of, ideals, model_or_staircase, run_fresh_interpreter, staircase
from hypothesis import given, strategies as st
from reference import divides, homology_profile, lcm_lattice, multigraded_oracle, reduced_homology_rank

from betti4 import homology
from betti4.errors import GeneratorCapExceeded, InvariantViolation
from betti4.homology import (
    ALL_FIELDS,
    FACETS,
    RATIONALS,
    _homology_profile,
    _rank,
    koszul_complex,
    oracle_betti,
)
from betti4.monomials import UNIT, MonomialIdeal
from betti4.multidegrees import enumerate_multidegrees
from betti4.tables import BettiTable


def complex_of(*faces):
    """The 16-bit face set of the given vertex sets."""
    return sum(1 << f for f in set(faces))


def koszul_by_shifts(ideal, b):
    """Reference: test each of the 16 shifts x^(b-t) against every generator."""
    faces = []
    for t in range(16):
        shifted = tuple(b[j] - (t >> j & 1) for j in range(4))
        if min(shifted) >= 0 and any(divides(g, shifted) for g in ideal.gens):
            faces.append(t)
    return complex_of(*faces)


def is_downward_closed(faces):
    return all(f & ~(1 << i) in faces for f in faces for i in range(4) if f >> i & 1)


VOID = complex_of()
IRRELEVANT = complex_of(0)
TWO_POINTS = complex_of(0, 0b0001, 0b0010)
HOLLOW_TRIANGLE = complex_of(0, 0b0001, 0b0010, 0b0100, 0b0011, 0b0101, 0b0110)
SOLID_TRIANGLE = complex_of(0, 0b0001, 0b0010, 0b0100, 0b0011, 0b0101, 0b0110, 0b0111)
HOLLOW_TETRAHEDRON = complex_of(*(m for m in range(15)))


def test_oracle_refuses_unsupported_characteristics():
    # refused on a cold call and right after a warm call on the same
    # ideal, where the memo would otherwise answer: the profile cache
    # would take 2.0 and True as 2 and 1, and the kernel None as the
    # rationals; refused before the walk, so even over the cap
    ideal = ideal_of((2, 1, 0, 0), (0, 2, 1, 0), (1, 0, 0, 1))
    other = ideal_of((1, 0, 0, 0), (0, 1, 0, 0))
    for bad in (1, 4, 7, 2.0, True, None):
        with pytest.raises(ValueError, match="unsupported characteristic"):
            oracle_betti(staircase(21, 0), bad)
        oracle_betti(other)
        with pytest.raises(ValueError, match="unsupported characteristic"):
            oracle_betti(ideal, bad)
        for char in ALL_FIELDS:
            oracle_betti(ideal, char)
            with pytest.raises(ValueError, match=f"unsupported characteristic {bad!r}"):
                oracle_betti(ideal, bad)


def test_downward_closure_enforced():
    for characteristic in (0, 2, 3, 5):
        with pytest.raises(InvariantViolation, match="downward closed"):
            _homology_profile(complex_of(0b0011), characteristic)  # an edge without its vertices


def test_exactly_the_168_downward_closed_face_sets_are_complexes():
    # the homology kernel takes a face set only if it is a complex
    accepted = []
    for bits in range(1 << 16):
        try:
            _homology_profile(bits, 0)
        except InvariantViolation:
            continue
        accepted.append(bits)
    # Dedekind's M(4): 168 downward-closed families of subsets of {1..4}
    assert len(accepted) == 168
    assert all(is_downward_closed({t for t in range(16) if bits >> t & 1}) for bits in accepted)
    for bits in (-1, 1 << 16):
        with pytest.raises(InvariantViolation, match="16-bit"):
            _homology_profile(bits, 0)


def test_homology_of_small_complexes():
    assert reduced_homology_rank(IRRELEVANT, -1) == 1
    assert all(reduced_homology_rank(IRRELEVANT, d) == 0 for d in range(0, 4))
    assert all(reduced_homology_rank(VOID, d) == 0 for d in range(-1, 4))
    assert reduced_homology_rank(TWO_POINTS, 0) == 1
    assert reduced_homology_rank(HOLLOW_TRIANGLE, 1) == 1
    assert reduced_homology_rank(HOLLOW_TRIANGLE, 0) == 0
    assert all(reduced_homology_rank(SOLID_TRIANGLE, d) == 0 for d in range(-1, 4))
    assert reduced_homology_rank(HOLLOW_TETRAHEDRON, 2) == 1


def test_homology_is_field_independent_on_four_vertices():
    for cx in (VOID, IRRELEVANT, TWO_POINTS, HOLLOW_TRIANGLE, HOLLOW_TETRAHEDRON):
        for char in ALL_FIELDS:
            for d in range(-1, 4):
                assert reduced_homology_rank(cx, d, char) == reduced_homology_rank(cx, d)


def _cleared(a, i, j):
    """Row operations subtracting multiples of row i from the others, so
    that column j keeps remainders smaller than the pivot a[i][j]."""
    p = a[i][j]
    return [row if k == i else [x - row[j] // p * y for x, y in zip(row, a[i])]
            for k, row in enumerate(a)]


def smith_diagonal(matrix):
    """Reference: the nonzero diagonal of the integral Smith normal form.

    Every step is an invertible integer row or column operation.  The
    pivot is an entry of least absolute value; once its row and column
    are clear and it divides every other entry it is a diagonal entry,
    otherwise a remainder smaller than it becomes the next pivot.
    """
    a = [list(row) for row in matrix]
    diagonal = []
    while any(map(any, a)):
        _, i, j = min((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        p = a[i][j]
        a = _cleared(a, i, j)
        a = [list(column) for column in zip(*_cleared([list(c) for c in zip(*a)], j, i))]
        if any(row[j] for k, row in enumerate(a) if k != i) or sum(map(bool, a[i])) > 1:
            continue
        stray = next((row for row in a if any(x % p for x in row)), None)
        if stray is not None:
            a[i] = [x + y for x, y in zip(a[i], stray)]
            continue
        diagonal.append(abs(p))
        a = [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]
    return diagonal


def test_smith_diagonal_reference():
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    # 2x2 minors 0, 2 and 2
    assert sorted(smith_diagonal([[1, 1], [1, 1], [0, 2]])) == [1, 2]


def downward_closed_face_sets():
    """The 168 face sets of complexes on four vertices, found by brute force."""
    return [bits for bits in range(1 << 16)
            if is_downward_closed({t for t in range(16) if bits >> t & 1})]


def test_homology_on_four_vertices_has_no_torsion():
    # over Z: every boundary matrix of every complex on four vertices, with
    # the signs of the oracle's facet table, has elementary divisors 1
    # only, so H_* is free and its ranks are the homology over any field
    complexes = downward_closed_face_sets()
    assert len(complexes) == 168
    for bits in complexes:
        faces = [t for t in range(16) if bits >> t & 1]
        counts = [sum(t.bit_count() == k for t in faces) for k in range(5)]
        ranks = [0]
        for d in range(4):
            domain = [t for t in faces if t.bit_count() == d + 1]
            codomain = [t for t in faces if t.bit_count() == d]
            matrix = [[dict(FACETS[t]).get(s, 0) for s in codomain] for t in domain]
            diagonal = smith_diagonal(matrix)
            assert set(diagonal) <= {1}, (hex(bits), d, diagonal)
            ranks.append(len(diagonal))
        ranks.append(0)
        integral = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(5))
        for characteristic in (0, 2, 3, 5):
            assert _homology_profile(bits, characteristic) == integral


def test_facet_table_profiles_match_the_dense_elimination():
    # every face set in every field, against boundary matrices built from
    # the face set alone and eliminated densely
    for bits in downward_closed_face_sets():
        for characteristic in (0, 2, 3, 5):
            assert _homology_profile(bits, characteristic) == homology_profile(bits, characteristic)


# the six-vertex real projective plane: H_2 is 0 over Q, F_3 and F_5 and
# F_2 over F_2, so its boundary map on triangles loses rank mod 2 only
RP2_TRIANGLES = ((1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
                 (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6))


def test_rank_sees_torsion_that_four_vertices_never_have():
    rows = [(((b, c), 1), ((a, c), -1), ((a, b), 1)) for a, b, c in RP2_TRIANGLES]
    assert [_rank(rows, characteristic) for characteristic in (0, 2, 3, 5)] == [10, 9, 10, 10]
    # entries divisible by the characteristic vanish in it
    diagonal = [((0, 2),), ((1, 3),), ((2, 5),), ((3, 30),)]
    assert [_rank(diagonal, characteristic) for characteristic in (0, 2, 3, 5)] == [4, 2, 2, 2]
    # a row combination that vanishes only mod the characteristic
    pair = [((0, 1), (1, 1)), ((0, 1), (1, 4))]
    assert [_rank(pair, characteristic) for characteristic in (0, 2, 3, 5)] == [2, 2, 1, 2]


def test_koszul_complex_membership():
    principal = ideal_of((1, 0, 0, 0))
    assert koszul_complex(principal, (1, 0, 0, 0)) == IRRELEVANT

    two = ideal_of((1, 0, 0, 0), (0, 1, 0, 0))
    assert koszul_complex(two, (1, 1, 0, 0)) == TWO_POINTS

    assert koszul_complex(MonomialIdeal(()), (2, 2, 2, 2)) == VOID


@st.composite
def ideals_and_degrees(draw):
    """An ideal (zero, random or a staircase) and a degree b that is one of
    its lattice points or any point of [0, 4]^4, zero exponents included."""
    ideal = draw(st.one_of(
        st.just(MonomialIdeal(())),
        ideals(),
        st.builds(staircase, st.integers(1, 20), st.integers(0, 2**32)),
    ))
    b = draw(st.one_of(
        st.sampled_from(lcm_lattice(ideal)),
        st.tuples(*(st.integers(0, 4),) * 4),
    ))
    return ideal, b


@given(ideals_and_degrees())
def test_koszul_complex_matches_the_shift_definition(case):
    ideal, b = case
    assert koszul_complex(ideal, b) == koszul_by_shifts(ideal, b)


@pytest.mark.parametrize("q, seed", [(4, 1), (9, 2), (16, 3)])
def test_koszul_complex_matches_the_shift_definition_on_staircase_lattices(q, seed):
    ideal = staircase(q, seed)
    for b in lcm_lattice(ideal):
        assert koszul_complex(ideal, b) == koszul_by_shifts(ideal, b)


def test_interning_never_caches_a_rejected_face_set():
    # the profile cache keeps one entry per complex and field, and a face
    # set that is no complex raises again on every call, never cached
    size = _homology_profile.cache_info().currsize
    for _ in range(2):
        for bits in (1 << 0b0011, -1, 1 << 16):
            with pytest.raises(InvariantViolation):
                _homology_profile(bits, 0)
    assert _homology_profile.cache_info().currsize == size


def oracle_by_points(ideal, char):
    """Reference: the table summed from multigraded_oracle at every point
    of the lcm lattice, cones included (the zero ideal's lattice is the
    unit alone)."""
    totals = [0] * 5
    rows = {}
    for b in lcm_lattice(ideal):
        row = multigraded_oracle(ideal, b, char)
        for i, value in enumerate(row):
            totals[i] += value
        if any(row):
            rows[b] = row
    return BettiTable(tuple(totals), rows)


@given(st.one_of(
    st.just(MonomialIdeal(())),
    st.just(MonomialIdeal((UNIT,))),
    model_or_staircase(),
))
def test_oracle_pass_matches_the_per_point_definition(ideal):
    for char in ALL_FIELDS:
        reference = oracle_by_points(ideal, char)
        assert oracle_betti(ideal, char, 40, want_multigraded=True) == reference
        totals_only = oracle_betti(ideal, char, 40)
        assert totals_only.betti == reference.betti and totals_only.pd == reference.pd
        assert totals_only.multigraded is None


@given(st.lists(
    st.tuples(st.sampled_from([
        MonomialIdeal(()),
        MonomialIdeal((UNIT,)),
        ideal_of((2, 2, 0, 0), (2, 1, 1, 0), (0, 1, 1, 2), (0, 0, 2, 2)),
        ideal_of((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        staircase(12, 5),
    ]) | model_or_staircase(12), st.sampled_from(ALL_FIELDS)),
    min_size=1, max_size=12,
))
def test_oracle_memos_follow_any_sequence_of_ideals_and_fields(calls):
    # repeats, alternations and field changes in any order: the memos may
    # only ever answer for the ideal they were asked about
    for ideal, char in calls:
        assert oracle_betti(ideal, char, 40, want_multigraded=True) == oracle_by_points(ideal, char)


def test_face_set_memo_holds_the_most_recent_ideal_only():
    first = ideal_of((1, 0, 0, 0), (0, 1, 0, 0))
    second = ideal_of((2, 0, 0, 0), (0, 0, 3, 0), (0, 1, 1, 1))
    for ideal in (first, second, first):
        for char in ALL_FIELDS:
            oracle_betti(ideal, char)
            # one entry, for the walk of the most recent ideal: each face
            # set is the one koszul_complex builds at the same point, and
            # the distinct ones are listed once each
            walk, faces, distinct = homology._last[:3]
            assert walk is enumerate_multidegrees(ideal, 20)
            assert faces == tuple(koszul_complex(ideal, b) for b in walk)
            assert sorted(distinct) == sorted(set(faces))


def test_the_oracle_memo_never_answers_before_the_cap_check():
    # the memo holds the walk the cap check returned, so a lower cap is
    # refused even in a field whose profiles would let it reuse the table
    ideal = staircase(8, 3)
    q = len(ideal.gens)
    binary = 2
    oracle_betti(ideal, RATIONALS, 20)
    with pytest.raises(GeneratorCapExceeded, match=f"{q} generators exceed the cap of {q - 1}"):
        oracle_betti(ideal, binary, q - 1)
    assert oracle_betti(ideal, binary, q, want_multigraded=True) == oracle_by_points(ideal, binary)


def test_oracle_on_the_variable_ideal():
    koszul = ideal_of((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for char in ALL_FIELDS:
        assert oracle_betti(koszul, char).betti == (1, 4, 6, 4, 1)


def test_oracle_degenerate_conventions():
    for char in ALL_FIELDS:
        zero = oracle_betti(MonomialIdeal(()), char, want_multigraded=True)
        assert zero.betti == (1, 0, 0, 0, 0) and zero.pd == 0
        assert zero.multigraded == {UNIT: (1, 0, 0, 0, 0)}
        unit = oracle_betti(MonomialIdeal((UNIT,)), char, want_multigraded=True)
        assert unit.betti == (1, 1, 0, 0, 0) and unit.pd == 1
        assert unit.multigraded == {UNIT: (1, 1, 0, 0, 0)}


@given(ideals())
def test_oracle_euler_characteristic_vanishes(ideal):
    b = oracle_betti(ideal).betti
    assert b[0] - b[1] + b[2] - b[3] + b[4] == 0


@given(ideals())
def test_oracle_beta1_counts_generators(ideal):
    table = oracle_betti(ideal, want_multigraded=True)
    assert table.betti[1] == len(ideal.gens)
    for g in ideal.gens:
        assert table.multigraded[g][1] == 1


@given(ideals(), st.tuples(*(st.integers(0, 4),) * 4))
def test_oracle_vanishes_off_the_multidegree_set(ideal, b):
    # a degree that is no subset lcm supports no Betti numbers at all
    if b in lcm_lattice(ideal):
        return
    faces = koszul_complex(ideal, b)
    assert all(reduced_homology_rank(faces, d) == 0 for d in range(-1, 3))


def test_homology_rank_rejects_dimensions_outside_the_four_vertices():
    for dim in (-2, 4):
        with pytest.raises(ValueError, match="outside -1..3"):
            reduced_homology_rank(IRRELEVANT, dim)


def test_rationals_is_characteristic_zero():
    assert RATIONALS == 0
    assert ALL_FIELDS == (0, 2, 3, 5)


def test_cli_import_loads_neither_the_oracle_nor_csv():
    # the betti path starts without the oracle, which verify and atlas
    # --check import when they run, and no subcommand imports csv
    probe = (
        "import sys, betti4.cli\n"
        "print(sorted(m for m in sys.modules if m in ('betti4.homology', 'csv')))"
    )
    assert run_fresh_interpreter(probe).strip() == "[]"
