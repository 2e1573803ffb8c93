"""Acceptance gate: one test per shipped guarantee, tolerances included.

Numbers and time budgets here are the product contract; every expected
value was either taken from a worked example or confirmed through the
homology oracle before being frozen.  Timed criteria measure a best-of
run after one warm-up call so they check algorithmic cost, not import
or cache-fill noise.
"""

import random
import time
from itertools import combinations

from conftest import staircase
from reference import (
    divides,
    is_dominant,
    lcm,
    lcm_lattice,
    multigraded_oracle,
    reduced_homology_rank,
    support_mask,
)

from betti4.atlas import LABELED_CLASSES, atlas_entries
from betti4.engine import (
    KEY_TABLE,
    NONZERO_ROWS,
    _coordinate_rows,
    _rows_on_columns,
    dominant_quadruples,
    full_table,
    pd_two_condition,
    upward_closure,
)
from betti4.homology import ALL_FIELDS, RATIONALS, koszul_complex, oracle_betti
from betti4.monomials import UNIT, MonomialIdeal
from betti4.multidegrees import generator_columns
from betti4.cli import sample_ideal
from betti4.parsing import parse_ideal
from betti4.squarefree import SquarefreeIdeal, mask_monomial

COMPUTATIONS = parse_ideal("x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2")
SECTION7 = parse_ideal("x1^2*x2^2*x3, x1^2*x2^2*x4, x1*x3^2*x4^2, x2*x3^2*x4^2, x1*x2*x3*x4")
SECTION8 = parse_ideal("x1^3, x1^2*x2, x1*x2^2, x2^3, x3^3, x3^2*x4, x3*x4^2, x4^3")


def best_time(fn, repeat=10):
    fn()  # warm-up
    result = None
    elapsed = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def dominant_sample(rng):
    """Dominant ideal with 1..4 generators: each one owns a variable
    whose exponent strictly exceeds everyone else's there."""
    count = rng.randint(1, 4)
    owners = rng.sample(range(4), count)
    gens = []
    for owner in owners:
        m = [rng.randint(0, 2) for _ in range(4)]
        m[owner] = rng.randint(3, 6)
        gens.append(tuple(m))
    return MonomialIdeal(gens)


def nondominant_sample(rng):
    # about 4 in 10 model ideals qualify; the bound turns a dominance
    # test that never says no into a failure instead of a hang
    for _ in range(1000):
        ideal = sample_ideal(rng, 8, 4)
        if not is_dominant(ideal):
            return ideal
    raise AssertionError("no nondominant ideal in 1000 samples")


def test_criterion_01_worked_example_betti_table():
    table, elapsed = best_time(lambda: full_table(COMPUTATIONS))
    assert table.betti == (1, 4, 3, 0, 0)
    assert elapsed < 0.001


def test_criterion_02_beta4_golden():
    ideal = parse_ideal("x1^2, x2^2, x3^2, x1*x4^2, x2*x4^2")
    value, elapsed = best_time(lambda: len(dominant_quadruples(ideal)))
    assert value == 1
    assert elapsed < 0.001


def test_criterion_03_eight_generator_golden():
    table, elapsed = best_time(lambda: full_table(SECTION8))
    assert table.betti[2] == 22
    assert table.betti[3] == 24
    assert elapsed < 0.1


def test_criterion_04_atlas_regeneration():
    def regenerate():
        checked = 0
        for entry in atlas_entries():
            ideal = MonomialIdeal(mask_monomial(g) for g in entry.gens)
            rows = oracle_betti(ideal, RATIONALS, want_multigraded=True).multigraded
            row = rows.get(mask_monomial(entry.y_m), (0,) * 5)
            assert row[2] == entry.beta2
            assert row[3] == entry.beta3
            checked += 2
        return checked

    checked, elapsed = best_time(regenerate, repeat=1)
    assert checked == 132
    assert elapsed < 1.0


def test_criterion_05_formulas_match_oracle_on_1000_random_ideals():
    rng = random.Random(20260815)
    start = time.perf_counter()
    for _ in range(1000):
        ideal = sample_ideal(rng, 8, 4)
        formula = full_table(ideal, want_multigraded=True)
        oracle = oracle_betti(ideal, RATIONALS, want_multigraded=True)
        assert formula.betti == oracle.betti
        assert formula.multigraded == oracle.multigraded
    assert time.perf_counter() - start < 60.0


def test_criterion_06_characteristic_independence():
    start = time.perf_counter()
    rng = random.Random(51)
    pool = [
        MonomialIdeal(mask_monomial(g) for g in entry.gens)
        for entry in atlas_entries()
    ] + [sample_ideal(rng, 8, 4) for _ in range(200)]
    for ideal in pool:
        tables = [oracle_betti(ideal, field, want_multigraded=True) for field in ALL_FIELDS]
        for other in tables[1:]:
            assert other.betti == tables[0].betti
            assert other.multigraded == tables[0].multigraded
    assert time.perf_counter() - start < 60.0


def test_criterion_07_third_betti_routes_agree_on_10000_random_ideals():
    rng = random.Random(404)
    for _ in range(10000):
        ideal = sample_ideal(rng, 8, 4)
        table = full_table(ideal)
        betti = table.betti
        assert betti[3] == 1 + betti[2] + betti[4] - len(ideal.gens)
        assert table.euler == 0


def test_criterion_08_pd_two_condition():
    # sufficiency on the worked example
    assert pd_two_condition(SECTION7)
    table = full_table(SECTION7)
    assert table.betti[3] == 0 and table.betti[4] == 0
    assert table.pd == 2

    # the converse fails: projective dimension 2 without the condition
    assert full_table(COMPUTATIONS).pd == 2
    assert not pd_two_condition(COMPUTATIONS)

    # randomized sufficiency, oracle-confirmed; build candidates whose
    # third generator divides the lcm of the other two so the condition
    # shows up beyond the vacuous two-generator case
    rng = random.Random(73)
    confirmed = three_gen_hits = 0
    while confirmed < 200:
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        top = lcm(a, b)
        c = tuple(rng.randint(0, e) for e in top)
        ideal = MonomialIdeal([a, b, c])
        if ideal.is_zero or ideal.gens == (UNIT,) or not pd_two_condition(ideal):
            continue
        assert oracle_betti(ideal).pd == 2
        confirmed += 1
        three_gen_hits += len(ideal.gens) == 3
    assert three_gen_hits >= 50


def test_criterion_09_taylor_minimality_split():
    rng = random.Random(92)
    for _ in range(200):
        ideal = dominant_sample(rng)
        assert is_dominant(ideal)
        assert sum(full_table(ideal).betti) == 2 ** len(ideal.gens)
    for _ in range(200):
        ideal = nondominant_sample(rng)
        assert sum(full_table(ideal).betti) < 2 ** len(ideal.gens)


def test_criterion_10_divisibility_transfer_on_500_pairs():
    from betti4.twins import build_bundle

    rng = random.Random(1014)
    for _ in range(500):
        ideal = sample_ideal(rng, 8, 4)
        m = rng.choice(lcm_lattice(ideal))
        bundle = build_bundle(ideal, m)
        gens = bundle.restriction.gens
        images = [support_mask(t) for t in bundle.twin_images]
        for i, j in combinations(range(len(gens)), 2):
            pair_lcm = lcm(gens[i], gens[j])
            merged = images[i] | images[j]
            for k in range(len(gens)):
                if divides(gens[k], pair_lcm):
                    assert images[k] & ~merged == 0


def test_criterion_11_every_squarefree_antichain_has_a_class():
    start = time.perf_counter()
    classes = set()
    count = 0
    for bits in range(1, 1 << 15):
        gens = tuple(m + 1 for m in range(15) if bits >> m & 1)
        if any(a != b and a & b == a for a, b in combinations(gens, 2)):
            continue
        cid = LABELED_CLASSES[SquarefreeIdeal(gens).gens]
        assert 1 <= cid <= 66
        classes.add(cid)
        count += 1
    count += 1
    classes.add(LABELED_CLASSES[(0,)])
    assert count == 167
    # relabel-equivalent listed entries collapse to their orbit minimum,
    # so exactly the orbit-minimal ids are reachable
    minima = {LABELED_CLASSES[e.gens] for e in atlas_entries()}
    assert classes == minima
    assert time.perf_counter() - start < 10.0


def test_criterion_12_every_key_row_matches_the_oracle_in_every_characteristic():
    # a key is an upward-closed family of squarefree masks plus a degree
    # y_m containing its support; each family is the closure of exactly
    # one antichain, the empty one included.  The whole row beta0..beta4
    # is compared, so the beta0, beta1 and beta4 rules are proven too
    start = time.perf_counter()
    strict_supersets = [sum(1 << s for s in range(16) if s & g == g and s != g) for g in range(16)]
    antichains = [
        tuple(g for g in range(16) if bits >> g & 1)
        for bits in range(1 << 16)
        if not any(bits >> g & 1 and bits & strict_supersets[g] for g in range(16))
    ]
    assert len(antichains) == 168
    assert {upward_closure(gens) for gens in antichains} == set(KEY_TABLE)
    keys = 0
    for gens in antichains:
        ideal = MonomialIdeal(mask_monomial(g) for g in gens)
        up = upward_closure(gens)
        support = 0
        for g in gens:
            support |= g
        for y_m in range(16):
            if y_m & support != support:
                continue
            b = mask_monomial(y_m)
            row = NONZERO_ROWS.get(up | y_m << 16, (0,) * 5)
            if y_m == support:
                # b is the top of the lcm lattice, where full_table keys it too
                assert full_table(ideal, want_multigraded=True).multigraded.get(b, (0,) * 5) == row
            for field in ALL_FIELDS:
                assert row == multigraded_oracle(ideal, b, field), (gens, y_m, field)
            keys += 1
    assert keys == 298
    assert time.perf_counter() - start < 10.0


def test_criterion_13_sixty_generator_staircase_matches_the_oracle():
    # 60 distinct monomials of total degree 16 form an antichain; its lcm
    # lattice has thousands of points and C(60, 4) = 487,635 generator
    # quadruples, too many to scan one by one in the time
    ideal = staircase(60, 13)
    table, elapsed = best_time(lambda: full_table(ideal, cap=60), repeat=1)
    assert table.betti == oracle_betti(ideal, RATIONALS, 60).betti
    assert table.betti[4] > 0
    assert elapsed < 2.0


def test_criterion_14_both_routes_give_the_key_row_at_every_point_configuration():
    """Per-point census: at every multidegree of every ideal, both routes
    give the key table's row for its twin masks and support.

    Locality: _rows_on_columns and koszul_complex read a generator g at
    m only through two facts, whether g divides m and which coordinates
    of g equal m's.  So each route's row at m is a function of the
    support y of m and the set F of twin masks of the generators that
    divide m.  This census builds one ideal for every pair (y, F), F any
    set of masks inside y, antichain or not: m = 2y, each mask A in F
    gives the generator with exponent 2 on A, 1 on y - A and 0 off y,
    and each variable j of y adds x_j^2 x_(j+1 mod 4)^3, which does not
    divide m but puts m's coordinates into the columns.  Non-antichain
    F give non-minimal generator lists, which the columns accept, and
    nested twin masks, which minimal ideals do have.  The key half keys
    m on the columns.  The walk half runs the keyed coordinate walk,
    which the formula route takes from COORDINATE_FROM generators on,
    on the generators of F alone: whether m is a lattice point, whether
    it is a cone and its key all depend on its divisors only, and the
    walk lists m with its key's row, or leaves it out where that row
    is zero.  The oracle half reads the Koszul complex's
    reduced homology through the dense reference rank, which shares no
    code with the oracle's FACETS elimination, once per distinct face
    set, over Q, F2, F3 and F5.  Criterion 12 proves each key row equal
    to the oracle's, so this closes the step from a point to its key.
    """
    start = time.perf_counter()
    zero = (0,) * 5
    homology = {}
    configurations = 0
    wrong = []
    for y in range(16):
        m = tuple(2 * (y >> j & 1) for j in range(4))
        inside = [a for a in range(16) if a & y == a]
        generator = {a: tuple((1 + (a >> j & 1)) * (y >> j & 1) for j in range(4)) for a in inside}
        padding = [tuple(2 if i == j else 3 if i == (j + 1) % 4 else 0 for i in range(4))
                   for j in range(4) if y >> j & 1]
        for bits in range(1 << len(inside)):
            family = [a for i, a in enumerate(inside) if bits >> i & 1]
            gens = [generator[a] for a in family] + padding
            expected = NONZERO_ROWS.get(upward_closure(family) | y << 16, zero)
            if not y:
                assert expected == (1, int(bool(family)), 0, 0, 0)
            keyed = _rows_on_columns(generator_columns(gens), [m]).get(m, zero)
            divisors = gens[:len(family)]
            walked = _coordinate_rows(generator_columns(divisors)).get(m, zero)
            complex_ = koszul_complex(MonomialIdeal(gens), m)
            ranks = homology.get(complex_.face_bits)
            if ranks is None:
                ranks = homology[complex_.face_bits] = {
                    tuple(reduced_homology_rank(complex_, d, field) for d in range(-1, 3))
                    for field in ALL_FIELDS
                }
            # beta0 is 1 at m = 1 alone; one row for all four fields
            rows = {(int(not y), *h) for h in ranks}
            if keyed != expected or walked != expected or rows != {expected}:
                wrong.append((y, family, expected, keyed, walked, rows))
            configurations += 1
    assert configurations == 66674
    assert not wrong, f"{len(wrong)} configurations disagree, first {wrong[:3]}"
    assert time.perf_counter() - start < 10.0
