"""The embedded 66-class table and its canonicalization map."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from betti4 import atlas
from betti4.atlas import LABELED_CLASSES, atlas_entries, atlas_records, canonicalize, lookup_multigraded
from betti4.errors import InternalInconsistency
from betti4.squarefree import SquarefreeIdeal, parse_mask, permute_mask

perms = st.permutations(range(4)).map(tuple)


def sq(*bit_strings):
    return SquarefreeIdeal(tuple(sorted(parse_mask(s) for s in bit_strings)))


def entry(class_id):
    table = {e.id: e for e in atlas_entries()}
    return table[class_id]


def least_form(gens):
    """Reference: the lexicographically least sorted mask tuple over all 24
    relabelings, with the first permutation that attains it."""
    best = best_perm = None
    for perm in permutations(range(4)):
        cand = tuple(sorted(permute_mask(g, perm) for g in gens))
        if best is None or cand < best:
            best, best_perm = cand, perm
    return best, best_perm


def test_canonicalize_matches_the_brute_force_search():
    # every antichain under every relabeling: the class is the smallest
    # id whose entry shares the least form, and the reported permutation
    # is the first one that reaches it
    class_of = {}
    for e in atlas_entries():
        class_of.setdefault(least_form(e.gens)[0], e.id)
    assert len(LABELED_CLASSES) == 167
    for gens in LABELED_CLASSES:
        for perm in permutations(range(4)):
            ideal = SquarefreeIdeal(tuple(sorted(permute_mask(g, perm) for g in gens)))
            form, witness = least_form(ideal.gens)
            assert canonicalize(ideal) == atlas.CanonicalForm(class_of[form], witness, form)


def test_loader_rejects_a_corrupted_table(monkeypatch):
    table = atlas._TABLE
    first, ninth, last = table[0], table[8], table[-1]
    assert (ninth[0], last[0]) == (9, 66)
    corruptions = {
        "degree is not lcm": ((1, first[1], "1000", 0, 0),) + table[1:],
        "listed twice": table + (last,),
        "65 atlas entries": table[:-1],
        # classes 7 and 9 are relabelings of one another
        "entries 7 and 9 disagree": table[:8] + ((9, ninth[1], ninth[2], ninth[3] + 1, 0),) + table[9:],
        "must be distinct": table[:-1] + ((66,) + table[-2][1:],),
    }
    for message, corrupted in corruptions.items():
        monkeypatch.setattr(atlas, "_TABLE", corrupted)
        with pytest.raises(InternalInconsistency, match=message):
            atlas._load()


def test_table_shape():
    entries = atlas_entries()
    assert len(entries) == 66
    assert [e.id for e in entries] == list(range(1, 67))
    for e in entries:
        ideal = SquarefreeIdeal(e.gens)
        assert ideal.support == e.y_m
        assert e.beta2 >= 0 and e.beta3 >= 0


def test_row_goldens():
    assert (entry(3).beta2, entry(3).beta3) == (1, 0)
    assert (entry(4).beta2, entry(4).beta3) == (0, 1)
    assert (entry(46).beta2, entry(46).beta3) == (0, 3)
    assert (entry(64).beta2, entry(64).beta3) == (3, 0)
    assert (entry(65).beta2, entry(65).beta3) == (1, 1)
    assert (entry(66).beta2, entry(66).beta3) == (0, 0)


def test_listed_entries_canonicalize_to_orbit_minimum():
    # relabel-equivalent listed entries share one class id: the least one
    for e in atlas_entries():
        form = canonicalize(SquarefreeIdeal(e.gens))
        assert form.class_id <= e.id
        mate = entry(form.class_id)
        assert (mate.beta2, mate.beta3) == (e.beta2, e.beta3)


def test_canonical_spot_checks():
    assert canonicalize(sq("0101", "0011")).class_id == 7
    assert canonicalize(sq("1100", "1010", "0011")).class_id == 16
    assert canonicalize(sq("1110", "0111")).class_id == 48
    assert canonicalize(sq("1110", "1101", "1011", "0111")).class_id == 64
    assert canonicalize(SquarefreeIdeal((0,))).class_id == 1
    assert canonicalize(sq("1111")).class_id == 66


def test_canonicalize_rejects_zero_ideal():
    with pytest.raises(ValueError):
        canonicalize(SquarefreeIdeal(()))


@given(st.sampled_from(atlas_entries()), perms)
def test_canonicalize_is_permutation_invariant(e, perm):
    ideal = SquarefreeIdeal(e.gens)
    relabeled = SquarefreeIdeal(tuple(sorted(permute_mask(g, perm) for g in e.gens)))
    assert canonicalize(relabeled).class_id == canonicalize(ideal).class_id


def test_canonicalize_reports_applied_permutation():
    ideal = sq("0101", "0011")
    form = canonicalize(ideal)
    image = tuple(sorted(permute_mask(g, form.permutation) for g in ideal.gens))
    assert image == form.canonical_gens
    # relabelings land on the same canonical generator tuple
    assert canonicalize(sq("1100", "1010")).canonical_gens == form.canonical_gens


def test_lookup_guard():
    ideal = sq("0101", "0011")
    assert lookup_multigraded(ideal, ideal.support) == (1, 0)
    # support mismatch means the multidegree contributes nothing
    assert lookup_multigraded(ideal, 0b1111) == (0, 0)
    assert lookup_multigraded(SquarefreeIdeal(()), 0) == (0, 0)
    assert lookup_multigraded(SquarefreeIdeal((0,)), 0) == (0, 0)


def test_records_export():
    records = atlas_records()
    assert len(records) == 66
    first, last = records[0], records[-1]
    assert first == {"id": 1, "generators": ["0000"], "y_m": "0000", "beta2": 0, "beta3": 0}
    assert last == {"id": 66, "generators": ["1111"], "y_m": "1111", "beta2": 0, "beta3": 0}
    for record in records:
        assert set(record) == {"id", "generators", "y_m", "beta2", "beta3"}
