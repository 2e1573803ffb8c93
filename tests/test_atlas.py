"""The embedded 66-class table and its index of every squarefree ideal by class id."""

from itertools import permutations

import pytest
from conftest import permutations_of_4
from hypothesis import given, strategies as st

from betti4 import atlas
from betti4.atlas import LABELED_CLASSES, atlas_entries, atlas_records, lookup_multigraded
from betti4.errors import InternalInconsistency
from betti4.squarefree import parse_mask, permute_mask, support


def sq(*bit_strings):
    """The sorted mask tuple of the given bit-strings."""
    return tuple(sorted(parse_mask(s) for s in bit_strings))


def entry(class_id):
    table = {e.id: e for e in atlas_entries()}
    return table[class_id]


def least_form(gens):
    """Reference: the lexicographically least sorted mask tuple over all 24
    relabelings."""
    return min(tuple(sorted(permute_mask(g, perm) for g in gens)) for perm in permutations(range(4)))


def test_index_maps_every_squarefree_ideal_to_its_class_id():
    # the index holds plain class ids, each the smallest id of an entry
    # in the ideal's orbit, and the lookup reads that entry's row only
    # at the ideal's own support
    smallest = {}
    for e in atlas_entries():
        smallest.setdefault(least_form(e.gens), e.id)
    assert len(LABELED_CLASSES) == 167
    for gens, cid in LABELED_CLASSES.items():
        assert isinstance(cid, int)
        assert cid == smallest[least_form(gens)]
        mate = entry(cid)
        assert lookup_multigraded(gens, support(gens)) == (mate.beta2, mate.beta3)
        if support(gens) != 0b1111:
            assert lookup_multigraded(gens, 0b1111) == (0, 0)


def test_loader_rejects_a_corrupted_table(monkeypatch):
    table = atlas._TABLE
    first, ninth, last = table[0], table[8], table[-1]
    assert (ninth[0], last[0]) == (9, 66)
    corruptions = {
        "degree is not lcm": ((1, first[1], "1000", 0, 0),) + table[1:],
        # a mask inside another
        "entry 3: generators are not an antichain":
            table[:2] + ((3, ("1000", "1100"), "1100", 1, 0),) + table[3:],
        "listed twice": table + (last,),
        "65 atlas entries": table[:-1],
        # classes 7 and 9 are relabelings of one another
        "entries 7 and 9 disagree": table[:8] + ((9, ninth[1], ninth[2], ninth[3] + 1, 0),) + table[9:],
        "must be distinct": table[:-1] + ((66,) + table[-2][1:],),
        # a relabeling of class 2 in place of class 66 leaves the orbit
        # of the ideal generated by 1111 uncovered
        "166 labeled forms": table[:-1] + ((66, ("0100",), "0100", 0, 0),),
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
        assert support(e.gens) == e.y_m
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
        cid = LABELED_CLASSES[e.gens]
        assert cid <= e.id
        mate = entry(cid)
        assert (mate.beta2, mate.beta3) == (e.beta2, e.beta3)


def test_canonical_spot_checks():
    assert LABELED_CLASSES[sq("0101", "0011")] == 7
    assert LABELED_CLASSES[sq("1100", "1010", "0011")] == 16
    assert LABELED_CLASSES[sq("1110", "0111")] == 48
    assert LABELED_CLASSES[sq("1110", "1101", "1011", "0111")] == 64
    assert LABELED_CLASSES[(0,)] == 1
    assert LABELED_CLASSES[sq("1111")] == 66
    # the zero ideal has no class
    assert () not in LABELED_CLASSES


@given(st.sampled_from(atlas_entries()), permutations_of_4())
def test_canonicalize_is_permutation_invariant(e, perm):
    relabeled = tuple(sorted(permute_mask(g, perm) for g in e.gens))
    assert LABELED_CLASSES[relabeled] == LABELED_CLASSES[e.gens]


def test_lookup_guard():
    ideal = sq("0101", "0011")
    assert lookup_multigraded(ideal, support(ideal)) == (1, 0)
    # support mismatch means the multidegree contributes nothing
    assert lookup_multigraded(ideal, 0b1111) == (0, 0)
    assert lookup_multigraded((), 0) == (0, 0)
    assert lookup_multigraded((0,), 0) == (0, 0)


def test_records_export():
    records = atlas_records()
    assert len(records) == 66
    first, last = records[0], records[-1]
    assert first == {"id": 1, "generators": ["0000"], "y_m": "0000", "beta2": 0, "beta3": 0}
    assert last == {"id": 66, "generators": ["1111"], "y_m": "1111", "beta2": 0, "beta3": 0}
    for record in records:
        assert set(record) == {"id", "generators", "y_m", "beta2", "beta3"}
