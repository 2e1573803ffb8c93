"""The 66 squarefree classes in four variables and their Betti rows.

Every squarefree ideal on at most 4 variables is a relabeling of one of
the 66 classes below, so its second and third multigraded Betti numbers
at the class degree can be looked up instead of computed.  Bit-strings
are written with y1 leftmost.
"""

from collections import namedtuple
from itertools import permutations

from .errors import InternalInconsistency
from .squarefree import SquarefreeIdeal, mask_string, parse_mask, permute_mask

# (id, generators, degree, beta2, beta3).  Generators appear in their
# traditional listing order; they are sorted as masks when parsed.
_TABLE = (
    (1, ("0000",), "0000", 0, 0),
    (2, ("1000",), "1000", 0, 0),
    (3, ("1000", "0100"), "1100", 1, 0),
    (4, ("1000", "0100", "0010"), "1110", 0, 1),
    (5, ("1000", "0100", "0010", "0001"), "1111", 0, 0),
    (6, ("1100",), "1100", 0, 0),
    (7, ("1100", "1010"), "1110", 1, 0),
    (8, ("1100", "1001"), "1101", 1, 0),
    (9, ("1100", "0110"), "1110", 1, 0),
    (10, ("1100", "0101"), "1101", 1, 0),
    (11, ("1100", "0011"), "1111", 1, 0),
    (12, ("1100", "0010"), "1110", 1, 0),
    (13, ("1100", "0001"), "1101", 1, 0),
    (14, ("1100", "1010", "1001"), "1111", 0, 1),
    (15, ("1100", "1010", "0110"), "1110", 2, 0),
    (16, ("1100", "1010", "0101"), "1111", 0, 0),
    (17, ("1100", "1010", "0011"), "1111", 0, 0),
    (18, ("1100", "1001", "0110"), "1111", 0, 0),
    (19, ("1100", "1001", "0101"), "1101", 2, 0),
    (20, ("1100", "1001", "0011"), "1111", 0, 0),
    (21, ("1100", "0110", "0101"), "1111", 0, 1),
    (22, ("1100", "0110", "0011"), "1111", 0, 0),
    (23, ("1100", "0101", "0011"), "1111", 0, 0),
    (24, ("1100", "1010", "0001"), "1111", 0, 1),
    (25, ("1100", "0110", "0001"), "1111", 0, 1),
    (26, ("1100", "1001", "0010"), "1111", 0, 1),
    (27, ("1100", "0101", "0010"), "1111", 0, 1),
    (28, ("1100", "0010", "0001"), "1111", 0, 1),
    (29, ("1100", "1010", "1001", "0110"), "1111", 0, 1),
    (30, ("1100", "1010", "1001", "0101"), "1111", 0, 1),
    (31, ("1100", "1010", "1001", "0011"), "1111", 0, 1),
    (32, ("1100", "1010", "0110", "0101"), "1111", 0, 1),
    (33, ("1100", "1010", "0110", "0011"), "1111", 0, 1),
    (34, ("1100", "1010", "0101", "0011"), "1111", 0, 1),
    (35, ("1100", "1001", "0110", "0101"), "1111", 0, 1),
    (36, ("1100", "1001", "0110", "0011"), "1111", 0, 1),
    (37, ("1100", "1001", "0101", "0011"), "1111", 0, 1),
    (38, ("1100", "0110", "0101", "0011"), "1111", 0, 1),
    (39, ("1100", "1010", "0110", "0001"), "1111", 0, 2),
    (40, ("1100", "1001", "0101", "0010"), "1111", 0, 2),
    (41, ("1100", "1010", "1001", "0110", "0101"), "1111", 0, 2),
    (42, ("1100", "1010", "1001", "0110", "0011"), "1111", 0, 2),
    (43, ("1100", "1010", "1001", "0101", "0011"), "1111", 0, 2),
    (44, ("1100", "1010", "0110", "0101", "0011"), "1111", 0, 2),
    (45, ("1100", "1001", "0110", "0101", "0011"), "1111", 0, 2),
    (46, ("1100", "1010", "1001", "0110", "0101", "0011"), "1111", 0, 3),
    (47, ("1110",), "1110", 0, 0),
    (48, ("1110", "1101"), "1111", 1, 0),
    (49, ("1110", "1011"), "1111", 1, 0),
    (50, ("1110", "0111"), "1111", 1, 0),
    (51, ("1110", "1001"), "1111", 1, 0),
    (52, ("1110", "0101"), "1111", 1, 0),
    (53, ("1110", "0011"), "1111", 1, 0),
    (54, ("1110", "0001"), "1111", 1, 0),
    (55, ("1110", "1101", "1011"), "1111", 2, 0),
    (56, ("1110", "1101", "0111"), "1111", 2, 0),
    (57, ("1110", "1011", "0111"), "1111", 2, 0),
    (58, ("1110", "1101", "0011"), "1111", 2, 0),
    (59, ("1110", "1011", "0101"), "1111", 2, 0),
    (60, ("1110", "0111", "1001"), "1111", 2, 0),
    (61, ("1110", "1001", "0101"), "1111", 1, 0),
    (62, ("1110", "1001", "0011"), "1111", 1, 0),
    (63, ("1110", "0101", "0011"), "1111", 1, 0),
    (64, ("1110", "1101", "1011", "0111"), "1111", 3, 0),
    (65, ("1110", "1001", "0101", "0011"), "1111", 1, 1),
    (66, ("1111",), "1111", 0, 0),
)

# _RELABEL[k][mask] is mask relabeled by the k-th of the 24 permutations
_RELABEL = tuple(tuple(permute_mask(mask, perm) for mask in range(16))
                 for perm in permutations(range(4)))


AtlasEntry = namedtuple("AtlasEntry", ("id", "gens", "y_m", "beta2", "beta3"))
AtlasEntry.__doc__ = """One of the 66 classes with its tabulated multigraded Betti row.

gens holds the sorted masks of the generators."""


def _load():
    entries = {}
    labeled = {}
    for cid, gen_strings, y_string, b2, b3 in _TABLE:
        gens = tuple(sorted(parse_mask(s) for s in gen_strings))
        entry = AtlasEntry(cid, gens, parse_mask(y_string), b2, b3)
        # the table only carries minimal generating sets, and the row
        # degree is always the lcm of the generators
        if SquarefreeIdeal(gens).support != entry.y_m:
            raise InternalInconsistency(f"entry {cid}: degree is not lcm of generators")
        if cid in entries:
            raise InternalInconsistency(f"entry {cid} is listed twice")
        entries[cid] = entry
        # a relabeling of an earlier entry keeps that entry's (smaller)
        # id in the index, so the two rows must agree
        known = labeled.get(gens)
        if known is not None and (entries[known].beta2, entries[known].beta3) != (b2, b3):
            raise InternalInconsistency(f"entries {known} and {cid} disagree")
        for relabel in _RELABEL:
            labeled.setdefault(tuple(sorted([relabel[g] for g in gens])), cid)
    if len(entries) != 66:
        raise InternalInconsistency(f"{len(entries)} atlas entries, expected 66")
    if len({e.gens for e in entries.values()}) != 66:
        raise InternalInconsistency("labeled generator sets must be distinct")
    # every nonzero squarefree ideal in four variables, one per nonempty
    # antichain of masks (the Dedekind number 168, less the zero ideal)
    if len(labeled) != 167:
        raise InternalInconsistency(f"{len(labeled)} labeled forms, expected 167")
    return entries, labeled


# LABELED_CLASSES maps every nonzero squarefree ideal, as a sorted mask
# tuple, to the smallest class id of its orbit.
ENTRIES, LABELED_CLASSES = _load()


def atlas_entries():
    """All 66 entries in id order."""
    return tuple(ENTRIES[i] for i in range(1, 67))


def lookup_multigraded(ideal, y_m):
    """Tabulated (beta2, beta3) of a squarefree ideal at the degree y_m.

    Zero whenever the lcm of the generators misses y_m; the zero ideal
    (which has no class) also reports zero.
    """
    if ideal.is_zero or ideal.support != y_m:
        return (0, 0)
    entry = ENTRIES[LABELED_CLASSES[ideal.gens]]
    return (entry.beta2, entry.beta3)


def atlas_records():
    """JSON-ready export of the table, masks rendered as bit-strings."""
    return [
        {
            "id": e.id,
            "generators": [mask_string(g) for g in e.gens],
            "y_m": mask_string(e.y_m),
            "beta2": e.beta2,
            "beta3": e.beta3,
        }
        for e in atlas_entries()
    ]
