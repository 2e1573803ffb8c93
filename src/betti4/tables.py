"""The Betti table type shared by the formula engine and the homology oracle.

It lives apart from both routes so that the oracle can build tables
without importing any formula code.
"""

from .errors import InvariantViolation
from .values import Value, set_field

_BAD_ROWS = "multigraded rows must be 5-tuples of non-negative entries that sum to the totals"


def _column_sums(rows, check_entries=True):
    """Column sums of 5-tuple rows, one strict transpose; every entry,
    or only the sums, must be non-negative."""
    # a row of another length makes the strict zip raise, or leaves
    # other than five columns
    try:
        totals = tuple(map(sum, zip(*rows, strict=True)))
    except ValueError:
        totals = ()
    if len(totals) != 5 or min(totals) < 0 or check_entries and min(map(min, rows)) < 0:
        raise InvariantViolation(_BAD_ROWS)
    return totals


class BettiTable(Value):
    """Betti numbers of S/M in homological degrees 0..4.

    The optional multigraded map sends a multidegree to its 5-tuple of
    graded Betti numbers, none negative; its columns must sum to the
    totals.  The projective dimension is read off the totals.
    """

    __slots__ = ("betti", "multigraded")

    def __init__(self, betti, multigraded=None):
        # entries are exactly ints (no bool, float or NaN), so min compares numbers
        if len(betti) != 5 or any(type(b) is not int for b in betti) or min(betti) < 0:
            raise InvariantViolation(f"bad Betti numbers {betti!r}")
        if multigraded is not None and (
                _column_sums(multigraded.values()) != betti
                or any(type(b) is not int for row in multigraded.values() for b in row)):
            raise InvariantViolation(_BAD_ROWS)
        set_field(self, "betti", betti)
        set_field(self, "multigraded", multigraded)

    @classmethod
    def from_rows(cls, rows, want_multigraded=False):
        """The table whose totals are the column sums of rows, a map from
        multidegree to 5-tuple; the map is kept only if wanted."""
        # rows that are not kept need only non-negative sums
        table = cls.__new__(cls)
        set_field(table, "betti", _column_sums(rows.values(), want_multigraded))
        set_field(table, "multigraded", rows if want_multigraded else None)
        return table

    @property
    def pd(self):
        """Projective dimension: the largest degree with a nonzero Betti number."""
        b = self.betti
        for i in range(4, 0, -1):
            if b[i]:
                return i
        return 0

    @property
    def euler(self):
        """Alternating sum beta0 - beta1 + beta2 - beta3 + beta4."""
        b = self.betti
        return b[0] - b[1] + b[2] - b[3] + b[4]
