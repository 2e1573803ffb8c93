"""The Betti table type shared by the formula engine and the homology oracle.

It lives apart from both routes so that the oracle can build tables
without importing any formula code.
"""

from dataclasses import dataclass

from .errors import InvariantViolation


@dataclass(frozen=True)
class BettiTable:
    """Betti numbers of S/M in homological degrees 0..4.

    The optional multigraded map sends a multidegree to its 5-tuple of
    graded Betti numbers, none negative; its columns must sum to the
    totals.  The projective dimension is read off the totals.
    """

    betti: tuple
    multigraded: dict | None = None

    def __post_init__(self):
        if len(self.betti) != 5 or min(self.betti) < 0:
            raise InvariantViolation(f"bad Betti numbers {self.betti!r}")
        if self.multigraded is not None:
            # a row of another length leaves a column sum short or extra,
            # or makes the strict zip raise
            try:
                columns = list(zip(*self.multigraded.values(), strict=True))
            except ValueError:
                columns = None
            if (columns is None or tuple(map(sum, columns)) != self.betti
                    or min(map(min, columns)) < 0):
                raise InvariantViolation(
                    "multigraded rows must be 5-tuples of non-negative entries that sum to the totals"
                )

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

    @property
    def total(self):
        return sum(self.betti)

