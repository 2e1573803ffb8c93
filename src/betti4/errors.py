"""Exception types shared across the package.

Every error is a Betti4Error: input from outside the program that cannot
be read or breaks a cap, a value built from data that breaks its
invariant, or two redundant computations that disagree.  The twin
reduction has none of its own: inside build_bundle every restricted
generator divides m and every twin exponent is m's or 0 by construction.
"""


class Betti4Error(Exception):
    """Base class for all package errors."""


class GeneratorCapExceeded(Betti4Error):
    """More generators than the cap; raised only by multidegrees.check_cap,
    which the formula route and the oracle both call before they walk."""


class InternalInconsistency(Betti4Error):
    """Two redundant computation paths disagree."""


class InvariantViolation(Betti4Error):
    """A value was built from data that breaks its invariant.

    Raised by the constructors of monomial ideals and Betti tables, and
    by the homology kernel for a face set that is not a complex, so the
    check also holds when Python runs with -O.
    """


class InputUnreadable(Betti4Error):
    """An input file or stream could not be opened, read or decoded."""


class ParseError(Betti4Error):
    """Bad ideal text; carries the offset of the offending character."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableOutOfRange(ParseError):
    """A variable other than x1..x4 was used."""


class ExponentCapExceeded(ParseError):
    """A parsed exponent exceeds the configured cap."""
