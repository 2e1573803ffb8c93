"""Exception types shared across the package."""


class Betti4Error(Exception):
    """Base class for all package errors."""


class GeneratorCapExceeded(Betti4Error):
    """More generators than the cap; raised only by enumerate_multidegrees,
    the lattice walk that the formula route and the oracle both run first."""


class RestrictionViolation(Betti4Error):
    """A generator does not divide the multidegree it was restricted to."""


class IllFormedTwin(Betti4Error):
    """A claimed twin ideal has no consistent squarefree rewrite.

    Genuine twin ideals never trigger this; seeing it means an upstream
    bug or a hand-built input like (x1*x2, x2^2*x3^2, x3*x4^3).
    """


class NotInAtlas(Betti4Error):
    """A squarefree ideal failed to match any atlas class.

    The atlas is complete for 4 variables, so this always signals
    corrupted atlas data rather than unusual input.
    """


class InternalInconsistency(Betti4Error):
    """Two redundant computation paths disagree."""


class InvariantViolation(Betti4Error):
    """A value object was built from data that breaks its invariant.

    Raised by the constructors of ideals, complexes and Betti tables, so
    the check also holds when Python runs with -O.
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
