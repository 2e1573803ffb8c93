"""Text format for monomial ideal input.

Generators are comma-separated products of factors like ``x1^3`` or
``x4``, with ``*`` between factors and ``#`` starting a comment that
runs to the end of the line.  ``a``..``d`` alias ``x1``..``x4`` and a
bare ``1`` denotes the unit monomial.  Repeated variables multiply, so
``x1*x1`` means ``x1^2``.
"""

from .errors import ExponentCapExceeded, ParseError, VariableOutOfRange
from .monomials import NUM_VARS, MonomialIdeal, minimalize

DEFAULT_EXP_CAP = 64

_ALIASES = {"a": 1, "b": 2, "c": 3, "d": 4}

# str.isdigit also accepts other scripts' digits and superscripts, which
# int() then reads as numbers or rejects with ValueError.
_DIGITS = frozenset("0123456789")


def _excerpt(digits, keep=12):
    return digits if len(digits) <= keep else digits[:keep] + "..."


def _parse_monomial(chunk, base, max_exp):
    """One generator.  base is the chunk's offset inside the full input,
    so every error position refers to the original text."""
    exps = [0] * NUM_VARS
    cap_digits = len(str(max_exp))
    i = 0
    n = len(chunk)

    def skip_ws(i):
        while i < n and chunk[i].isspace():
            i += 1
        return i

    def read_digits(i):
        start = i
        while i < n and chunk[i] in _DIGITS:
            i += 1
        if i == start:
            raise ParseError("expected a number", base + start)
        return chunk[start:i], i

    expect_factor = True
    saw_factor = False
    while True:
        i = skip_ws(i)
        if i >= n:
            break
        ch = chunk[i]
        if not expect_factor:
            if ch != "*":
                raise ParseError(f"expected '*' before {ch!r}", base + i)
            i += 1
            expect_factor = True
            continue
        if ch == "1" and (i + 1 >= n or chunk[i + 1] not in _DIGITS):
            # the unit monomial as a factor; legal but contributes nothing
            i += 1
            expect_factor = False
            saw_factor = True
            continue
        if ch == "x":
            digits, j = read_digits(i + 1)
            if len(digits) > 1 or not 1 <= int(digits) <= NUM_VARS:
                raise VariableOutOfRange(
                    f"variable x{_excerpt(digits)} is outside x1..x{NUM_VARS}", base + i
                )
            var = int(digits)
            i = j
        elif ch in _ALIASES:
            var = _ALIASES[ch]
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", base + i)
        exp = 1
        i = skip_ws(i)
        if i < n and chunk[i] == "^":
            at = i
            i = skip_ws(i + 1)
            digits, i = read_digits(i)
            digits = digits.lstrip("0")
            if not digits:
                raise ParseError("exponent must be positive", base + at + 1)
            # a longer digit string exceeds the cap; checked before int(),
            # which refuses strings past the interpreter's digit limit
            if len(digits) > cap_digits:
                raise ExponentCapExceeded(
                    f"exponent {_excerpt(digits)} exceeds the cap of {max_exp}", base + i - 1
                )
            exp = int(digits)
        exps[var - 1] += exp
        if exps[var - 1] > max_exp:
            raise ExponentCapExceeded(
                f"exponent {exps[var - 1]} exceeds the cap of {max_exp}", base + i - 1
            )
        expect_factor = False
        saw_factor = True
    if expect_factor:
        if saw_factor:
            raise ParseError("dangling '*'", base + n)
        raise ParseError("empty generator", base + skip_ws(0))
    return tuple(exps)


def parse_ideal(text, max_exp=DEFAULT_EXP_CAP):
    """Parse a generator list into a MonomialIdeal, minimalizing as needed.

    An input that is only whitespace or comments denotes the zero ideal.
    """
    stripped = []
    for line in text.splitlines(keepends=True) or [""]:
        cut = line.find("#")
        # blank comments out rather than deleting them, so error
        # positions keep pointing into the caller's original text
        stripped.append(line if cut < 0 else line[:cut] + " " * (len(line) - cut))
    clean = "".join(stripped)
    if not clean.strip():
        return MonomialIdeal(())
    gens = []
    base = 0
    for chunk in clean.split(","):
        gens.append(_parse_monomial(chunk, base, max_exp))
        base += len(chunk) + 1
    return MonomialIdeal(minimalize(gens))
