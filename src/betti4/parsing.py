"""Text format for monomial ideals, read by parse_ideal and written by
format_ideal.

Generators are comma-separated products of factors like ``x1^3`` or
``x4``, with ``*`` between factors and ``#`` starting a comment that
runs to the end of the line.  ``a``..``d`` alias ``x1``..``x4`` and a
bare ``1`` denotes the unit monomial.  Repeated variables multiply, so
``x1*x1`` means ``x1^2``.  The writer uses ``x1``..``x4`` only, writes
no exponent 1 and no factor of exponent 0, and so reads back as the
ideal it was given.

Both directions are memoized, up to _MEMO_SIZE entries each.  The
reader maps a generator's exact text (what lies between commas once
comments are blanked, whitespace included) to its exponents, and reuses
them when the cap admits them; it keeps only texts of at most _KEY_SIZE
characters, so the memo's size is bounded too.  Every other generator
is read by the one scanner, _FACTOR, in place, so every error and its
position come from that scanner.  The writer keeps the text of recent monomials.  When
full, the reader's memo starts over and the writer's drops its least
recently used entry.
"""

import re
from functools import lru_cache

from .errors import ExponentCapExceeded, ParseError, VariableOutOfRange
from .monomials import NUM_VARS, MonomialIdeal

DEFAULT_EXP_CAP = 64

# entries in each memo: generator text -> exponents, and monomial -> text;
# the random model's exponents up to 4 give 624 nonzero monomials
_MEMO_SIZE = 4096
# the longest generator text the reader keeps; a longer one (padding,
# say) is scanned every time it is read
_KEY_SIZE = 64
_GENERATORS = {}

_NAMES = ("x1", "x2", "x3", "x4")
_INDEX = {**{name: j for j, name in enumerate(_NAMES)}, "a": 0, "b": 1, "c": 2, "d": 3}

# One factor and the separator after it.  Only a variable takes an
# exponent, so after "1^2" the separator is missing at the caret.
# Numbers are [0-9]: \d and str.isdigit also accept other scripts'
# digits and superscripts, which int() then reads or rejects.  \s
# matches exactly the characters str.isspace accepts.
_FACTOR = re.compile(r"""
    \s*
    (?: (?P<name> x[0-9]* | [a-d] ) (?: \s* \^ \s* (?P<exp> [0-9]* ) )?
      | (?P<unit> 1 ) (?! [0-9] )
    )?
    (?P<tail> \s* )
    (?P<sep> [*,] | \Z )?
""", re.VERBOSE)


def _excerpt(digits, keep=12):
    return digits if len(digits) <= keep else digits[:keep] + "..."


def _blank_comments(text):
    # blank comments out rather than deleting them, so error positions
    # keep pointing into the caller's original text
    out = []
    for line in text.splitlines(keepends=True):
        cut = line.find("#")
        out.append(line if cut < 0 else line[:cut] + " " * (len(line) - cut))
    return "".join(out)


def _missing_factor(text, at, pos):
    """The error at offset at, where the factor that the separator
    before pos (or the start of the text) promised does not begin."""
    if at < len(text) and text[at] != ",":
        return ParseError(f"unexpected character {text[at]!r}", at)
    if pos and text[pos - 1] == "*":
        return ParseError("dangling '*'", at)
    return ParseError("empty generator", at)


def _bad_exponent(text, m, max_exp):
    if not m["exp"]:
        return ParseError("expected a number", m.start("exp"))
    digits = m["exp"].lstrip("0")
    if not digits:
        return ParseError("exponent must be positive", text.rindex("^", 0, m.start("exp")) + 1)
    # a longer digit string exceeds the cap; checked before int(), which
    # refuses strings past the interpreter's digit limit
    return ExponentCapExceeded(
        f"exponent {_excerpt(digits)} exceeds the cap of {max_exp}", m.end("exp") - 1
    )


def _scan(text, pos, max_exp):
    """The exponents of the generator that starts at offset pos, read a
    factor at a time up to the ',' after it or the end of text."""
    cap_digits = len(str(max_exp))
    match = _FACTOR.match
    exps = [0] * NUM_VARS
    while True:
        m = match(text, pos)
        name, exp, unit, _, sep = m.groups()
        if name is not None:
            k = _INDEX.get(name)
            if k is None:
                if name == "x":
                    raise ParseError("expected a number", m.start("name") + 1)
                raise VariableOutOfRange(
                    f"variable x{_excerpt(name[1:])} is outside x1..x{NUM_VARS}", m.start("name")
                )
            if exp is None:
                exps[k] += 1
            else:
                digits = exp.lstrip("0")
                if not digits or len(digits) > cap_digits:
                    raise _bad_exponent(text, m, max_exp)
                exps[k] += int(digits)
            if exps[k] > max_exp:
                # the last digit of the exponent, or the last character
                # before the separator when there is none
                at = m.end("tail" if exp is None else "exp") - 1
                raise ExponentCapExceeded(f"exponent {exps[k]} exceeds the cap of {max_exp}", at)
        elif unit is None:
            raise _missing_factor(text, m.start("tail"), pos)
        if sep == "*":
            pos = m.end()
            continue
        if sep is None:
            raise ParseError(f"expected '*' before {text[m.end()]!r}", m.end())
        return tuple(exps)


def parse_ideal(text, max_exp=DEFAULT_EXP_CAP):
    """Parse a generator list into the MonomialIdeal it generates.

    An input that is only whitespace or comments denotes the zero ideal.
    Every error position is an offset into text.
    """
    if "#" in text:
        text = _blank_comments(text)
    if not text or text.isspace():
        return MonomialIdeal(())
    memo = _GENERATORS
    gens = []
    pos = 0
    while True:
        # no token matches a comma, so a generator's text is read the
        # same wherever it stands, and the memo answers for it when the
        # cap admits its exponents; otherwise the scanner reads it, in
        # place, and raises any error there
        end = text.find(",", pos)
        key = text[pos:end] if end >= 0 else text[pos:]
        gen = memo.get(key)
        if gen is None or max(gen) > max_exp:
            gen = _scan(text, pos, max_exp)
            if len(key) <= _KEY_SIZE:
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                memo[key] = gen
        gens.append(gen)
        if end < 0:
            return MonomialIdeal(gens)
        pos = end + 1


@lru_cache(maxsize=_MEMO_SIZE)
def format_monomial(m):
    """The text of one monomial: its factors joined by '*', or "1"."""
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(_NAMES, m) if e]) or "1"


def format_ideal(ideal):
    """The generators comma-separated; the zero ideal is the empty string,
    which parse_ideal reads back as the zero ideal."""
    return ", ".join(map(format_monomial, ideal.gens))
