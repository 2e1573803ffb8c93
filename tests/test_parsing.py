import pytest
from hypothesis import given, settings, strategies as st

from betti4 import parsing
from betti4.errors import ExponentCapExceeded, ParseError, VariableOutOfRange
from betti4.monomials import NUM_VARS, UNIT, MonomialIdeal
from betti4.parsing import DEFAULT_EXP_CAP, format_ideal, format_monomial, parse_ideal

_DIGITS = frozenset("0123456789")
_ALIASES = {"a": 1, "b": 2, "c": 3, "d": 4}


def _excerpt(digits, keep=12):
    return digits if len(digits) <= keep else digits[:keep] + "..."


def _parse_monomial_by_chars(chunk, base, max_exp):
    """One generator, scanned a character at a time; base is the chunk's
    offset inside the full input."""
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


def _parse_ideal_by_chars(text, max_exp=DEFAULT_EXP_CAP):
    """The reference reader: comments blanked line by line, the text split
    at commas, and each generator scanned a character at a time."""
    stripped = []
    for line in text.splitlines(keepends=True) or [""]:
        cut = line.find("#")
        stripped.append(line if cut < 0 else line[:cut] + " " * (len(line) - cut))
    clean = "".join(stripped)
    if not clean.strip():
        return MonomialIdeal(())
    gens = []
    base = 0
    for chunk in clean.split(","):
        gens.append(_parse_monomial_by_chars(chunk, base, max_exp))
        base += len(chunk) + 1
    return MonomialIdeal(gens)


def _outcome(parse, text, cap):
    """The ideal parse reads, or the class, message and position of its error."""
    try:
        return parse(text, cap)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def test_worked_example_string():
    ideal = parse_ideal("x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2")
    assert ideal.gens == ((0, 0, 2, 2), (0, 1, 1, 2), (2, 1, 1, 0), (2, 2, 0, 0))


def test_redundant_generators_are_reduced():
    assert parse_ideal("x1, x1^2").gens == ((1, 0, 0, 0),)
    assert parse_ideal("x1, x1").gens == ((1, 0, 0, 0),)


def test_letter_aliases():
    assert parse_ideal("a^2*b, c*d^3").gens == parse_ideal("x1^2*x2, x3*x4^3").gens


def test_unit_and_zero():
    assert parse_ideal("1").gens == (UNIT,)
    assert parse_ideal("x1, 1").gens == (UNIT,)
    assert parse_ideal("").is_zero
    assert parse_ideal("   \n # nothing here\n").is_zero
    assert parse_ideal("1*x2").gens == ((0, 1, 0, 0),)


def test_comments_and_whitespace():
    text = """
    x1^2 * x2 ,   # first generator
    x3 ^ 2        # second
    """
    assert parse_ideal(text).gens == ((0, 0, 2, 0), (2, 1, 0, 0))


def test_repeated_variables_multiply():
    assert parse_ideal("x1*x1*x1").gens == ((3, 0, 0, 0),)
    assert parse_ideal("x1^2*x2*x1").gens == ((3, 1, 0, 0),)


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        parse_ideal("x1*x5")
    with pytest.raises(VariableOutOfRange):
        parse_ideal("x12")
    with pytest.raises(VariableOutOfRange):
        parse_ideal("x0")


def test_error_positions_point_into_the_original_text():
    with pytest.raises(VariableOutOfRange) as info:
        parse_ideal("x1*x5")
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse_ideal("x1, # comment\n x9^2")
    assert "x9" in str(info.value)
    assert info.value.position == "x1, # comment\n x9^2".index("x9")


def test_exponent_rules():
    with pytest.raises(ParseError):
        parse_ideal("x1^0")
    with pytest.raises(ExponentCapExceeded):
        parse_ideal("x1^65")
    with pytest.raises(ExponentCapExceeded):
        parse_ideal("x1^9", max_exp=8)
    assert parse_ideal("x1^64").gens == ((64, 0, 0, 0),)
    # accumulation across repeated factors is capped too
    with pytest.raises(ExponentCapExceeded):
        parse_ideal("x1^5*x1^4", max_exp=8)
    # leading zeros do not count towards an exponent's length
    assert parse_ideal("x1^" + "0" * 40 + "7").gens == ((7, 0, 0, 0),)
    # too many digits for int() to read: rejected by length first
    with pytest.raises(ExponentCapExceeded) as info:
        parse_ideal("x1^" + "9" * 5000)
    assert len(str(info.value)) < 100
    with pytest.raises(VariableOutOfRange):
        parse_ideal("x" + "1" * 5000)


def test_malformed_inputs():
    for text in ("x1 x2", "x1*", "*x1", "x1,,x2", "x^2", "y1", "x1^-2", "x1^"):
        with pytest.raises(ParseError):
            parse_ideal(text)


def test_only_ascii_digits_are_numbers():
    # superscripts and other scripts' digits pass str.isdigit
    for text in ("x1^\u00b2", "x\u0661", "x1^\u0663", "x\uff11", "1\u0663", "x1^3\u0663"):
        with pytest.raises(ParseError):
            parse_ideal(text)


# pieces of the grammar, look-alike digits, and a number past the
# interpreter's int() digit limit
_TOKENS = ["x1", "x4", "x", "a", "d", "1", "0", "7", "^", "*", ",", " ", "#", "\n",
           "\u00b2", "\u0661", "\u0663", "\u2028", "9" * 4400]


@given(st.text() | st.lists(st.sampled_from(_TOKENS)).map("".join))
def test_parse_ideal_raises_only_parse_errors(text):
    try:
        parse_ideal(text)
    except ParseError:
        pass


# Unicode spaces, a next-line character that also ends a line, a unit
# with an exponent and an exponent with a leading zero
_EXTRA_TOKENS = ["\u00a0", "\u3000", "\x85", "1^2", "x1^065"]


@settings(max_examples=500)
@given(st.text() | st.lists(st.sampled_from(_TOKENS + _EXTRA_TOKENS)).map("".join),
       st.sampled_from([1, 8, 64, 99, 1000]))
def test_parse_ideal_matches_the_character_scanner(text, cap):
    # same ideal, or the same error class, message and position, on a
    # cold generator memo and on one warmed by the same text, once under
    # this cap and once under a higher one
    want = _outcome(_parse_ideal_by_chars, text, cap)
    parsing._GENERATORS.clear()
    assert _outcome(parse_ideal, text, cap) == want
    assert _outcome(parse_ideal, text, cap) == want
    _outcome(parse_ideal, text, 1000)
    assert _outcome(parse_ideal, text, cap) == want


@pytest.mark.parametrize("text, cap, error, message, position", [
    # a 1 followed by a digit is not the unit, and the unit takes no exponent
    ("12", 8, ParseError, "unexpected character '1'", 0),
    ("1^2", 8, ParseError, "expected '*' before '^'", 1),
    # an overflowing sum is reported at the exponent's last digit, or at
    # the last character before the separator when there is no exponent
    ("x1^5*x1^4, x2", 8, ExponentCapExceeded, "exponent 9 exceeds the cap of 8", 8),
    ("x1*x1  *x2", 1, ExponentCapExceeded, "exponent 2 exceeds the cap of 1", 6),
    ("x1^ 00, x2", 8, ParseError, "exponent must be positive", 3),
    ("x1^100, x2", 8, ExponentCapExceeded, "exponent 100 exceeds the cap of 8", 5),
    ("x1, # note\n ,x2", 8, ParseError, "empty generator", 12),
    ("x1 *  , x2", 8, ParseError, "dangling '*'", 6),
    ("x1 x\u0661", 8, ParseError, "expected '*' before 'x'", 3),
])
def test_error_class_message_and_position(text, cap, error, message, position):
    with pytest.raises(ParseError) as info:
        parse_ideal(text, cap)
    assert type(info.value) is error
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_ideal("x1, x2 x3")
    assert info.value.position == 7
    assert "position 7" in str(info.value)


@st.composite
def capped_ideals(draw):
    """(cap, minimal ideal with every exponent at most cap); an empty
    generator list gives the zero ideal, which prints as the empty string."""
    cap = draw(st.integers(1, 2 * DEFAULT_EXP_CAP))
    exp = st.integers(0, cap)
    gens = draw(st.lists(st.tuples(exp, exp, exp, exp), min_size=0, max_size=8))
    return cap, MonomialIdeal(gens)


@given(capped_ideals())
def test_format_then_parse_round_trips(case):
    cap, ideal = case
    assert parse_ideal(format_ideal(ideal), cap) == ideal


def _warm(*texts):
    """A generator memo that holds exactly what texts parse to."""
    parsing._GENERATORS.clear()
    for text in texts:
        parse_ideal(text)


@pytest.mark.parametrize("text, error, message, position", [
    ("x1^2*x2, x3, x2*x5", VariableOutOfRange, "variable x5 is outside x1..x4", 16),
    ("x1^2*x2, x3, x4^65", ExponentCapExceeded, "exponent 65 exceeds the cap of 64", 17),
    ("x1^2*x2, x3,  , x4", ParseError, "empty generator", 14),
    ("x1^2*x2, x3, x4 *", ParseError, "dangling '*'", 17),
    ("x1^2*x2, x3, x4^0", ParseError, "exponent must be positive", 16),
    ("x1^2*x2, x3 x4", ParseError, "expected '*' before 'x'", 12),
])
def test_an_error_after_memo_hits_keeps_the_scanners_position(text, error, message, position):
    _warm("x1^2*x2, x3")
    assert {"x1^2*x2", " x3"} <= parsing._GENERATORS.keys()
    with pytest.raises(ParseError) as info:
        parse_ideal(text)
    assert type(info.value) is error
    assert str(info.value) == f"{message} (at position {position})"
    assert _outcome(parse_ideal, text, DEFAULT_EXP_CAP) == _outcome(
        _parse_ideal_by_chars, text, DEFAULT_EXP_CAP)


@pytest.mark.parametrize("text, cap, message, position", [
    ("x1, x2^9*x3", 8, "exponent 9 exceeds the cap of 8", 7),
    ("x1, x2^5*x2^4", 8, "exponent 9 exceeds the cap of 8", 12),
    ("x1, x2*x2", 1, "exponent 2 exceeds the cap of 1", 8),
    ("x1, x2^10", 9, "exponent 10 exceeds the cap of 9", 8),
])
def test_a_memoized_generator_meets_a_lower_cap_as_the_scanner_does(text, cap, message, position):
    # memoized under the default cap, refused under a lower one with the
    # cold scanner's error, and still answered under a cap it fits
    _warm(text)
    for _ in range(2):
        with pytest.raises(ExponentCapExceeded) as info:
            parse_ideal(text, cap)
        assert str(info.value) == f"{message} (at position {position})"
    assert parse_ideal(text, DEFAULT_EXP_CAP) == _parse_ideal_by_chars(text)
    parsing._GENERATORS.clear()
    assert _outcome(parse_ideal, text, cap) == (ExponentCapExceeded, str(info.value), position)


def test_the_memo_keys_on_a_generators_exact_text():
    # whitespace inside a generator is part of its text: a space can
    # split an exponent or a variable, which is an error
    _warm("x1^10", "x1")
    for text, message, position in (("x1^1 0", "expected '*' before '0'", 5),
                                     ("x 1", "expected a number", 1)):
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert str(info.value) == f"{message} (at position {position})"
    assert parse_ideal(" x1^10 ").gens == ((10, 0, 0, 0),)


def test_text_after_a_blanked_comment_hits_the_memo():
    # a comment is blanked, up to and with its line end, before the text
    # is cut at commas, so a comma inside it separates nothing, and the
    # blanked text is the key
    text = "x1, # x4, x3\n x2^3"
    parsing._GENERATORS.clear()
    cold = parse_ideal(text)
    assert cold.gens == ((0, 3, 0, 0), (1, 0, 0, 0))
    assert " " * 11 + "x2^3" in parsing._GENERATORS.keys()
    assert " x4" not in parsing._GENERATORS.keys()
    assert parse_ideal(text) == cold
    assert parse_ideal("x1, # x1, x2\n x2^3") == cold
    assert parse_ideal("x3, # x1\n x2^3*x4, x2^3") == _parse_ideal_by_chars(
        "x3, # x1\n x2^3*x4, x2^3")


def test_the_memo_keeps_no_generator_text_longer_than_its_bound():
    # a padded generator parses as the bare one but is scanned every
    # time and never kept, so long texts cannot fill the memo; an error
    # after it keeps its position in the padded text
    bound = parsing._KEY_SIZE
    pad = " " * 10_000
    parsing._GENERATORS.clear()
    for _ in range(2):
        assert parse_ideal(f"x1^2*x2,{pad}x3{pad}, x4") == parse_ideal("x1^2*x2, x3, x4")
    assert max(map(len, parsing._GENERATORS)) <= bound
    assert {"x1^2*x2", " x4"} <= parsing._GENERATORS.keys()
    # the bound itself is kept, one more character is not
    parse_ideal(" " * (bound - 2) + "x1," + " " * (bound - 1) + "x2")
    assert " " * (bound - 2) + "x1" in parsing._GENERATORS
    assert " " * (bound - 1) + "x2" not in parsing._GENERATORS
    text = f"x1^2,{pad}x2{pad}, x5"
    for _ in range(2):
        with pytest.raises(VariableOutOfRange) as info:
            parse_ideal(text)
        assert info.value.position == len(text) - 2
    assert _outcome(parse_ideal, text, DEFAULT_EXP_CAP) == _outcome(
        _parse_ideal_by_chars, text, DEFAULT_EXP_CAP)
    assert max(map(len, parsing._GENERATORS)) <= bound


def test_neither_memo_grows_past_its_bound():
    bound = parsing._MEMO_SIZE
    texts = [f"x1^{a}*x2^{b}*x3^{c}" for a in range(2, 65) for b in range(2, 65) for c in (2, 3, 4, 5)]
    assert len(texts) >= 3 * bound
    parsing._GENERATORS.clear()
    largest = 0
    for text in texts:
        parse_ideal(text)
        largest = max(largest, len(parsing._GENERATORS))
    assert largest == bound
    # the memo still holds the most recent generator
    assert texts[-1] in parsing._GENERATORS
    monomials = [parse_ideal(text).gens[0] for text in texts]
    for m, text in zip(monomials, texts):
        assert format_monomial(m) == text
    info = format_monomial.cache_info()
    assert info.maxsize == bound and info.currsize == bound
