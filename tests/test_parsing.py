import pytest
from hypothesis import given, strategies as st

from betti4.cli import format_ideal
from betti4.errors import ExponentCapExceeded, ParseError, VariableOutOfRange
from betti4.monomials import MonomialIdeal, minimalize
from betti4.parsing import DEFAULT_EXP_CAP, parse_ideal


def test_worked_example_string():
    ideal = parse_ideal("x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2")
    assert ideal.gens == ((0, 0, 2, 2), (0, 1, 1, 2), (2, 1, 1, 0), (2, 2, 0, 0))


def test_redundant_generators_are_reduced():
    assert parse_ideal("x1, x1^2").gens == ((1, 0, 0, 0),)
    assert parse_ideal("x1, x1").gens == ((1, 0, 0, 0),)


def test_letter_aliases():
    assert parse_ideal("a^2*b, c*d^3").gens == parse_ideal("x1^2*x2, x3*x4^3").gens


def test_unit_and_zero():
    assert parse_ideal("1").is_unit
    assert parse_ideal("x1, 1").is_unit
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
    return cap, MonomialIdeal(minimalize(gens))


@given(capped_ideals())
def test_format_then_parse_round_trips(case):
    cap, ideal = case
    assert parse_ideal(format_ideal(ideal), cap) == ideal
