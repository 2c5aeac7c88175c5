import pytest

from symbpow.monomial import Monomial
from symbpow.parsing import (IdealDocument, ParseError, default_names,
                             format_ideal, load_ideal, parse_ideal)

from conftest import ideal_of

DOC = """\
# a comment
vars: x y z    # trailing comment
gens:
  x*y^2
  [0 1 2]
  z*x^2          # mixed forms are fine
  x*y*z
"""


def test_parse_round_trip(rot3):
    doc = parse_ideal(DOC, label="rot3")
    assert doc.names == ("x", "y", "z")
    assert doc.ideal == rot3
    assert doc.label == "rot3"
    again = parse_ideal(format_ideal(doc.ideal, doc.names))
    assert again.ideal == rot3


def test_gens_on_header_line():
    doc = parse_ideal("vars: a b\ngens: a^2\n  b\n")
    assert doc.ideal.vectors == ((0, 1), (2, 0))


def test_repeated_variable_multiplies():
    doc = parse_ideal("vars: x y\ngens:\n  x*x*y\n")
    assert doc.ideal.vectors == ((2, 1),)


def test_unit_and_zero_ideals():
    assert parse_ideal("vars: x y\ngens:\n  1\n").ideal.is_unit
    assert parse_ideal("vars: x y\ngens:\n").ideal.is_zero


def test_format_unit_and_zero():
    z = parse_ideal("vars: x y\ngens:\n").ideal
    assert format_ideal(z, ("x", "y")) == "vars: x y\ngens:\n"
    u = parse_ideal("vars: x y\ngens: 1\n").ideal
    assert format_ideal(u, ("x", "y")) == "vars: x y\ngens:\n  1\n"


@pytest.mark.parametrize("text,fragment", [
    ("gens:\n x\n", "vars must come before gens"),
    ("vars: x\nvars: y\ngens:\n", "duplicate vars"),
    ("vars: x x\ngens:\n", "repeated variable"),
    ("vars: 2x\ngens:\n", "bad variable name"),
    ("vars: x\n", "missing gens"),
    ("vars:\ngens:\n", "names no variables"),
    ("vars: x\ngens:\n  y\n", "unknown variable"),
    ("vars: x\ngens:\n  x^0\n", "zero exponent"),
    ("vars: x\ngens:\n  x^\n", "malformed factor"),
    # the column is the faulty factor's own, counted in the generator
    ("vars: x y\ngens:\n  x**y\n", "malformed factor '' (line 3, column 3)"),
    ("vars: x y\ngens:\n  x*y*\n", "malformed factor '' (line 3, column 5)"),
    ("vars: xx yy\ngens:\n  xx*x\n", "unknown variable 'x' (line 3, column 4)"),
    ("vars: x y\ngens:\n  x * q\n", "unknown variable 'q' (line 3, column 5)"),
    ("vars: x y\ngens:\n  y*x^0\n",
     "zero exponent on 'x' (omit the variable instead) (line 3, column 3)"),
    ("vars: x y\ngens:\n  [1]\n", "expected 2"),
    ("vars: x\ngens:\n  [1 2\n", "malformed exponent vector"),
    ("stray\nvars: x\ngens:\n", "expected a vars"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_ideal(text)
    assert fragment in str(err.value)


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse_ideal("vars: x\ngens:\n  x\n  q^2\n")
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_load_ideal_sets_label(tmp_path):
    p = tmp_path / "sample.ideal"
    p.write_text("vars: x y\ngens:\n  x*y\n")
    doc = load_ideal(p)
    assert isinstance(doc, IdealDocument)
    assert doc.label == "sample"
    assert doc.ideal == ideal_of(2, (1, 1))


def test_load_ideal_skips_a_byte_order_mark(tmp_path):
    """A UTF-8 file that starts with a byte order mark, as some editors
    write it, parses to the same document as the file without it."""
    text = b"vars: x y z\ngens:\n  x*y^2\n  [0 1 2]\n"
    plain, marked = tmp_path / "rot.ideal", tmp_path / "marked" / "rot.ideal"
    marked.parent.mkdir()
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert load_ideal(marked) == load_ideal(plain)


def test_load_ideal_names_the_bad_byte_after_a_byte_order_mark(tmp_path):
    p = tmp_path / "latin1.ideal"
    p.write_bytes(b"\xef\xbb\xbfvars: x\ngens:\n  x # caf\xe9\n")
    with pytest.raises(ParseError) as err:
        load_ideal(p)
    assert err.value.line == 3
    assert str(err.value) == (f"{p}: not UTF-8 text, byte 0xe9 cannot be decoded"
                              " (line 3)")


def test_default_names():
    assert default_names(3) == ("x", "y", "z")
    assert default_names(5)[:2] == ("x0", "x1")


def test_exponent_vector_zero_entry_allowed():
    doc = parse_ideal("vars: x y z\ngens:\n  [2 0 1]\n")
    assert doc.ideal.gens[0] == Monomial((2, 0, 1))
