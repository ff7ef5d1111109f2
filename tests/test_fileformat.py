import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel.core import AtomStructure
from warel.fileformat import ParseError, Report, format_structure, parse_structure

A2_TEXT = """
# two atoms
atoms: e d
identity: e
facts:
  e <= d ; d
  d <= d ; d
options: autoclose
"""


def test_parse_a2(a2):
    A = parse_structure(A2_TEXT)
    assert A.atom_count == 2
    assert A.identity == a2.identity
    assert A.cycles == a2.cycles
    assert A.names == ("e", "d")


def test_parse_converse_pairs():
    A = parse_structure(
        "atoms: e r s\nidentity: e\nconverse: r s\n"
        "facts:\n  r <= r ; r\n  e <= r ; s\n  r <= r ; e\noptions: autoclose\n"
    )
    assert A.converse == (0, 2, 1)


def test_unknown_atom_has_line_number():
    with pytest.raises(ParseError, match="line 4"):
        parse_structure("atoms: e d\nidentity: e\nfacts:\n  e <= q ; d\n")


@pytest.mark.parametrize(
    "text, line_no, symbol",
    [
        ("atoms: e d\nidentity: e zz\nfacts:\n", 2, "zz"),
        ("atoms: e d\nidentity:\n  e\n  yy\nfacts:\n", 4, "yy"),
        ("atoms: e d\nidentity: e\nconverse: d qq\nfacts:\n", 3, "qq"),
        ("atoms: e r s\nidentity: e\nconverse:\n  r s,\n  pp s\nfacts:\n", 5, "pp"),
    ],
    ids=["identity-inline", "identity-block", "converse-inline", "converse-block"],
)
def test_unknown_identity_or_converse_atom_has_line_number(text, line_no, symbol):
    with pytest.raises(ParseError, match=f"^line {line_no}: unknown atom '{symbol}'$"):
        parse_structure(text)


def test_bad_fact_syntax():
    with pytest.raises(ParseError, match="expected 'z <= x ; y'"):
        parse_structure("atoms: e\nidentity: e\nfacts:\n  e <= e\n")


def test_bad_converse_is_validation_error():
    with pytest.raises(ParseError, match="self-converse"):
        parse_structure("atoms: e d\nidentity: e\nconverse: e d\nfacts:\n")


def test_unknown_option_has_line_number():
    # closed facts: without the check the misspelt option went unnoticed
    text = "atoms: e\nidentity: e\nfacts:\n  e <= e ; e\noptions: autoclse\n"
    with pytest.raises(ParseError, match="^line 5: unknown option 'autoclse'$"):
        parse_structure(text)
    assert parse_structure(text.replace("autoclse", "autoclose=true")).atom_count == 1


# Section heads, atom names, fact and converse punctuation, option words,
# comments and line breaks, so that soups of them hit every parser branch.
HEADS = ("atoms:", "identity:", "converse:", "facts:", "options:")
TOKENS = HEADS + ("e", "d", "r", "s", "<=", ";", ",", "autoclose", "=true", "# note", " ", "\n", "\n  ")
SOUPS = st.builds(lambda head, rest: head + "".join(rest), st.sampled_from(HEADS), st.lists(st.sampled_from(TOKENS), max_size=40))


@settings(max_examples=300, deadline=None)
@given(SOUPS)
def test_parser_raises_only_parse_error(text):
    try:
        A = parse_structure(text)
    except ParseError:
        return
    assert isinstance(A, AtomStructure)


def test_content_before_section():
    with pytest.raises(ParseError, match="line 1"):
        parse_structure("e d\natoms: e d\n")


def test_no_atoms():
    with pytest.raises(ParseError, match="no atoms"):
        parse_structure("# empty\n")


def test_format_roundtrip(a2, pentagon):
    for A in (a2, pentagon):
        again = parse_structure(format_structure(A))
        assert again.cycles == A.cycles
        assert again.identity == A.identity
        assert again.converse == A.converse


def test_report_lines_and_failures():
    r = Report()
    r.add("stage", "good", True)
    r.add("stage", "bad", False, "details")
    r.info("stage.count", 3)
    assert r.failures == 1 and not r.ok
    assert r.render() == (
        "stage.good = pass\nstage.bad = fail\nwitness: details\nstage.count = 3\n"
    )
