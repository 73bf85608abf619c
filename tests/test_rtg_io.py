"""Grammar file round trips and parse diagnostics."""

from contextlib import suppress
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tagrtg import rtg_io
from tagrtg.features import Atom, Avm, Var, parse_feature
from tagrtg.rtg import (
    FbRtg,
    FbRule,
    GrammarError,
    Nonterminal,
    NonterminalMismatch,
    SiteInfo,
    reduce_grammar,
)
from tagrtg.rtg_io import RtgParseError, format_rtg, load_rtg, parse_rtg, save_rtg
from tagrtg.tag import parse_tag
from tagrtg.translate import lc_fbrtg, to_fbrtg

FEATURE_FILE = """\
rtg 1 standard
axiom: S_S;
nonterminals: S_S, NP_S, NP_A, VP_A, VP_S;
terminals: a/1, cats/1, caught/3, e_A/0, fish/1, has/1, one of/1, the/1;
sites {
  a = auxiliary active (adj);
  cats = initial active (adj);
  caught = initial inactive (subst, adj, subst);
  fish = initial active (adj);
  has = auxiliary active (adj);
  one of = auxiliary active (adj);
  the = auxiliary active (adj);
}
rules {
  S_S -> caught(NP_S [top: [agr: ?x]], VP_A [top: [agr: ?x, mode: ind], bot: [mode: ppart]], NP_S);
  NP_S [top: ?t] -> cats(NP_A [top: ?t, bot: [agr: 3pl]]);
  NP_S [top: ?t] -> fish(NP_A [top: ?t]);
  NP_A [top: ?t, bot: [agr: ?x, const: -]] -> the(NP_A [top: ?t, bot: [agr: ?x, const: +, def: +]]);
  NP_A [top: ?t, bot: [agr: 3sg, const: -]] -> a(NP_A [top: ?t, bot: [agr: 3sg, const: +, def: -]]);
  NP_A [top: ?t, bot: [agr: 3pl, def: +]] -> one of(NP_A [top: ?t, bot: [agr: 3sg, const: +]]);
  NP_A [top: ?v, bot: ?v] -> e_A;
  VP_A [top: ?t, bot: [mode: ppart]] -> has(VP_A [top: ?t, bot: [agr: 3sg, mode: ind]]);
  VP_A [top: ?v, bot: ?v] -> e_A;
}
"""


PAREN_ATOMS_TAG = """\
start: S;
initial t { (S (NP kind=subst top=[f: b(c]) (NP kind=subst) (word "w")) }
initial n { (NP kind=adj bot=[f: b(c, g: d)] (word "n")) }
initial m { (NP kind=adj bot=[f: d)] (word "m")) }
"""


def test_feature_grammar_formats_exactly(feature_grammar):
    assert format_rtg(feature_grammar) == FEATURE_FILE


def test_feature_grammar_round_trips(feature_grammar):
    assert parse_rtg(format_rtg(feature_grammar)) == feature_grammar
    # The label NP_S names a plain left-corner nonterminal, in memory
    # and in the file alike.
    lc = lc_fbrtg(parse_tag(
        "start: S;\n"
        'initial s { (S (NP_S kind=subst) (word "s")) }\n'
        'initial nps { (NP_S kind=adj (word "nps")) }\n'
    ))
    assert parse_rtg(format_rtg(lc)) == lc
    # No node carries the start label; the axiom is declared all the same.
    startless = parse_tag('start: S;\ninitial n { (NP kind=adj (word "n")) }\n')
    for grammar in (to_fbrtg(startless), lc_fbrtg(startless)):
        assert parse_rtg(format_rtg(grammar)) == grammar
    # An atom may contain parentheses; the constraint ends where the
    # feature reader says it does.
    parens = parse_tag(PAREN_ATOMS_TAG)
    for grammar in (to_fbrtg(parens), lc_fbrtg(parens)):
        for form in (grammar, reduce_grammar(grammar)):
            assert parse_rtg(format_rtg(form)) == form


def test_bare_terms_round_trip():
    # Atoms may hold '(', ')', '&' and '->'; a bare term before ')' is
    # written with a space so that it does not read on into it.
    def c(*texts):
        return tuple(parse_feature(t) for t in texts)

    x, y = Nonterminal("X"), Nonterminal("Y")
    rules = (
        FbRule(x, c("a->b", "?v", "[f: g(]"), "t", ((y, c("b)", "?w")), (x, c("?u)")))),
        FbRule(y, c("a&b"), "u", ((x, c("[f: ?v]", "c")),)),
    )
    grammar = FbRtg(x, (x, y), (("t", 2), ("u", 1)), rules)
    text = format_rtg(grammar)
    assert "X a->b & ?v & [f: g(] -> t(Y b) & ?w, X ?u) );" in text
    assert "Y a&b -> u(X [f: ?v] & c );" in text
    assert parse_rtg(text) == grammar


def test_plain_grammar_round_trips(plain_grammar):
    text = format_rtg(plain_grammar)
    assert "NP_S -> cats(NP_A);" in text
    assert parse_rtg(text) == plain_grammar


def test_save_and_load(tmp_path, feature_grammar):
    target = tmp_path / "out.rtg"
    save_rtg(feature_grammar, target)
    assert load_rtg(target) == feature_grammar


def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, feature_grammar):
    lines = format_rtg(feature_grammar).encode().splitlines()
    lines[2] += b" \xe2\x82"  # a three-byte sequence cut short
    target = tmp_path / "bad.rtg"
    target.write_bytes(b"\r\n".join(lines))
    with pytest.raises(RtgParseError, match="^line 3: byte 0xe2 is not UTF-8$"):
        load_rtg(target)


def test_parser_skips_comments_and_blank_lines(feature_grammar):
    lines = format_rtg(feature_grammar).splitlines()
    noisy = "\n".join(
        ["# grammar file", lines[0], "", "# header follows"] + lines[1:]
    )
    assert parse_rtg(noisy) == feature_grammar


def test_spaced_terminal_names_survive(feature_grammar):
    parsed = parse_rtg(format_rtg(feature_grammar))
    assert dict(parsed.terminals)["one of"] == 1
    assert dict(parsed.sites)["one of"].tree_kind == "auxiliary"


def test_empty_sites_section():
    text = (
        "rtg 1 standard\n"
        "axiom: X_S;\n"
        "nonterminals: X_S;\n"
        "terminals: leaf/0;\n"
        "sites {\n"
        "}\n"
        "rules {\n"
        "  X_S -> leaf;\n"
        "}\n"
    )
    grammar = parse_rtg(text)
    assert grammar.sites == ()
    assert grammar.rules == (FbRule("X_S", (), "leaf", ()),)
    assert grammar.axiom == Nonterminal("X_S") == "X_S"


FISH = "NP_S [top: ?t] -> fish(NP_A [top: ?t]);"


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("rtg 1", "rtg 2"), "unsupported format version"),
        (lambda t: t.replace("rtg 1 standard", "rtg 1 spiral"), "unknown rule form"),
        (lambda t: t.replace("axiom:", "axiom"), "expected 'axiom"),
        (lambda t: t.replace("caught/3", "caught/three"), "bad terminal"),
        (lambda t: t.replace("caught/3", "caught/²"), "bad terminal declaration 'caught/²'"),
        (lambda t: t.replace("caught/3", "caught/٣"), "bad terminal declaration 'caught/٣'"),
        (lambda t: t.replace("initial inactive", "initial sideways"), "bad site"),
        (
            lambda t: t.replace("initial inactive", "weird inactive"),
            "bad site description 'weird inactive (subst, adj, subst)'",
        ),
        (
            lambda t: t.replace("(subst, adj, subst)", "(subst, ajd, subst)"),
            "bad site description 'initial inactive (subst, ajd, subst)'",
        ),
        (
            lambda t: t.replace("(subst, adj, subst)", "(subst, adj, subst,)"),
            "bad site description 'initial inactive (subst, adj, subst,)'",
        ),
        (lambda t: t.replace("-> e_A;", "e_A;"), "missing '->'"),
        (lambda t: t.replace("rules {", "rules {\n  NP_S -> ;"), "right-hand side"),
        (lambda t: t + "leftovers\n", "trailing content"),
        (lambda t: t.replace(", NP_S);", ", );"), "empty slot"),
        (lambda t: t.replace("fish(NP_A [top: ?t])", "fish()"), "empty slot"),
        (lambda t: t.replace(FISH, "NP_S [top: ?t] & -> fish(NP_A);"), "empty conjunct"),
        (lambda t: t.replace(FISH, "NP_S -> fish(NP_A [top: ?t] & );"), "empty conjunct"),
        (lambda t: t.replace(FISH, "NP_S -> fish(NP_A [top: ?t];"), "unbalanced paren"),
        (lambda t: t.replace(FISH, "NP_S -> fish(NP_A)) (NP_A);"), "unbalanced paren"),
        (lambda t: t.replace(FISH, "NP_S [top: ?t] -> (NP_A);"), "missing its terminal"),
        (
            lambda t: t.replace(FISH, "NP_S [top: ?t] [bot: ?t] -> fish(NP_A);"),
            "expected '&' or '->' after [top: ?t]",
        ),
        (
            lambda t: t.replace(FISH, "NP_S -> fish(NP_A [top: ?t] [bot: ?t]);"),
            "expected '&' or ',' or ')' after [top: ?t]",
        ),
        (lambda t: t.replace("  " + FISH + "\n", ""), None),
    ],
)
def test_parse_errors(mangle, message):
    text = mangle(FEATURE_FILE)
    if message is None:
        # Dropping a rule still parses; the grammar just shrinks.
        assert len(parse_rtg(text).rules) == 8
        return
    with pytest.raises(RtgParseError) as err:
        parse_rtg(text)
    assert message in str(err.value)
    # The error names the first line the mangling changed.
    pairs = zip_longest(text.splitlines(), FEATURE_FILE.splitlines())
    assert err.value.line == next(n for n, (a, b) in enumerate(pairs, start=1) if a != b)


@pytest.mark.parametrize(
    "tree_kind, slot_kinds", [("weird", ("x",)), ("weird", ("adj",)), ("initial", ("adj", "x"))],
)
def test_site_entries_hold_only_the_kinds_the_reader_reads(tree_kind, slot_kinds):
    with pytest.raises(GrammarError, match="unknown"):
        SiteInfo(tree_kind, True, slot_kinds)


def test_parse_validates_the_grammar():
    # VP_S is declared but unused, so dropping it is harmless; dropping
    # a nonterminal the rules mention is not.
    harmless = FEATURE_FILE.replace("nonterminals: S_S, NP_S, NP_A, VP_A, VP_S;",
                                    "nonterminals: S_S, NP_S, NP_A, VP_A;")
    assert len(parse_rtg(harmless).nonterminals) == 4
    broken = FEATURE_FILE.replace("nonterminals: S_S, NP_S, NP_A, VP_A, VP_S;",
                                  "nonterminals: S_S, NP_S, VP_A, VP_S;")
    with pytest.raises(NonterminalMismatch):
        parse_rtg(broken)


def test_rule_line_reports_number():
    text = FEATURE_FILE.replace("  NP_A [top: ?v, bot: ?v] -> e_A;",
                                "  NP_A [top: ?v bot: ?v] -> e_A;")
    with pytest.raises(RtgParseError) as err:
        parse_rtg(text)
    assert "line 21" in str(err.value)


def test_nonterminals_are_plain_strings(fig2):
    grammars = [to_fbrtg(fig2), lc_fbrtg(fig2)]
    grammars += [reduce_grammar(g) for g in grammars]
    grammars += [parse_rtg(format_rtg(g)) for g in grammars]
    for grammar in grammars:
        names = {grammar.axiom, *grammar.nonterminals}
        for rule in grammar.rules:
            names |= {rule.lhs, *(nt for nt, _ in rule.rhs)}
        assert {type(name) for name in names} == {str}


def test_lc_form_is_preserved(feature_grammar):
    relabeled = FbRtg(
        axiom=feature_grammar.axiom,
        nonterminals=feature_grammar.nonterminals,
        terminals=feature_grammar.terminals,
        rules=feature_grammar.rules,
        form="lc",
        sites=feature_grammar.sites,
    )
    parsed = parse_rtg(format_rtg(relabeled))
    assert parsed.form == "lc"
    assert parsed == relabeled



def _one_rule(nt="S", terminal="a", rank=0, site=False, lhs=(), slot=()):
    """S lhs -> a(S slot, ...) with `rank` slots, and a site entry for a
    if `site`; `lhs` and `slot` are constraints."""
    sites = ((terminal, SiteInfo("initial", True, ("adj",) * rank)),) if site else ()
    rule = FbRule(nt, lhs, terminal, ((nt, slot),) * rank)
    return FbRtg(nt, (nt,), ((terminal, rank),), (rule,), sites=sites)


@pytest.mark.parametrize(
    "grammar, refused",
    [
        # Read back, these name X in the rule, declare no rank for a, turn
        # the rule into a comment and name the terminal a.
        (_one_rule(nt="X Y"), "nonterminal 'X Y'"),
        (_one_rule(terminal="a,b"), "terminal 'a,b'"),
        (_one_rule(nt="#S"), "nonterminal '#S'"),
        (_one_rule(terminal=" a"), "terminal ' a'"),
        (_one_rule(terminal="a/b", site=True), None),
        (_one_rule(terminal="a b", rank=2), None),
        # These read back as a syntax error, a variable, an end of the
        # slot list or of the constraint, another rule, and no name.
        (_one_rule(lhs=(Atom("a b"),)), "atom 'a b'"),
        (_one_rule(lhs=(Avm((("a b", Atom("x")),)),)), "attribute 'a b'"),
        (_one_rule(lhs=(Atom("?x"),)), "atom '?x'"),
        (_one_rule(rank=1, slot=(Atom(")a"),)), "atom ')a'"),
        (_one_rule(rank=1, slot=(Atom("b"), Atom(")a"))), "atom ')a'"),
        (_one_rule(lhs=(Atom("->a"),)), "atom '->a'"),
        (_one_rule(lhs=(Atom(""),)), "atom ''"),
        # Elsewhere in an atom, '->', '&' and ')' read back.
        (_one_rule(rank=1, lhs=(Atom("a->"), Atom("&")), slot=(Atom("a)"),)), None),
    ],
)
def test_writer_refuses_names_that_would_not_read_back(tmp_path, grammar, refused):
    target = tmp_path / "out.rtg"
    if refused is None:
        save_rtg(grammar, target)
        assert load_rtg(target) == grammar
        return
    with pytest.raises(GrammarError) as err:
        save_rtg(grammar, target)
    assert str(err.value) == f"{refused} would not read back from a .rtg file"
    assert not target.exists()  # formatted before the file is opened


# Half the names are plain words, so that many grammars are written.
NAMES = st.one_of(
    st.text("abST", min_size=1, max_size=3), st.text("ab \n\x1c#,=()->;/", max_size=3)
)
# Names in constraints are half plain words and half names that do not
# read back or that hold what ends a conjunct or a slot; half the
# constraints are empty.
FEATURE_NAMES = st.one_of(
    st.text("ab", min_size=1, max_size=2),
    st.sampled_from(["", ")", "->", "a)", "(", "&", "-", ">", " ", "a b", "[", "]", ":", ",", "?"]),
)
CONJUNCTS = st.one_of(
    st.builds(Atom, FEATURE_NAMES),
    st.builds(Var, FEATURE_NAMES),
    st.builds(lambda key, name: Avm(((key, Atom(name)),)), FEATURE_NAMES, FEATURE_NAMES),
)
CONSTRAINTS = st.one_of(st.just(()), st.lists(CONJUNCTS, min_size=1, max_size=2).map(tuple))


@st.composite
def named_grammars(draw):
    nts = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    terminals = draw(st.lists(st.tuples(NAMES, st.integers(0, 2)), min_size=1, max_size=3,
                              unique_by=lambda t: t[0]))
    rules = tuple(
        FbRule(draw(st.sampled_from(nts)), draw(CONSTRAINTS), name,
               tuple((draw(st.sampled_from(nts)), draw(CONSTRAINTS)) for _ in range(rank)))
        for name, rank in terminals if draw(st.booleans())
    )
    sites = tuple((name, SiteInfo("auxiliary", False, ("subst",) * rank))
                  for name, rank in terminals if draw(st.booleans()))
    return FbRtg(nts[0], tuple(nts), tuple(terminals), rules, sites=sites)


def test_writer_refuses_exactly_the_grammars_that_would_not_read_back():
    outcomes = {"written": 0, "refused": 0}

    @settings(max_examples=1000)
    @given(named_grammars())
    def round_trip(grammar):
        try:
            text = format_rtg(grammar)
        except GrammarError:
            outcomes["refused"] += 1
            # Written all the same, it reads back as another grammar or not at all.
            with mock.patch.object(rtg_io, "_unreadable_name", return_value=None):
                text = format_rtg(grammar)
            with suppress(ValueError):
                assert parse_rtg(text) != grammar
        else:
            outcomes["written"] += 1
            assert parse_rtg(text) == grammar

    round_trip()
    assert min(outcomes.values()) > 300, outcomes
