"""Left-corner transformation and its inverse."""

import pytest

from tagrtg.leftcorner import MalformedLcTree, lc_image, lc_inverse
from tagrtg.rtg import GrammarError, accepts, enumerate_trees, erase_features, reduce_grammar
from tagrtg.tag import parse_tag
from tagrtg.translate import RootNotAdjoinable, lc_fbrtg, site_table, to_fbrtg
from tagrtg.trees import DerivTree, format_tree, parse_tree


UNREDUCED_LC = [
    "S_S [top: ?t] -> e_S(S [top: ?t, bot: ?t])",
    "NP_S [top: ?t] -> e_S(NP [top: ?t, bot: ?t])",
    "VP_S [top: ?t] -> e_S(VP [top: ?t, bot: ?t])",
    "D_S [top: ?t] -> e_S(D [top: ?t, bot: ?t])",
    "P_S [top: ?t] -> e_S(P [top: ?t, bot: ?t])",
    "N_S [top: ?t] -> e_S(N [top: ?t, bot: ?t])",
    "S_S -> caught(NP_S [top: [agr: ?x]],"
    " VP_A [top: [agr: ?x, mode: ind], bot: [mode: ppart]], NP_S)",
    "NP [bot: [agr: 3pl]] -> cats",
    "NP -> fish",
    "NP [top: ?t, bot: [agr: ?x, const: +, def: +]] ->"
    " the(NP [top: ?t, bot: [agr: ?x, const: -]])",
    "NP [top: ?t, bot: [agr: 3sg, const: +, def: -]] ->"
    " a(NP [top: ?t, bot: [agr: 3sg, const: -]])",
    "NP [top: ?t, bot: [agr: 3sg, const: +]] ->"
    " one of(NP [top: ?t, bot: [agr: 3pl, def: +]], D_A, P_A, N_A)",
    "VP [top: ?t, bot: [agr: 3sg, mode: ind]] -> has(VP [top: ?t, bot: [mode: ppart]])",
    "NP_A [top: ?t, bot: [agr: ?x, const: -]] ->"
    " the(NP_A [top: ?t, bot: [agr: ?x, const: +, def: +]])",
    "NP_A [top: ?t, bot: [agr: 3sg, const: -]] ->"
    " a(NP_A [top: ?t, bot: [agr: 3sg, const: +, def: -]])",
    "NP_A [top: ?t, bot: [agr: 3pl, def: +]] ->"
    " one of(NP_A [top: ?t, bot: [agr: 3sg, const: +]], D_A, P_A, N_A)",
    "VP_A [top: ?t, bot: [mode: ppart]] -> has(VP_A [top: ?t, bot: [agr: 3sg, mode: ind]])",
    "S_A [top: ?v, bot: ?v] -> e_A",
    "NP_A [top: ?v, bot: ?v] -> e_A",
    "VP_A [top: ?v, bot: ?v] -> e_A",
    "D_A [top: ?v, bot: ?v] -> e_A",
    "P_A [top: ?v, bot: ?v] -> e_A",
    "N_A [top: ?v, bot: ?v] -> e_A",
]

REDUCED_LC_FEATURES = [
    "S_S -> caught(NP_S [top: [agr: ?x]],"
    " VP_A [top: [agr: ?x, mode: ind], bot: [mode: ppart]], NP_S)",
    "NP_S [top: ?t] -> e_S(NP [top: ?t, bot: ?t])",
    "NP [bot: [agr: 3pl]] -> cats",
    "NP -> fish",
    "NP [top: ?t, bot: [agr: ?x, const: +, def: +]] ->"
    " the(NP [top: ?t, bot: [agr: ?x, const: -]])",
    "NP [top: ?t, bot: [agr: 3sg, const: +, def: -]] ->"
    " a(NP [top: ?t, bot: [agr: 3sg, const: -]])",
    "NP [top: ?t, bot: [agr: 3sg, const: +]] -> one of(NP [top: ?t, bot: [agr: 3pl, def: +]])",
    "VP_A [top: ?t, bot: [mode: ppart]] -> has(VP_A [top: ?t, bot: [agr: 3sg, mode: ind]])",
    "VP_A [top: ?v, bot: ?v] -> e_A",
]

REDUCED_LC_PLAIN = [
    "S_S -> caught(NP_S, VP_A, NP_S)",
    "NP_S -> e_S(NP)",
    "NP -> cats",
    "NP -> fish",
    "NP -> the(NP)",
    "NP -> a(NP)",
    "NP -> one of(NP)",
    "VP_A -> has(VP_A)",
    "VP_A -> e_A",
]


@pytest.fixture(scope="module")
def lc_feature_grammar(fig2):
    return lc_fbrtg(fig2)


def test_unreduced_rule_list(lc_feature_grammar):
    assert [str(r) for r in lc_feature_grammar.rules] == UNREDUCED_LC


def test_alphabet_and_shape(fig2, lc_feature_grammar):
    g = lc_feature_grammar
    g.validate()
    assert g.form == "lc"
    assert str(g.axiom) == "S_S"
    assert g.terminals == (
        ("a", 1),
        ("cats", 0),
        ("caught", 3),
        ("e_A", 0),
        ("e_S", 1),
        ("fish", 0),
        ("has", 1),
        ("one of", 4),
        ("the", 1),
    )
    assert [str(n) for n in g.nonterminals] == [
        "S_S", "NP_S", "VP_S", "D_S", "P_S", "N_S",
        "S", "NP", "VP", "D", "P", "N",
        "S_A", "NP_A", "VP_A", "D_A", "P_A", "N_A",
    ]
    assert g.sites == site_table(fig2)


def test_reduced_feature_rules(lc_feature_grammar):
    red = reduce_grammar(lc_feature_grammar)
    assert [str(r) for r in red.rules] == REDUCED_LC_FEATURES
    assert [str(n) for n in red.nonterminals] == ["S_S", "NP_S", "NP", "VP_A", "VP_S"]
    assert ("one of", 1) in red.terminals
    assert dict(red.sites)["one of"].slot_kinds == ("adj",)


def test_reduced_plain_rules(fig2):
    red = reduce_grammar(erase_features(lc_fbrtg(fig2)))
    assert [str(r) for r in red.rules] == REDUCED_LC_PLAIN


def test_plain_form_is_the_erasure(fig2, lc_feature_grammar):
    assert erase_features(lc_fbrtg(fig2)) == erase_features(lc_feature_grammar)


def test_rule_growth_stays_within_double(fig2, lc_feature_grammar):
    assert len(lc_feature_grammar.rules) == 23
    assert len(lc_feature_grammar.rules) <= 2 * len(to_fbrtg(fig2).rules)
    plain_lc, plain = erase_features(lc_fbrtg(fig2)), erase_features(to_fbrtg(fig2))
    assert len(plain_lc.rules) <= 2 * len(plain.rules)


def test_active_initial_root_keeps_its_own_pair():
    tag = parse_tag(
        "start: X;\n"
        "initial n { (X kind=adj top=[f: a] bot=[g: b] (word \"n\")) }\n"
        "auxiliary w { (X kind=adj (word \"w\") (X kind=foot)) }\n"
    )
    rules = [str(r) for r in lc_fbrtg(tag).rules]
    assert "X [top: [f: a], bot: [g: b]] -> n" in rules


def test_root_inactive_auxiliary_is_rejected():
    tag = parse_tag(
        "start: X;\n"
        "initial n { (X kind=adj (word \"n\")) }\n"
        "auxiliary w { (X (word \"w\") (X kind=foot)) }\n"
    )
    with pytest.raises(RootNotAdjoinable, match="'w'"):
        lc_fbrtg(tag)


def test_label_with_a_flavor_suffix_of_another_label_is_rejected():
    # The plain nonterminal of NP_S would be NP's substitution nonterminal.
    tag = parse_tag(
        "start: S;\n"
        'initial s { (S (NP kind=subst) (NP_S kind=subst) (word "s")) }\n'
        'initial np { (NP kind=adj (word "np")) }\n'
        'initial nps { (NP_S kind=adj (word "nps")) }\n'
    )
    with pytest.raises(GrammarError, match="'NP' and 'NP_S'"):
        lc_fbrtg(tag)
    assert len(to_fbrtg(tag).nonterminals) == 6


def test_inverse_frozen_examples(fig2):
    red = reduce_grammar(lc_fbrtg(fig2))
    cases = [
        ("e_S(one of(the(cats)))", "cats(the(one of(e_A)))"),
        ("e_S(fish)", "fish(e_A)"),
        (
            "caught(e_S(one of(the(cats))), has(e_A), e_S(a(fish)))",
            "caught(cats(the(one of(e_A))), has(e_A), fish(a(e_A)))",
        ),
    ]
    for given, expected in cases:
        assert str(lc_inverse(red, parse_tree(given))) == expected


def test_inverse_handles_unreduced_arities(fig2):
    g = lc_fbrtg(fig2)
    t = parse_tree("e_S(one of(the(cats), e_A, e_A, e_A))")
    assert str(lc_inverse(g, t)) == "cats(the(one of(e_A, e_A, e_A, e_A)))"


def test_inverse_unwinds_long_root_adjunction_chains(fig2):
    red = reduce_grammar(lc_fbrtg(fig2))
    chain = DerivTree("cats")
    for _ in range(3000):
        chain = DerivTree("the", (chain,))
    back = lc_inverse(red, DerivTree("e_S", (chain,)))
    labels = []
    while back.children:
        labels.append(back.label)
        (back,) = back.children
    assert labels == ["cats"] + ["the"] * 3000
    assert back.label == "e_A"


def test_deep_root_adjunction_chain_round_trips_through_text(fig2):
    depth = 100_000
    lc_text = "e_S(" + "the(" * depth + "cats" + ")" * (depth + 1)
    standard = lc_inverse(lc_fbrtg(fig2), parse_tree(lc_text))
    standard_text = format_tree(standard)
    assert standard_text == "cats(" + "the(" * depth + "e_A" + ")" * (depth + 1)
    image = lc_image(to_fbrtg(fig2), parse_tree(standard_text))
    assert format_tree(image) == lc_text


def test_inverse_is_injective_and_lands_in_the_source_language(fig2):
    lc = lc_fbrtg(fig2)
    std = to_fbrtg(fig2)
    originals = set()
    for t in enumerate_trees(lc, 5):
        back = lc_inverse(lc, t)
        assert back not in originals
        originals.add(back)
        assert accepts(std, back)
        assert lc_image(std, back) == t


def test_image_and_inverse_cancel_from_the_standard_side(fig2):
    lc = reduce_grammar(lc_fbrtg(fig2))
    std = reduce_grammar(to_fbrtg(fig2))
    for t in enumerate_trees(std, 6):
        forward = lc_image(std, t)
        assert accepts(lc, forward)
        assert lc_inverse(lc, forward) == t


@pytest.mark.parametrize(
    "expr, complaint",
    [
        ("fish", "instead of e_S"),
        ("e_S(e_A)", "not an elementary tree"),
        ("e_S(caught(e_S(fish), e_A, e_S(fish)))", "cannot land"),
        ("e_S(the(fish, fish))", "carries 2 subtrees"),
        ("caught(e_S(fish), cats, e_S(fish))", "holds initial tree"),
        ("e_S(unknown)", "not an elementary tree"),
    ],
)
def test_inverse_rejects_malformed_trees(fig2, expr, complaint):
    red = reduce_grammar(lc_fbrtg(fig2))
    with pytest.raises(MalformedLcTree, match=complaint):
        lc_inverse(red, parse_tree(expr))


def test_both_directions_check_the_grammar_form(fig2):
    lc = lc_fbrtg(fig2)
    std = to_fbrtg(fig2)
    tree = parse_tree("e_S(fish)")
    with pytest.raises(GrammarError, match="not 'lc'"):
        lc_inverse(std, tree)
    with pytest.raises(GrammarError, match="not 'standard'"):
        lc_image(lc, parse_tree("fish(e_A)"))
