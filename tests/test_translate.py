"""TAG to derivation-tree grammar translation.

The expected rule sets were derived by hand from the bundled grammar:
one rule per elementary tree, one empty-adjunction rule per symbol, so
3 + 4 + 6 = 13 rules before reduction.
"""

import pytest

from tagrtg.rtg import EPS_ADJOIN, EPS_SUBST, AlphabetError, erase_features, reduce_grammar
from tagrtg.rtg_io import format_rtg, parse_rtg
from tagrtg.tag import ElemTree, NodeKind, Tag, TreeNode, parse_tag
from tagrtg.features import parse_feature
from tagrtg.translate import lc_fbrtg, site_table, symbols, to_fbrtg

UNREDUCED = [
    "S_S -> caught(NP_S [top: [agr: ?x]], VP_A [top: [agr: ?x, mode: ind], bot: [mode: ppart]], NP_S)",
    "NP_S [top: ?t] -> cats(NP_A [top: ?t, bot: [agr: 3pl]])",
    "NP_S [top: ?t] -> fish(NP_A [top: ?t])",
    "NP_A [top: ?t, bot: [agr: ?x, const: -]] -> the(NP_A [top: ?t, bot: [agr: ?x, const: +, def: +]])",
    "NP_A [top: ?t, bot: [agr: 3sg, const: -]] -> a(NP_A [top: ?t, bot: [agr: 3sg, const: +, def: -]])",
    "NP_A [top: ?t, bot: [agr: 3pl, def: +]] -> one of(NP_A [top: ?t, bot: [agr: 3sg, const: +]], D_A, P_A, N_A)",
    "VP_A [top: ?t, bot: [mode: ppart]] -> has(VP_A [top: ?t, bot: [agr: 3sg, mode: ind]])",
    "S_A [top: ?v, bot: ?v] -> e_A",
    "NP_A [top: ?v, bot: ?v] -> e_A",
    "VP_A [top: ?v, bot: ?v] -> e_A",
    "D_A [top: ?v, bot: ?v] -> e_A",
    "P_A [top: ?v, bot: ?v] -> e_A",
    "N_A [top: ?v, bot: ?v] -> e_A",
]


def test_translation_is_one_rule_per_tree_plus_closures(fig2):
    grammar = to_fbrtg(fig2)
    grammar.validate()
    assert [str(r) for r in grammar.rules] == UNREDUCED


def test_symbol_alphabet_skips_anchors(fig2):
    assert symbols(fig2) == ("S", "NP", "VP", "D", "P", "N")


def test_nonterminals_and_terminals(fig2):
    grammar = to_fbrtg(fig2)
    assert grammar.axiom == "S_S"
    assert [str(nt) for nt in grammar.nonterminals] == [
        "S_S", "NP_S", "VP_S", "D_S", "P_S", "N_S",
        "S_A", "NP_A", "VP_A", "D_A", "P_A", "N_A",
    ]
    assert grammar.terminals == (
        ("a", 1), ("cats", 1), ("caught", 3), ("e_A", 0),
        ("fish", 1), ("has", 1), ("one of", 4), ("the", 1),
    )


def test_site_table_keeps_full_arity(fig2):
    table = dict(site_table(fig2))
    assert table["one of"].slot_kinds == ("adj", "adj", "adj", "adj")
    assert table["caught"].slot_kinds == ("subst", "adj", "subst")
    assert not table["caught"].root_active
    assert table["the"].tree_kind == "auxiliary"
    assert to_fbrtg(fig2).sites == site_table(fig2)


def test_reduction_reaches_the_frozen_grammar(fig2, feature_grammar):
    assert reduce_grammar(to_fbrtg(fig2)) == feature_grammar


def test_plain_translation_reduces_to_the_frozen_skeleton(fig2, plain_grammar):
    assert reduce_grammar(erase_features(to_fbrtg(fig2))) == plain_grammar


def test_plain_translation_is_the_erased_feature_translation(fig2):
    plain = erase_features(to_fbrtg(fig2))
    assert all(not r.lhs_feat and all(not feat for _, feat in r.rhs) for r in plain.rules)


def _anchor(word):
    return TreeNode(word, kind=NodeKind.ANCHOR)


def test_interface_variable_avoids_tree_variables():
    root = TreeNode(
        "NP",
        kind=NodeKind.ADJUNCTION,
        bot=parse_feature("[f: ?t]"),
        children=(_anchor("w"),),
    )
    tag = Tag("NP", (ElemTree("w", False, root),))
    rule = to_fbrtg(tag).rules[0]
    assert str(rule) == "NP_S [top: ?t0] -> w(NP_A [top: ?t0, bot: [f: ?t]])"


def test_inactive_root_keeps_its_own_top_constraint():
    root = TreeNode(
        "S",
        top=parse_feature("[m: pl]"),
        children=(
            _anchor("w"),
            TreeNode("NP", kind=NodeKind.SUBSTITUTION, top=parse_feature("[m: pl]")),
        ),
    )
    tag = Tag("S", (ElemTree("w", False, root),))
    rule = to_fbrtg(tag).rules[0]
    # No interface variable: the root hosts no adjunction, so nothing
    # on the right could share it.
    assert str(rule) == "S_S [top: [m: pl]] -> w(NP_S [top: [m: pl]])"


def test_inactive_auxiliary_root_exposes_only_the_foot():
    root = TreeNode(
        "VP",
        children=(
            _anchor("w"),
            TreeNode("VP", kind=NodeKind.FOOT, bot=parse_feature("[m: ind]")),
        ),
    )
    tag = Tag("S", (ElemTree("w", True, root),))
    rule = to_fbrtg(tag).rules[0]
    assert str(rule) == "VP_A [bot: [m: ind]] -> w"


def test_translation_validates_its_input():
    foot = TreeNode("NP", kind=NodeKind.FOOT)
    root = TreeNode("VP", kind=NodeKind.ADJUNCTION, children=(foot,))
    with pytest.raises(ValueError):
        Tag("S", (ElemTree("w", True, root),))


@pytest.mark.parametrize("form", [to_fbrtg, lc_fbrtg])
@pytest.mark.parametrize("name", [EPS_ADJOIN, EPS_SUBST])
def test_tree_names_cannot_be_empty_tree_terminals(form, name):
    # Legal in the TAG, but the tree's terminal would be the ε terminal.
    tag = parse_tag(f'start: S; initial {name} {{ (S kind=adj (word "w")) }}')
    with pytest.raises(AlphabetError, match=f"tree {name!r}"):
        form(tag)


def test_elementary_trees_deeper_than_the_recursion_limit():
    # S over a 5,000-deep X spine whose every other node hosts
    # adjunction, with an NP substitution site at the bottom.
    node = TreeNode("NP", kind=NodeKind.SUBSTITUTION)
    for depth in range(5000):
        kind = NodeKind.ADJUNCTION if depth % 2 else NodeKind.INTERNAL
        node = TreeNode("X", kind=kind, children=(node,))
    spine = TreeNode("S", children=(node, _anchor("w")))
    adjunct = TreeNode(
        "X", kind=NodeKind.ADJUNCTION, children=(_anchor("x"), TreeNode("X", kind=NodeKind.FOOT))
    )
    tag = Tag(
        "S",
        (
            ElemTree("t", False, spine),
            ElemTree("n", False, TreeNode("NP", children=(_anchor("n"),))),
            ElemTree("a", True, adjunct),
        ),
    )
    for build in (to_fbrtg, lc_fbrtg):
        grammar = reduce_grammar(build(tag))
        assert dict(grammar.terminals)["t"] == 2501
        assert parse_rtg(format_rtg(grammar)) == grammar
