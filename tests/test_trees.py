import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from oracles import tree_height, tree_size
from tagrtg.features import parse_feature
from tagrtg.tag import NodeKind, TreeNode

from tagrtg.trees import (
    ROOT,
    DerivTree,
    TreeSyntaxError,
    child_position,
    format_tree,
    parse_tree,
    to_dot,
)


EXAMPLE = "caught(cats(the(one of(e_A))), has(e_A), fish(a(e_A)))"


def test_parse_format_round_trip_on_example():
    tree = parse_tree(EXAMPLE)
    assert tree.label == "caught"
    assert [c.label for c in tree.children] == ["cats", "has", "fish"]
    assert tree.children[0].children[0].children[0].label == "one of"
    assert format_tree(tree) == EXAMPLE


def test_parse_ignores_extra_whitespace():
    assert parse_tree(" fish( a( e_A ) ) ") == parse_tree("fish(a(e_A))")
    assert parse_tree("one  of(e_A)").label == "one of"


def test_leaf_forms():
    assert parse_tree("e_A") == DerivTree("e_A")
    assert parse_tree("e_A()") == DerivTree("e_A")


def test_keyword_construction_and_defaults():
    assert DerivTree(label="f", children=(DerivTree("a"),)) == parse_tree("f(a)")
    assert DerivTree("a").children == ()
    top = parse_feature("[agr: ?x]")
    node = TreeNode(label="NP", kind=NodeKind.SUBSTITUTION, top=top, children=())
    assert node == TreeNode("NP", NodeKind.SUBSTITUTION, top)
    bare = TreeNode("X")
    assert (bare.kind, bare.top, bare.bot, bare.children) == (
        NodeKind.INTERNAL, TreeNode("Y").top, TreeNode("Y").bot, ()
    )


VALUES = [
    parse_tree(EXAMPLE),
    TreeNode(
        "S",
        NodeKind.ADJUNCTION,
        parse_feature("[mode: ind]"),
        parse_feature("[agr: ?x]"),
        (TreeNode("NP", NodeKind.SUBSTITUTION), TreeNode("w", NodeKind.ANCHOR)),
    ),
]


@pytest.mark.parametrize("tree", VALUES, ids=["DerivTree", "TreeNode"])
def test_trees_stay_values(tree):
    before = str(tree)
    for name in ("label", "children", "extra"):
        with pytest.raises(AttributeError):
            setattr(tree, name, ())
        with pytest.raises(AttributeError):
            delattr(tree, name)
    assert str(tree) == before
    assert not hasattr(tree, "__dict__")
    for other in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert type(other) is type(tree)
        assert other == tree and hash(other) == hash(tree)


REJECTED = {
    "": ("expected a label", 0),
    "(a)": ("expected a label", 0),
    "f(": ("expected a label", 2),
    "f(,a)": ("expected a label", 2),
    "  ": ("expected a label", 2),
    "f(a,)": ("expected a label", 4),
    "f(a))": ("trailing input", 4),
    "f(a)(b)": ("trailing input", 4),
    "f(a) b": ("trailing input", 5),
    "f(a": ("expected ',' or ')'", 3),
    "g(f(a)b)": ("expected ',' or ')'", 6),
}


@pytest.mark.parametrize("text", list(REJECTED))
def test_parse_rejects(text):
    message, position = REJECTED[text]
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree(text)
    assert str(err.value) == f"{message} (at offset {position})"
    assert err.value.position == position


def test_size_and_height():
    tree = parse_tree(EXAMPLE)
    assert len(list(tree.positions())) == 10
    assert tree_height(tree) == 5


def test_positions_are_gorn_addresses():
    tree = parse_tree(EXAMPLE)
    expected = [ROOT, "1", "1.1", "1.1.1", "1.1.1.1", "2", "2.1", "3", "3.1", "3.1.1"]
    assert [pos for pos, _ in tree.positions()] == expected


def test_child_position():
    assert child_position(ROOT, 2) == "2"
    assert child_position("1.3", 1) == "1.3.1"


def test_to_dot_lists_nodes_and_edges():
    dot = to_dot(parse_tree("fish(a(e_A))"), name="g0")
    assert dot.startswith("digraph g0 {")
    assert 'n0 [label="fish"];' in dot
    assert "n0 -> n1;" in dot
    assert "n1 -> n2;" in dot
    assert dot.endswith("}")


def test_to_dot_writes_each_edge_after_the_subtree_below_it():
    tree = DerivTree("f", (DerivTree('a"b', (DerivTree("b\\c"),)), DerivTree("c")))
    assert to_dot(tree, "g") == "\n".join([
        "digraph g {",
        "  node [shape=plaintext];",
        '  n0 [label="f"];',
        '  n1 [label="a\\"b"];',
        '  n2 [label="b\\\\c"];',
        "  n1 -> n2;",
        "  n0 -> n1;",
        '  n3 [label="c"];',
        "  n0 -> n3;",
        "}",
    ])


LABELS = ["caught", "one of", "e_A", "the", "x1"]


def tree_strategy():
    return st.recursive(
        st.builds(DerivTree, st.sampled_from(LABELS)),
        lambda children: st.builds(
            DerivTree,
            st.sampled_from(LABELS),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=8,
    )


@given(tree_strategy())
def test_round_trip(tree):
    assert parse_tree(format_tree(tree)) == tree


@given(tree_strategy())
def test_positions_count_matches_size(tree):
    assert len(list(tree.positions())) == tree_size(tree)


def test_deep_trees_parse_and_print():
    depth = 100_000
    text = "f(" * depth + "a" + ")" * depth
    tree = parse_tree(text)
    assert format_tree(tree) == text
    dot = to_dot(tree).splitlines()
    assert dot[2:4] == ['  n0 [label="f"];', '  n1 [label="f"];']
    assert dot[-3:] == ["  n1 -> n2;", "  n0 -> n1;", "}"]


def test_deep_trees_compare_and_hash():
    def chain(leaf):
        tree = DerivTree(leaf)
        for _ in range(100_000):
            tree = DerivTree("f", (tree,))
        return tree

    tree, same = chain("a"), chain("a")
    assert tree == same and hash(tree) == hash(same)
    assert tree != chain("b")
    assert "(a)" in repr(tree)
