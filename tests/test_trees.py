import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("text", ["", "f(", "f(a,)", "f(a))", "f(,a)", "(a)"])
def test_parse_rejects(text):
    with pytest.raises(TreeSyntaxError):
        parse_tree(text)


def test_size_and_height():
    tree = parse_tree(EXAMPLE)
    assert tree.size() == 10
    assert tree.height() == 5


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
    assert len(list(tree.positions())) == tree.size()
