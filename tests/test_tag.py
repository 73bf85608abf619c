import pytest

from tagrtg.features import TOP, Atom, Avm, Var
from tagrtg.tag import (
    ElemTree,
    NodeKind,
    ParseError,
    Tag,
    TreeNode,
    ValidationError,
    bundled_grammar,
    format_tag,
    load_tag,
    parse_tag,
    save_tag,
)


@pytest.fixture(scope="module")
def fig2():
    return load_tag(bundled_grammar("fig2"))


def elem_tree(tag, name):
    return next(tree for tree in tag.trees if tree.name == name)


def test_bundled_grammar_loads(fig2):
    assert fig2.start == "S"
    assert [t.name for t in fig2.initials] == ["caught", "cats", "fish"]
    assert [t.name for t in fig2.auxiliaries] == ["the", "a", "one of", "has"]


def test_round_trip(fig2):
    assert parse_tag(format_tag(fig2)) == fig2


def test_active_nodes_in_preorder(fig2):
    caught = elem_tree(fig2, "caught")
    assert not caught.root_active
    sites = caught.active_nodes()
    assert [(n.label, n.kind) for n in sites] == [
        ("NP", NodeKind.SUBSTITUTION),
        ("VP", NodeKind.ADJUNCTION),
        ("NP", NodeKind.SUBSTITUTION),
    ]

    one_of = elem_tree(fig2, "one of")
    assert one_of.root_active
    assert [n.label for n in one_of.active_nodes()] == ["NP", "D", "P", "N"]


def test_features_land_on_the_right_nodes(fig2):
    caught = elem_tree(fig2, "caught")
    subject, vp, _ = caught.active_nodes()
    assert subject.top == Avm((("agr", Var("x")),))
    assert vp.top == Avm((("agr", Var("x")), ("mode", Atom("ind"))))
    assert vp.bot == Avm((("mode", Atom("ppart")),))

    the = elem_tree(fig2, "the")
    assert the.foot().bot == Avm((("agr", Var("x")), ("const", Atom("-"))))
    assert the.foot().top == TOP


def test_anchors_are_leaves_with_word_labels(fig2):
    anchors = [n.label for n in elem_tree(fig2, "one of").nodes() if n.kind is NodeKind.ANCHOR]
    assert anchors == ["one", "of"]


def test_comments_and_whitespace_are_skipped():
    tag = parse_tag("# heading\nstart: X; # trailing\ninitial t { (X kind=adj) }\n")
    assert tag.start == "X"
    assert len(elem_tree(tag, "t").active_nodes()) == 1


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_tag("start: S;\ninitial t { (X kind=nope) }\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text",
    [
        "initial t { (X) }",  # no start symbol
        "start: S; initial t { (X kind=foot) }",  # foot in initial tree
        "start: S; auxiliary t { (X (word \"w\")) }",  # no foot
        "start: S; auxiliary t { (X (Y kind=foot)) }",  # foot label mismatch
        "start: S; auxiliary t { (X (X kind=foot top=[a: b])) }",  # foot with top
        "start: S; initial t { (X (Y kind=subst (word \"w\"))) }",  # subst not a leaf
        "start: S; initial t { (X) } initial t { (X) }",  # duplicate name
        "start: S; initial t { (X (Y kind=subst bot=[a: b])) }",  # subst with bot
    ],
)
def test_validation_rejects(text):
    with pytest.raises((ValidationError, ParseError)):
        parse_tag(text)


def test_save_and_load(tmp_path, fig2):
    path = tmp_path / "copy.tag"
    save_tag(fig2, path)
    assert load_tag(path) == fig2


@pytest.mark.parametrize("term", ["a", "?x"])
def test_bare_last_attribute_of_a_childless_node_round_trips(tmp_path, term):
    tag = parse_tag(f'start: S;\ninitial t {{ (S (NP kind=subst top={term} ) (word "w")) }}')
    path = tmp_path / "bare.tag"
    save_tag(tag, path)
    assert load_tag(path) == tag


def test_format_tag_prints_trees_deeper_than_the_recursion_limit():
    # A 5,000-deep chain ending in a bare atom, which keeps its space
    # before the ')'.  The round trip compares text: TreeNode's generated
    # __eq__ recurses.
    node = TreeNode("NP", NodeKind.SUBSTITUTION, top=Atom("a"))
    for _ in range(5000):
        node = TreeNode("X", children=(node,))
    root = TreeNode("S", children=(node, TreeNode("w", NodeKind.ANCHOR)))
    text = format_tag(Tag("S", (ElemTree("t", False, root),)))
    chain = "(X " * 5000 + "(NP kind=subst top=a )" + ")" * 5000
    assert text == f'start: S;\ninitial t {{ (S {chain} (word "w")) }}\n'
    assert format_tag(parse_tag(text)) == text


@pytest.mark.parametrize("char", list("=/,;&()[]{}"))
def test_tree_names_cannot_hold_rtg_delimiters(char):
    root = TreeNode("S", children=(TreeNode("w", NodeKind.ANCHOR),))
    with pytest.raises(ValidationError, match="a tree name cannot contain"):
        Tag("S", (ElemTree(f"x{char}y", False, root),))


def test_tree_names_cannot_start_an_rtg_comment():
    root = TreeNode("S", children=(TreeNode("w", NodeKind.ANCHOR),))
    with pytest.raises(ValidationError, match="a tree name cannot start with '#'"):
        Tag("S", (ElemTree("#x", False, root),))


def test_manual_construction_matches_parse():
    tag = Tag(
        "X",
        (
            ElemTree(
                "t",
                False,
                TreeNode(
                    "X",
                    NodeKind.ADJUNCTION,
                    bot=Avm((("a", Atom("b")),)),
                    children=(TreeNode("w", NodeKind.ANCHOR),),
                ),
            ),
        ),
    )
    assert parse_tag('start: X;\ninitial t { (X kind=adj bot=[a: b] (word "w")) }') == tag
