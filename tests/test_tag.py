import pytest
from hypothesis import given, settings, strategies as st

from tagrtg.features import TOP, Atom, Avm, Var
from tagrtg.rtg import GrammarError, reduce_grammar
from tagrtg.rtg_io import format_rtg, parse_rtg
from tagrtg.tag import (
    ElemTree,
    NodeKind,
    ParseError,
    Tag,
    TreeNode,
    ValidationError,
    format_tag,
    load_tag,
    parse_tag,
    save_tag,
)
from tagrtg.translate import lc_fbrtg, to_fbrtg


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
    root = elem_tree(fig2, "one of").root
    anchors = [n.label for n in root.nodes() if n.kind is NodeKind.ANCHOR]
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


def test_load_names_the_line_and_column_of_a_byte_that_is_not_utf8(tmp_path):
    # Line 3 follows a Windows and an old Mac line end.
    path = tmp_path / "bad.tag"
    path.write_bytes(b'start: S;\r\ninitial t\r{ (S (w\xc3 "w")) }')
    with pytest.raises(ParseError, match=r"^byte 0xc3 is not UTF-8 \(line 3, column 8\)$"):
        load_tag(path)


@pytest.mark.parametrize("term", ["a", "?x"])
def test_bare_last_attribute_of_a_childless_node_round_trips(tmp_path, term):
    tag = parse_tag(f'start: S;\ninitial t {{ (S (NP kind=subst top={term} ) (word "w")) }}')
    path = tmp_path / "bare.tag"
    save_tag(tag, path)
    assert load_tag(path) == tag


def test_writer_refuses_feature_names_that_would_not_read_back(tmp_path):
    site = TreeNode("NP", NodeKind.SUBSTITUTION, top=Atom("a b"))
    tag = Tag("S", (ElemTree("t", False, TreeNode("S", children=(site,))),))
    path = tmp_path / "out.tag"
    with pytest.raises(ValidationError) as err:
        save_tag(tag, path)
    assert str(err.value) == "atom 'a b' would not read back from a .tag file"
    assert not path.exists()  # formatted before the file is opened


def test_format_tag_prints_trees_deeper_than_the_recursion_limit():
    # A 5,000-deep chain ending in a bare atom, which keeps its space
    # before the ')'.
    node = TreeNode("NP", NodeKind.SUBSTITUTION, top=Atom("a"))
    for _ in range(5000):
        node = TreeNode("X", children=(node,))
    root = TreeNode("S", children=(node, TreeNode("w", NodeKind.ANCHOR)))
    tag = Tag("S", (ElemTree("t", False, root),))
    text = format_tag(tag)
    chain = "(X " * 5000 + "(NP kind=subst top=a )" + ")" * 5000
    assert text == f'start: S;\ninitial t {{ (S {chain} (word "w")) }}\n'
    assert format_tag(parse_tag(text)) == text
    assert parse_tag(text) == tag


def test_deep_elementary_trees_compare_and_hash():
    def chain(leaf):
        node = TreeNode(leaf)
        for _ in range(5000):
            node = TreeNode("X", children=(node,))
        return node

    node, same = chain("a"), chain("a")
    assert node == same and hash(node) == hash(same)
    assert node != chain("b")
    assert "(a)" in repr(node)


@pytest.mark.parametrize("char", list("=/,;&()[]{}"))
def test_tree_names_cannot_hold_rtg_delimiters(char):
    root = TreeNode("S", children=(TreeNode("w", NodeKind.ANCHOR),))
    with pytest.raises(ValidationError, match="a tree name cannot contain"):
        Tag("S", (ElemTree(f"x{char}y", False, root),))


def test_tree_names_cannot_start_an_rtg_comment():
    root = TreeNode("S", children=(TreeNode("w", NodeKind.ANCHOR),))
    with pytest.raises(ValidationError, match="a tree name cannot start with '#'"):
        Tag("S", (ElemTree("#x", False, root),))


def _one_tree_tag(start="S", name="t", label="NP", word="w"):
    site = TreeNode(label, NodeKind.SUBSTITUTION)
    root = TreeNode("S", children=(site, TreeNode(word, NodeKind.ANCHOR)))
    return Tag(start, (ElemTree(name, False, root),))


@pytest.mark.parametrize(
    "fields, message",
    [
        *(
            ({"label": label}, f"tree 't', node {label!r}: a label cannot")
            for label in [
                "A->B", "A\xa0B", "A\x0bB", "A\u2003B", "A\x0cB", "A\x1cB", "A\x85B",
                "A B", "", "word", "A(B", "A:B", "A#B", 'A"B', "A=B", "A[B",
            ]
        ),
        ({"word": 'say "hi"'}, """tree 't', node 'say "hi"': an anchor word cannot contain '"'"""),
        *(
            ({"name": name}, f"tree {name!r}: a tree name is words joined by single spaces")
            for name in ["", " t", "t ", "one  of", "one\xa0of", "one\tof", "one\x85of"]
        ),
        ({"start": "S->T"}, "start symbol 'S->T': a label cannot contain '->'"),
        ({"start": "S\u2003"}, "start symbol 'S\\u2003': a label cannot contain '\\u2003'"),
    ],
)
def test_validation_rejects_names_the_formats_cannot_read_back(fields, message):
    with pytest.raises(ValidationError) as err:
        _one_tree_tag(**fields)
    assert str(err.value).startswith(message)


# Half of the characters come from the delimiters of the two file formats.
NAMES = st.text(
    st.one_of(st.sampled_from("ab"), st.sampled_from('->#"(; \xa0\x0b')), min_size=1, max_size=3
)
FEATURES = st.sampled_from([TOP, Avm((("agr", Var("x")),)), Avm((("agr", Atom("3sg")),))])


@st.composite
def tag_fields(draw):
    """A start symbol and up to three trees, with names, labels and
    anchor words drawn from `NAMES`; the start symbol and the trees share
    up to three labels."""
    labels = st.sampled_from(draw(st.lists(NAMES, min_size=1, max_size=3)))
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        auxiliary = draw(st.booleans())
        label = draw(labels)
        kids = [
            TreeNode(draw(labels), NodeKind.SUBSTITUTION, top=draw(FEATURES))
            if draw(st.booleans())
            else TreeNode(draw(labels), NodeKind.ADJUNCTION, draw(FEATURES), draw(FEATURES))
            for _ in range(draw(st.integers(0, 2)))
        ]
        kids.append(TreeNode(draw(NAMES), NodeKind.ANCHOR))
        if auxiliary:
            kids.append(TreeNode(label, NodeKind.FOOT, bot=draw(FEATURES)))
        kind = draw(st.sampled_from([NodeKind.ADJUNCTION, NodeKind.INTERNAL]))
        root = TreeNode(label, kind, draw(FEATURES), draw(FEATURES), tuple(kids))
        trees.append(ElemTree(draw(NAMES), auxiliary, root))
    return draw(labels), tuple(trees)


@settings(max_examples=400)
@given(tag_fields())
def test_every_valid_tag_and_its_grammars_read_back(fields):
    try:
        tag = Tag(*fields)
    except ValidationError:
        return
    assert parse_tag(format_tag(tag)) == tag
    grammars = [to_fbrtg(tag)]
    try:
        grammars.append(lc_fbrtg(tag))
    except GrammarError:
        pass
    for grammar in grammars:
        for form in (grammar, reduce_grammar(grammar)):
            assert parse_rtg(format_rtg(form)) == form


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
