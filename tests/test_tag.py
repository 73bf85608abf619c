import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st
from inputs import replicate_text

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
    bundled_grammar,
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
    sites = caught.walk.sites
    assert [(n.label, n.kind) for n in sites] == [
        ("NP", NodeKind.SUBSTITUTION),
        ("VP", NodeKind.ADJUNCTION),
        ("NP", NodeKind.SUBSTITUTION),
    ]

    one_of = elem_tree(fig2, "one of")
    assert one_of.root_active
    assert [n.label for n in one_of.walk.sites] == ["NP", "D", "P", "N"]


def test_features_land_on_the_right_nodes(fig2):
    caught = elem_tree(fig2, "caught")
    subject, vp, _ = caught.walk.sites
    assert subject.top == Avm((("agr", Var("x")),))
    assert vp.top == Avm((("agr", Var("x")), ("mode", Atom("ind"))))
    assert vp.bot == Avm((("mode", Atom("ppart")),))

    the = elem_tree(fig2, "the")
    assert the.walk.foot.bot == Avm((("agr", Var("x")), ("const", Atom("-"))))
    assert the.walk.foot.top == TOP


def test_anchors_are_leaves_with_word_labels(fig2):
    root = elem_tree(fig2, "one of").root
    anchors = [n.label for n in root.nodes() if n.kind is NodeKind.ANCHOR]
    assert anchors == ["one", "of"]


# Every character other than space, tab, CR and LF that `str.isspace`
# accepts, and a comment: the reader skips each as a blank.
OTHER_BLANKS = ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "# c\n"]
# The TAG-level places where the reader skips blanks, marked by "|":
# after '{', '(', ')', ';', ':' and 'kind=', and before '}'.  Feature
# terms hold none, since '#' is an atom character there.
MARKED_TAG = 'start:|X;|initial t {|(|X kind=|adj top=[a: b] (|word "w")|)|}|'


def test_comments_and_whitespace_are_skipped():
    tag = parse_tag("# heading\nstart: X; # trailing\ninitial t { (X kind=adj) }\n")
    assert tag.start == "X"
    assert len(elem_tree(tag, "t").walk.sites) == 1
    plain = parse_tag(MARKED_TAG.replace("|", " "))
    assert all(c.isspace() for c in OTHER_BLANKS[:-1])
    for blank in OTHER_BLANKS:
        assert parse_tag(MARKED_TAG.replace("|", blank)) == plain, repr(blank)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_tag("start: S;\ninitial t { (X kind=nope) }\n")
    assert err.value.line == 2


# The first fault of each text, as its exception's type and message.
REJECTED = [
    ("initial t { (X) }", ParseError, "missing start symbol (line 1, column 18)"),
    ("start: S; start: T; initial t { (T kind=adj) }", ParseError,
     "duplicate start symbol (line 1, column 11)"),
    ("start: S; initial t { (X kind=foot) }", ValidationError,
     "initial tree 't' cannot contain a foot node"),
    ('start: S; auxiliary t { (X (word "w")) }', ValidationError,
     "auxiliary tree 't' needs exactly one foot node"),
    ("start: S; auxiliary t { (X (Y kind=foot)) }", ValidationError,
     "tree 't': foot label must match root label"),
    ("start: S; auxiliary t { (X (X kind=foot top=[a: b])) }", ValidationError,
     "tree 't', node 'X': foot node carries only a bottom feature"),
    ('start: S; initial t { (X (Y kind=subst (word "w"))) }', ValidationError,
     "tree 't', node 'Y': subst node must be a leaf"),
    ("start: S; initial t { (X) } initial t { (X) }", ValidationError, "duplicate tree 't'"),
    ("start: S; initial t { (X (Y kind=subst bot=[a: b])) }", ValidationError,
     "tree 't', node 'Y': substitution site carries only a top feature"),
    # A fault in the feet is reported before a node's, even one that
    # comes first in preorder.
    ("start: S; auxiliary t { (X (Y kind=subst bot=[a: b]) (Z kind=foot)) }",
     ValidationError, "tree 't': foot label must match root label"),
    ("start: S; initial t { (X (Y kind=subst bot=[a: b]) (X kind=foot)) }",
     ValidationError, "initial tree 't' cannot contain a foot node"),
    # The reader's shared AVMs fail as a plain read does: an unclosed AVM,
    # with and without a later ']' that closes the bracket count; a
    # duplicate attribute in an AVM text that recurs; stray non-ASCII
    # blanks before a term.
    ("start: S; initial t { (X top=[a: b (Y top=[c: d])) }", ParseError,
     "expected ',' or ']' (at offset 35) (line 1, column 36)"),
    ("start: S; initial t { (X top=[a: b (Y top=[c: d])]) }", ParseError,
     "expected ',' or ']' (at offset 35) (line 1, column 36)"),
    ('start: S;\ninitial t { (X bot=[a: b, a: c] (Y kind=adj bot=[a: b, a: c]) (word "w")) }',
     ParseError, "duplicate attribute 'a' (at offset 40) (line 2, column 31)"),
    ("start: S;\ninitial t { (X top= [a: b] bot=\xa0\u3000[a: b c]) }", ParseError,
     "expected ',' or ']' (at offset 49) (line 2, column 40)"),
]


@pytest.mark.parametrize("text, error, message", REJECTED, ids=[row[0] for row in REJECTED])
def test_validation_rejects(text, error, message):
    with pytest.raises(error) as err:
        parse_tag(text)
    assert type(err.value) is error and str(err.value) == message


def test_a_read_shares_each_distinct_avm_and_no_avm_with_another_read():
    text = replicate_text(bundled_grammar("fig2").read_text(), 10)

    def avms(tag):
        return [term for tree in tag.trees for node in tree.walk.nodes
                for term in (node.top, node.bot) if isinstance(term, Avm)]

    first, again = avms(parse_tag(text)), avms(parse_tag(text))
    ids = {id(term) for term in first}
    assert len(ids) == len(set(first)) < len(first)  # equal AVMs are one object
    assert ids & {id(term) for term in again} == {id(TOP)}


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


def test_writer_refuses_feature_names_that_would_not_read_back():
    # A `Tag` refuses such a name when it is built, so the writer never
    # meets one; the name may sit in any tree, at any depth of a term.
    good = TreeNode("S", children=(TreeNode("w", NodeKind.ANCHOR),))
    for term, refused in [
        (Atom("a b"), "atom 'a b'"),
        (Avm((("agr", Var("x]")),)), "variable 'x]'"),
        (Avm((("agr", Avm((("a:b", Atom("x")),))),)), "attribute 'a:b'"),
    ]:
        site = TreeNode("NP", NodeKind.SUBSTITUTION, top=term)
        trees = (ElemTree("s", False, good), ElemTree("t", False, TreeNode("S", children=(site,))))
        with pytest.raises(ValidationError) as err:
            Tag("S", trees)
        assert str(err.value) == f"{refused} would not read back from a .tag file"


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


def test_the_walk_is_not_part_of_the_value():
    tree = ElemTree("t", False, TreeNode("S", children=(TreeNode("w", NodeKind.ANCHOR),)))
    unwalked = pickle.dumps(tree)
    assert [node.label for node in tree.walk.nodes] == ["S", "w"]
    assert pickle.dumps(tree) == unwalked and "walk" not in repr(tree)
    for again in (pickle.loads(unwalked), copy.copy(tree), copy.deepcopy(tree)):
        assert again == tree and hash(again) == hash(tree) and "walk" not in vars(again)
        assert again.walk == tree.walk


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
