"""Tree adjoining grammars with feature-structure decorated nodes.

Every node of an elementary tree carries a top and a bottom feature
term.  Adjunction and substitution sites are the active nodes; the rank
of a tree is their number.  Derivation trees are labelled with tree
names, so names double as ranked terminal symbols later on.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from tagrtg.features import (
    TOP,
    Avm,
    FeatureSyntaxError,
    FeatureTerm,
    format_feature,
    is_top,
    parse_feature_at,
    unreadable_name,
    variables,
)
from tagrtg.trees import ValueTree


class NodeKind(enum.Enum):
    ADJUNCTION = "adj"
    SUBSTITUTION = "subst"
    FOOT = "foot"
    ANCHOR = "anchor"
    INTERNAL = "internal"


ACTIVE_KINDS = (NodeKind.ADJUNCTION, NodeKind.SUBSTITUTION)
# The members as globals, for the loops that run once per node: reading
# a member off the Enum class takes about ten times as long (Python 3.11).
_ADJUNCTION, _SUBSTITUTION, _FOOT, _ANCHOR, _INTERNAL = (
    NodeKind.ADJUNCTION, NodeKind.SUBSTITUTION, NodeKind.FOOT, NodeKind.ANCHOR, NodeKind.INTERNAL
)


class TreeNode(ValueTree):
    __slots__ = ("label", "kind", "top", "bot", "children")

    def __init__(self, label: str, kind: NodeKind = NodeKind.INTERNAL, top: FeatureTerm = TOP,
                 bot: FeatureTerm = TOP, children: tuple[TreeNode, ...] = ()):
        _set_label(self, label)
        _set_kind(self, kind)
        _set_top(self, top)
        _set_bot(self, bot)
        _set_children(self, children)

    def _head(self) -> tuple:
        return self.label, self.kind, self.top, self.bot

    @property
    def is_active(self) -> bool:
        return self.kind in ACTIVE_KINDS

    def __str__(self) -> str:
        return _format_node(self)


_set_label, _set_kind, _set_top, _set_bot, _set_children = (
    getattr(TreeNode, name).__set__ for name in TreeNode.__slots__
)


class TreeWalk(NamedTuple):
    """What one preorder walk of an elementary tree finds."""

    nodes: tuple[TreeNode, ...]  # root first
    sites: tuple[TreeNode, ...]  # the active nodes; an active root comes first
    foot: Optional[TreeNode]  # the foot node of an auxiliary tree, or None
    features: tuple[FeatureTerm, ...]  # the distinct top and bottom objects, top left out
    variables: frozenset[str]  # the variables of every top and bottom


@dataclass(frozen=True)
class ElemTree:
    """An elementary tree.  Validation, the translation and the writers
    read its nodes from `walk`, the one preorder walk of the tree."""

    name: str
    auxiliary: bool
    root: TreeNode

    def __reduce__(self):
        # Copies and pickles leave the walk behind; a copy makes its own.
        return ElemTree, (self.name, self.auxiliary, self.root)

    @functools.cached_property
    def walk(self) -> TreeWalk:
        """Built on first use; not a field, so equality, hashing, repr,
        copies, pickles and dataclasses.replace ignore it."""
        nodes = tuple(self.root.nodes())
        sites = tuple([node for node in nodes if node.kind in ACTIVE_KINDS])
        feet = [node for node in nodes if node.kind is _FOOT]
        # A term the reader shared between nodes is walked once.
        distinct = {id(term): term for node in nodes for term in (node.top, node.bot)}
        features = tuple([term for term in distinct.values() if not is_top(term)])
        used = frozenset().union(*[variables(term) for term in features])
        return TreeWalk(nodes, sites, feet[0] if feet else None, features, used)

    @property
    def root_active(self) -> bool:
        return self.root.is_active


class ValidationError(ValueError):
    pass


# A tree name becomes a terminal of the `.rtg` file, whose lines these
# characters delimit; a leading '#' would make its site line a comment.
_NAME_DELIMITERS = frozenset("=/,;&()[]{}")
# A label becomes a nonterminal, which ends at whitespace, a comma, a
# parenthesis or '->' in a `.rtg` rule; the `.tag` reader ends it at any
# of these characters.
_LABEL_DELIMITERS = frozenset('():;{}=",#[]')


def _label_fault(label: str) -> Optional[str]:
    """Why a label or start symbol cannot be written and read back, or None."""
    if not label or label == "word":
        return f"a label cannot be {label!r}"
    for ch in label:
        if ch.isspace() or ch in _LABEL_DELIMITERS:
            return f"a label cannot contain {ch!r}"
    if "->" in label:
        return "a label cannot contain '->'"
    return None


@dataclass(frozen=True)
class Tag:
    """A validated grammar: construction raises `ValidationError` on a
    TAG that breaks the tree-shape rules of `validate`, or whose names,
    feature names included, the `.tag` and `.rtg` formats cannot write
    and read back."""

    start: str
    trees: tuple[ElemTree, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def initials(self) -> tuple[ElemTree, ...]:
        return tuple(t for t in self.trees if not t.auxiliary)

    @property
    def auxiliaries(self) -> tuple[ElemTree, ...]:
        return tuple(t for t in self.trees if t.auxiliary)

    def validate(self) -> None:
        fault = _label_fault(self.start)
        if fault:
            raise ValidationError(f"start symbol {self.start!r}: {fault}")
        names: set[str] = set()
        labels = {self.start}
        for tree in self.trees:
            where = f"tree {tree.name!r}"
            if tree.name in names:
                raise ValidationError(f"duplicate {where}")
            if not tree.name or tree.name != " ".join(tree.name.split()):
                raise ValidationError(f"{where}: a tree name is words joined by single spaces")
            bad = [c for c in tree.name if c in _NAME_DELIMITERS]
            if bad:
                raise ValidationError(f"{where}: a tree name cannot contain {bad[0]!r}")
            if tree.name.startswith("#"):
                raise ValidationError(f"{where}: a tree name cannot start with '#'")
            names.add(tree.name)
            # One loop finds the feet and the first node at fault; a
            # fault in the feet is reported first.
            feet = []
            bad = None
            for node in tree.walk.nodes:
                if node.kind is _FOOT:
                    feet.append(node)
                if bad is None and (fault := _node_fault(node, labels)):
                    bad = f"{where}, node {node.label!r}: {fault}"
            if tree.auxiliary:
                if len(feet) != 1:
                    raise ValidationError(f"auxiliary {where} needs exactly one foot node")
                if feet[0].label != tree.root.label:
                    raise ValidationError(f"{where}: foot label must match root label")
            elif feet:
                raise ValidationError(f"initial {where} cannot contain a foot node")
            if bad:
                raise ValidationError(bad)
        if bad := unreadable_name(term for tree in self.trees for term in tree.walk.features):
            raise ValidationError(f"{bad} would not read back from a .tag file")


def _node_fault(node: TreeNode, labels: set[str]) -> Optional[str]:
    """What breaks the rules at `node`, or None; `labels` holds the labels
    already checked, and gains this node's."""
    kind = node.kind
    if kind is _ANCHOR:
        if '"' in node.label:
            return "an anchor word cannot contain '\"'"
    elif node.label not in labels:
        fault = _label_fault(node.label)
        if fault:
            return fault
        labels.add(node.label)
    if kind is _INTERNAL or kind is _ADJUNCTION:
        return None
    if node.children:
        return f"{kind.value} node must be a leaf"
    if kind is _FOOT and not is_top(node.top):
        return "foot node carries only a bottom feature"
    if kind is _SUBSTITUTION and not is_top(node.bot):
        return "substitution site carries only a top feature"
    if kind is _ANCHOR and not (is_top(node.top) and is_top(node.bot)):
        return "anchor carries no features"
    return None


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _fail(text: str, pos: int, message: str) -> None:
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    raise ParseError(message, line, col)


def _skip(text: str, pos: int) -> int:
    """The position of the next character that is neither blank nor in a
    comment; blank is what `str.isspace` accepts."""
    while True:
        ch = text[pos:pos + 1]
        if ch == "#":
            end = text.find("\n", pos)
            pos = len(text) if end < 0 else end
        elif ch.isspace():
            pos += 1
        else:
            return pos  # a character to read, or the end of the text


_STOP = _LABEL_DELIMITERS | frozenset(" \t\r\n")


def _word(text: str, pos: int) -> tuple[str, int]:
    start, end = pos, len(text)
    while pos < end and text[pos] not in _STOP:
        pos += 1
    if pos == start:
        _fail(text, pos, "expected a name")
    return text[start:pos], pos


def _expect(text: str, pos: int, ch: str) -> int:
    pos = _skip(text, pos)
    if pos >= len(text) or text[pos] != ch:
        _fail(text, pos, f"expected {ch!r}")
    return pos + 1


def parse_tag(text: str) -> Tag:
    start: Optional[str] = None
    trees: list[ElemTree] = []
    shared: dict = {}  # each distinct AVM text of this file, read once
    pos = 0
    while True:
        pos = _skip(text, pos)
        if pos >= len(text):
            break
        at = pos
        keyword, pos = _word(text, pos)
        if keyword == "start":
            if start is not None:
                _fail(text, at, "duplicate start symbol")
            pos = _expect(text, pos, ":")
            pos = _skip(text, pos)
            start, pos = _word(text, pos)
            pos = _expect(text, pos, ";")
        elif keyword in ("initial", "auxiliary"):
            brace = text.find("{", pos)
            if brace < 0:
                _fail(text, pos, "expected '{'")
            name = " ".join(text[pos:brace].split())
            if not name:
                _fail(text, pos, "expected a tree name")
            root, pos = _parse_node(text, _skip(text, brace + 1), shared)
            pos = _expect(text, pos, "}")
            trees.append(ElemTree(name, keyword == "auxiliary", root))
        else:
            _fail(text, pos, f"expected 'start', 'initial' or 'auxiliary', got {keyword!r}")
    if start is None:
        _fail(text, len(text), "missing start symbol")
    return Tag(start, tuple(trees))


_KINDS = {k.value: k for k in (NodeKind.ADJUNCTION, NodeKind.SUBSTITUTION, NodeKind.FOOT)}


def _parse_node(text: str, pos: int, shared: dict) -> tuple[TreeNode, int]:
    """One tree from its opening '(' on, in one loop that keeps each node
    whose ')' is still to come on a stack: its label, kind, top, bottom
    and the children read so far.  AVMs are read through `shared`, the
    file's table of `parse_feature_at`."""
    stack: list[list] = []
    pos = _expect(text, pos, "(")
    while True:
        # Just past a '(': the node's label.
        pos = _skip(text, pos)
        label, pos = _word(text, pos)
        if label == "word":
            pos = _expect(text, pos, '"')
            end = text.find('"', pos)
            if end < 0:
                _fail(text, pos, "unterminated word")
            node = TreeNode(text[pos:end], _ANCHOR)
            pos = _expect(text, end + 1, ")")
            if not stack:
                return node, pos
            stack[-1][4].append(node)
        else:
            stack.append([label, _INTERNAL, TOP, TOP, []])
        # The open node's attributes and closed children, up to a child's '('.
        while True:
            pos = _skip(text, pos)
            if pos >= len(text):
                _fail(text, pos, "unterminated node")
            if text[pos] == "(":
                pos += 1
                break
            if text[pos] == ")":
                pos += 1
                label, kind, top, bot, children = stack.pop()
                node = TreeNode(label, kind, top, bot, tuple(children))
                if not stack:
                    return node, pos
                stack[-1][4].append(node)
                continue
            key, pos = _word(text, pos)
            pos = _expect(text, pos, "=")
            if key == "kind":
                pos = _skip(text, pos)
                value, pos = _word(text, pos)
                if value not in _KINDS:
                    _fail(text, pos, f"unknown node kind {value!r}")
                stack[-1][1] = _KINDS[value]
            elif key in ("top", "bot"):
                try:
                    term, pos = parse_feature_at(text, pos, shared)
                except FeatureSyntaxError as err:
                    _fail(text, err.position, str(err))
                stack[-1][2 if key == "top" else 3] = term
            else:
                _fail(text, pos, f"unknown attribute {key!r}")


def format_tag(tag: Tag) -> str:
    """The grammar as `.tag` text, which `parse_tag` reads back as `tag`."""
    lines = [f"start: {tag.start};"]
    for tree in tag.trees:
        keyword = "auxiliary" if tree.auxiliary else "initial"
        lines.append(f"{keyword} {tree.name} {{ {_format_node(tree.root)} }}")
    return "\n".join(lines) + "\n"


def _format_node(root: TreeNode) -> str:
    parts = []
    stack: list = [root]  # nodes still to print, and the text that closes them
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif node.kind is _ANCHOR:
            parts.append(f'(word "{node.label}")')
        else:
            parts.append("(" + node.label)
            if node.kind is not _INTERNAL:
                parts.append(f" kind={node.kind.value}")
            last = None
            for name, value in (("top", node.top), ("bot", node.bot)):
                if not is_top(value):
                    parts.append(f" {name}={format_feature(value)}")
                    last = value
            # A bare atom or variable would read on into the ')'.
            bare = last is not None and not node.children and not isinstance(last, Avm)
            stack.append(" )" if bare else ")")
            for child in reversed(node.children):
                stack += (child, " ")
    return "".join(parts)


def load_tag(path: str | Path) -> Tag:
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    if bad := re.search("[\udc80-\udcff]", text):  # a byte that is not UTF-8
        _fail(text, bad.start(), f"byte 0x{ord(bad[0]) - 0xdc00:02x} is not UTF-8")
    return parse_tag(text)


def save_tag(tag: Tag, path: str | Path) -> None:
    Path(path).write_text(format_tag(tag), encoding="utf-8")


def bundled_grammar(name: str) -> Path:
    """Path of a grammar file shipped with the package."""
    return Path(__file__).parent / "grammars" / f"{name}.tag"
