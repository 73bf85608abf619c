"""Tree adjoining grammars with feature-structure decorated nodes.

Every node of an elementary tree carries a top and a bottom feature
term.  Adjunction and substitution sites are the active nodes; the rank
of a tree is their number.  Derivation trees are labelled with tree
names, so names double as ranked terminal symbols later on.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tagrtg.features import (
    TOP,
    Avm,
    FeatureSyntaxError,
    FeatureTerm,
    format_feature,
    is_top,
    parse_feature_at,
    unreadable_name,
)
from tagrtg.trees import ValueTree


class NodeKind(enum.Enum):
    ADJUNCTION = "adj"
    SUBSTITUTION = "subst"
    FOOT = "foot"
    ANCHOR = "anchor"
    INTERNAL = "internal"


ACTIVE_KINDS = (NodeKind.ADJUNCTION, NodeKind.SUBSTITUTION)


class TreeNode(ValueTree):
    __slots__ = ("label", "kind", "top", "bot", "children")

    def __init__(self, label: str, kind: NodeKind = NodeKind.INTERNAL, top: FeatureTerm = TOP,
                 bot: FeatureTerm = TOP, children: tuple[TreeNode, ...] = ()):
        for slot, value in zip(_SLOTS, (label, kind, top, bot, children)):
            slot.__set__(self, value)

    def _head(self) -> tuple:
        return self.label, self.kind, self.top, self.bot

    @property
    def is_active(self) -> bool:
        return self.kind in ACTIVE_KINDS

    def __str__(self) -> str:
        return _format_node(self)


_SLOTS = tuple(getattr(TreeNode, name) for name in TreeNode.__slots__)


@dataclass(frozen=True)
class ElemTree:
    name: str
    auxiliary: bool
    root: TreeNode

    def active_nodes(self) -> tuple[TreeNode, ...]:
        """The sites in preorder; for trees with an active root it comes first."""
        return tuple(node for node in self.root.nodes() if node.is_active)

    @property
    def root_active(self) -> bool:
        return self.root.is_active

    def foot(self) -> Optional[TreeNode]:
        for node in self.root.nodes():
            if node.kind is NodeKind.FOOT:
                return node
        return None


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
    TAG that breaks the tree-shape rules of `validate`, or whose names
    the `.tag` and `.rtg` formats cannot write and read back."""

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
            feet = [n for n in tree.root.nodes() if n.kind is NodeKind.FOOT]
            if tree.auxiliary:
                if len(feet) != 1:
                    raise ValidationError(f"auxiliary {where} needs exactly one foot node")
                if feet[0].label != tree.root.label:
                    raise ValidationError(f"{where}: foot label must match root label")
            elif feet:
                raise ValidationError(f"initial {where} cannot contain a foot node")
            for node in tree.root.nodes():
                fault = _node_fault(node, labels)
                if fault:
                    raise ValidationError(f"{where}, node {node.label!r}: {fault}")


def _node_fault(node: TreeNode, labels: set[str]) -> Optional[str]:
    """What breaks the rules at `node`, or None; `labels` holds the labels
    already checked, and gains this node's."""
    kind = node.kind
    if kind is NodeKind.ANCHOR:
        if '"' in node.label:
            return "an anchor word cannot contain '\"'"
    elif node.label not in labels:
        fault = _label_fault(node.label)
        if fault:
            return fault
        labels.add(node.label)
    if kind is NodeKind.INTERNAL or kind is NodeKind.ADJUNCTION:
        return None
    if node.children:
        return f"{kind.value} node must be a leaf"
    if kind is NodeKind.FOOT and not is_top(node.top):
        return "foot node carries only a bottom feature"
    if kind is NodeKind.SUBSTITUTION and not is_top(node.bot):
        return "substitution site carries only a top feature"
    if kind is NodeKind.ANCHOR and not (is_top(node.top) and is_top(node.bot)):
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
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
        elif text[pos] == "#":
            end = text.find("\n", pos)
            pos = len(text) if end < 0 else end
        else:
            break
    return pos


_STOP = _LABEL_DELIMITERS | frozenset(" \t\r\n")


def _word(text: str, pos: int) -> tuple[str, int]:
    start = pos
    while pos < len(text) and text[pos] not in _STOP:
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
    pos = 0
    while True:
        pos = _skip(text, pos)
        if pos >= len(text):
            break
        keyword, pos = _word(text, pos)
        if keyword == "start":
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
            root, pos = _parse_node(text, _skip(text, brace + 1))
            pos = _expect(text, pos, "}")
            trees.append(ElemTree(name, keyword == "auxiliary", root))
        else:
            _fail(text, pos, f"expected 'start', 'initial' or 'auxiliary', got {keyword!r}")
    if start is None:
        _fail(text, len(text), "missing start symbol")
    return Tag(start, tuple(trees))


_KINDS = {k.value: k for k in (NodeKind.ADJUNCTION, NodeKind.SUBSTITUTION, NodeKind.FOOT)}


def _parse_node(text: str, pos: int) -> tuple[TreeNode, int]:
    """One tree from its opening '(' on, in one loop that keeps each node
    whose ')' is still to come on a stack: its label, kind, top, bottom
    and the children read so far."""
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
            node = TreeNode(text[pos:end], NodeKind.ANCHOR)
            pos = _expect(text, end + 1, ")")
            if not stack:
                return node, pos
            stack[-1][4].append(node)
        else:
            stack.append([label, NodeKind.INTERNAL, TOP, TOP, []])
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
                    term, pos = parse_feature_at(text, pos)
                except FeatureSyntaxError as err:
                    _fail(text, err.position, str(err))
                stack[-1][2 if key == "top" else 3] = term
            else:
                _fail(text, pos, f"unknown attribute {key!r}")


def format_tag(tag: Tag) -> str:
    """The grammar as `.tag` text; a `ValidationError` if a feature holds
    a name that `parse_tag` would not read back as itself."""
    features = [term for tree in tag.trees for node in tree.root.nodes()
                for term in (node.top, node.bot)]
    if bad := unreadable_name(features):
        raise ValidationError(f"{bad} would not read back from a .tag file")
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
        elif node.kind is NodeKind.ANCHOR:
            parts.append(f'(word "{node.label}")')
        else:
            parts.append("(" + node.label)
            if node.kind is not NodeKind.INTERNAL:
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
