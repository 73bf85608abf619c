"""Ranked trees over string labels.

Derivation trees and sentential forms both live here.  Positions are
Gorn addresses written as dotted 1-based child indices; the root is
"ε", the second child of the first child is "1.2".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


ROOT = "ε"


def child_position(parent: str, index: int) -> str:
    return str(index) if parent == ROOT else f"{parent}.{index}"


@dataclass(frozen=True)
class DerivTree:
    label: str
    children: tuple[DerivTree, ...] = ()

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def height(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.height() for child in self.children)

    def positions(self) -> Iterator[tuple[str, DerivTree]]:
        """Preorder traversal as (gorn address, subtree) pairs."""
        stack = [(ROOT, self)]
        while stack:
            pos, node = stack.pop()
            yield pos, node
            indexed = list(enumerate(node.children, start=1))
            for index, child in reversed(indexed):
                stack.append((child_position(pos, index), child))

    def __str__(self) -> str:
        return format_tree(self)


class TreeSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def format_tree(tree: DerivTree) -> str:
    if not tree.children:
        return tree.label
    inner = ", ".join(format_tree(child) for child in tree.children)
    return f"{tree.label}({inner})"


def parse_tree(text: str) -> DerivTree:
    """Parse `label(child, ...)` syntax; labels may contain spaces."""
    tree, pos = _parse_node(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise TreeSyntaxError("trailing input", pos)
    return tree


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_label(text, pos):
    start = pos
    while pos < len(text) and text[pos] not in "(),":
        pos += 1
    # Collapse runs of whitespace so "one  of" and "one of" agree.
    label = " ".join(text[start:pos].split())
    if not label:
        raise TreeSyntaxError("expected a label", start)
    return label, pos


def _parse_node(text, pos):
    pos = _skip_ws(text, pos)
    label, pos = _parse_label(text, pos)
    if pos < len(text) and text[pos] == "(":
        pos = _skip_ws(text, pos + 1)
        if pos < len(text) and text[pos] == ")":
            return DerivTree(label), pos + 1
        children = []
        while True:
            child, pos = _parse_node(text, pos)
            children.append(child)
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            if pos < len(text) and text[pos] == ")":
                return DerivTree(label, tuple(children)), pos + 1
            raise TreeSyntaxError("expected ',' or ')'", pos)
    return DerivTree(label), pos


def to_dot(tree: DerivTree, name: str = "tree") -> str:
    """Graphviz rendering, one digraph per tree."""
    lines = [f"digraph {name} {{", "  node [shape=plaintext];"]
    counter = 0
    def walk(node: DerivTree) -> int:
        nonlocal counter
        ident = counter
        counter += 1
        label = node.label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{ident} [label="{label}"];')
        for child in node.children:
            child_ident = walk(child)
            lines.append(f"  n{ident} -> n{child_ident};")
        return ident
    walk(tree)
    lines.append("}")
    return "\n".join(lines)
