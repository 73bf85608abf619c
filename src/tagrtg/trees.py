"""Ranked trees over string labels.

Derivation trees live here; elementary-tree nodes share their value
equality.  Positions are Gorn addresses written as dotted 1-based child
indices; the root is "ε", the second child of the first child is "1.2".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


ROOT = "ε"


def child_position(parent: str, index: int) -> str:
    return str(index) if parent == ROOT else f"{parent}.{index}"


class ValueTree:
    """Value equality, hashing, preorder and `repr` over explicit stacks,
    so that trees of any depth compare and print; `_head` is what a node
    holds besides its `children`."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:  # a shared subtree equals itself
                if a._head() != b._head() or len(a.children) != len(b.children):
                    return False
                pairs += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        # Each node's head and arity in preorder spell out the tree.
        return hash(tuple((node._head(), len(node.children)) for node in self.nodes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self}>"

    def nodes(self) -> Iterator[ValueTree]:
        """Preorder traversal, root first, over an explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.children)


@dataclass(frozen=True, eq=False, repr=False)
class DerivTree(ValueTree):
    label: str
    children: tuple[DerivTree, ...] = ()

    def _head(self) -> str:
        return self.label

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
    parts = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        parts.append(item.label)
        if item.children:
            stack.append(")")
            for child in reversed(item.children):
                stack += (child, ", ")
            stack[-1] = "("  # the first child follows "(", not ", "
    return "".join(parts)


# A delimiter with the whitespace around it, or the text up to the next
# delimiter.  The tokens cover the text without gaps.
_TOKEN = re.compile(r"\s*[(),]\s*|[^(),]+")


def parse_tree(text: str) -> DerivTree:
    """Parse `label(child, ...)` syntax; labels may contain spaces.

    One loop reads the tokens, with each node whose ")" is still to come
    on a stack as its label and the children read so far.
    """
    tokens = _TOKEN.findall(text) + [""]  # "" ends the input
    # Collapse runs of whitespace so "one  of" and "one of" agree.
    words = [" ".join(token.split()) for token in tokens]
    stack: list[tuple[str, list]] = [("", [])]  # the bottom frame receives the root
    i = 0
    while True:
        # A node: its label, then "(" or the end of the node.
        label = words[i]
        if label in "(),":  # empty (only space, or the end of input), or a delimiter
            error = "expected a label"
            break
        i += 1
        if words[i] == "(":
            stack.append((label, []))
            i += 1
            if words[i] != ")":
                continue
        else:
            stack[-1][1].append(DerivTree(label))
        # Close finished nodes up to the next "," or the end of input.
        while len(stack) > 1 and words[i] == ")":
            label, children = stack.pop()
            stack[-1][1].append(DerivTree(label, tuple(children)))
            i += 1
        if len(stack) == 1:
            if not words[i]:
                return stack[0][1][0]
            error = "trailing input"
            break
        if words[i] != ",":
            error = "expected ',' or ')'"
            break
        i += 1
    # The offset of the first non-space character from tokens[i] on.
    raise TreeSyntaxError(error, len(text) - len("".join(tokens[i:]).lstrip()))


def to_dot(tree: DerivTree, name: str = "tree") -> str:
    """Graphviz rendering, one digraph per tree."""
    lines = [f"digraph {name} {{", "  node [shape=plaintext];"]
    counter = 0
    stack: list = [(None, tree)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            lines.append(item)
            continue
        parent, node = item
        ident = counter
        counter += 1
        label = node.label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{ident} [label="{label}"];')
        if parent is not None:
            stack.append(f"  n{parent} -> n{ident};")  # after the subtree
        for child in reversed(node.children):
            stack.append((ident, child))
    lines.append("}")
    return "\n".join(lines)
