"""Seeded input generators.

Every generator takes an explicit seed or `random.Random`, so the same
benchmark seed gives the same inputs.  The program only ever sees what
these functions return: TAG source text, grammars built from its public
data types, and derivation trees.
"""

from __future__ import annotations

import random
import re

from tagrtg.features import TOP, Atom, Avm, Var
from tagrtg.rtg import FbRtg, FbRule, Nonterminal
from tagrtg.tag import ElemTree, NodeKind, Tag, TreeNode
from tagrtg.trees import DerivTree

GOOD_TREE = "caught(cats(the(one of(e_A))), has(e_A), fish(a(e_A)))"
FLIPPED_TREE = "caught(cats(one of(the(e_A))), has(e_A), fish(a(e_A)))"
# Criterion 4 of the acceptance suite: rejected trees and the address
# at which the standard feature grammar gives up.
REJECTED_TREES = (
    ("caught(cats(the(e_A)), has(e_A), fish(a(e_A)))", "2.1"),
    ("caught(cats(a(e_A)), has(e_A), fish(a(e_A)))", "1.1"),
    ("caught(cats(the(one of(e_A))), e_A, fish(a(e_A)))", "2"),
    ("caught(cats(one of(the(e_A))), e_A, fish(a(e_A)))", "1.1.1"),
)

_TREE_HEAD = re.compile(r"^(initial|auxiliary) (.+?) \{", re.MULTILINE)


def replicate_text(tag_text, factor):
    """The grammar with every elementary tree copied `factor` times,
    copy k of tree T renamed to T_k."""
    body = [line for line in tag_text.splitlines() if _TREE_HEAD.match(line)]
    start = re.search(r"^start: *(\S+?);", tag_text, re.MULTILINE).group(1)
    lines = [f"start: {start};"]
    for copy in range(factor):
        lines.extend(_TREE_HEAD.sub(rf"\1 \2_{copy} {{", line) for line in body)
    return "\n".join(lines) + "\n"


def rename_tree(tree, copy):
    """Relabel a fig2 derivation tree onto copy `copy` of fig2 xN."""

    def label(node):
        return node.label if node.label.startswith("e_") else f"{node.label}_{copy}"

    built = {}
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if done:
            built[id(node)] = DerivTree(label(node), tuple(built[id(c)] for c in node.children))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
    return built[id(tree)]


# -------------------------------------------------- many-symbol TAG


def _feature(rng, allow_var):
    roll = rng.random()
    if roll < 0.4:
        return ""
    value = "?x" if allow_var and roll < 0.6 else rng.choice(("a", "b"))
    return f"[agr: {value}]"


def many_symbol_tag(seed, symbols):
    """A TAG with `symbols` node labels and four trees per label.

    Per label: a lexical initial tree, an initial tree with one to three
    substitution sites (cycling), and two auxiliary trees, one of them
    with an inner adjunction site.  Every label is productive through
    its lexical tree and reachable from the start symbol.  The shape
    (the other site labels, which roots are active) is the same for
    every seed, because reduction cost moves by a fifth between random
    shapes; `seed` draws the feature structures.
    """
    shape = random.Random(symbols)
    rng = random.Random(seed)
    names = [f"S{i}" for i in range(symbols)]
    lines = [f"start: {names[0]};"]

    def attrs(kind, top, bot):
        parts = [f"kind={kind}"] if kind else []
        if top:
            parts.append(f"top={top}")
        if bot:
            parts.append(f"bot={bot}")
        return (" " + " ".join(parts)) if parts else ""

    count = 0
    for index, label in enumerate(names):
        for sites in (0, 1 + index % 3):
            # The first site names the next label, so every label is reachable.
            targets = [names[(index + 1) % symbols]] + shape.choices(names, k=sites - 1)
            kids = [
                f"({child}{attrs('subst', _feature(rng, True), '')})"
                for child in targets[:sites]
            ]
            kids.append(f'(word "w{count}")')
            root_kind = "adj" if shape.random() < 0.7 else ""
            lines.append(
                f"initial t{count} {{ ({label}{attrs(root_kind, '', _feature(rng, True))}"
                f" {' '.join(kids)}) }}"
            )
            count += 1
        for inner in (False, True):
            kids = []
            if inner:
                child = shape.choice(names)
                kids.append(
                    f"({child}{attrs('adj', _feature(rng, True), _feature(rng, False))})"
                )
            kids.append(f'(word "w{count}")')
            kids.append(f"({label}{attrs('foot', '', _feature(rng, True))})")
            lines.append(
                f"auxiliary t{count} {{ ({label}{attrs('adj', '', _feature(rng, True))}"
                f" {' '.join(kids)}) }}"
            )
            count += 1
    return "\n".join(lines) + "\n"


# ------------------------------------------- flat random feature grammars


def _random_flat_constraint(rng):
    """() or a single flat AVM over {f, g} with atoms {a, b} and ?x/?y."""
    if rng.random() < 0.3:
        return ()
    attrs = rng.sample(["f", "g"], rng.randint(1, 2))
    values = [rng.choice([Atom("a"), Atom("b"), Var("x"), Var("y")]) for _ in attrs]
    return (Avm(tuple(sorted(zip(attrs, values)))),)


def flat_feature_grammar(seed):
    """Random flat feature RTG; seeds 0-49 are acceptance criterion 7's corpus."""
    rng = random.Random(seed)
    nts = tuple(Nonterminal(f"X{i}") for i in range(rng.randint(1, 4)))
    rules, terminals = [], []
    for i in range(rng.randint(1, 6)):
        rank = rng.choices([0, 1, 2], weights=[5, 4, 1])[0]
        terminals.append((f"t{i}", rank))
        rules.append(
            FbRule(
                rng.choice(nts),
                _random_flat_constraint(rng),
                f"t{i}",
                tuple((rng.choice(nts), _random_flat_constraint(rng)) for _ in range(rank)),
            )
        )
    return FbRtg(
        axiom=nts[0],
        nonterminals=nts,
        terminals=tuple(sorted(terminals)),
        rules=tuple(rules),
        form="standard",
        sites=(),
    )


# --------------------------------------------------- random_tag corpus


def _random_small_avm(rng):
    if rng.random() < 0.4:
        return TOP
    attrs = rng.sample(["f", "g"], rng.randint(1, 2))
    values = [rng.choice([Atom("a"), Atom("b"), Var("x")]) for _ in attrs]
    return Avm(tuple(sorted(zip(attrs, values))))


def random_tag(seed):
    """Small random TAGs; the same seeds give the same grammars as the
    acceptance suite's `random_tag`, so corpus seeds can be cited."""
    rng = random.Random(seed)
    labels = ["A", "B", "C", "D"][: rng.randint(1, 4)]
    trees = []
    for i in range(rng.randint(1, 6)):
        auxiliary = rng.random() < 0.4
        label = rng.choice(labels)
        kids = []
        for _ in range(rng.randint(0, 2)):
            child = rng.choice(labels)
            if rng.random() < 0.5:
                kids.append(TreeNode(child, NodeKind.SUBSTITUTION, _random_small_avm(rng), TOP, ()))
            else:
                kids.append(
                    TreeNode(child, NodeKind.ADJUNCTION,
                             _random_small_avm(rng), _random_small_avm(rng), ())
                )
        kids.append(TreeNode(f"w{i}", NodeKind.ANCHOR, TOP, TOP, ()))
        if auxiliary:
            kids.append(TreeNode(label, NodeKind.FOOT, TOP, _random_small_avm(rng), ()))
            root = TreeNode(label, NodeKind.ADJUNCTION,
                            _random_small_avm(rng), _random_small_avm(rng), tuple(kids))
        else:
            active = rng.random() < 0.7
            root = TreeNode(
                label,
                NodeKind.ADJUNCTION if active else NodeKind.INTERNAL,
                _random_small_avm(rng) if active else TOP,
                _random_small_avm(rng),
                tuple(kids),
            )
        trees.append(ElemTree(f"g{i}", auxiliary, root))
    return Tag(labels[0], tuple(trees))


# ------------------------------------------------------- tree inputs


def random_ranked_tree(rng, terminals, max_height):
    """A tree over a ranked alphabet, ignoring the grammar: most are
    outside the language, which gives the checker rejections."""
    leaves = [name for name, rank in terminals if rank == 0]
    inner = [(name, rank) for name, rank in terminals if rank > 0]

    def grow(height):
        if height <= 1 or not inner or rng.random() < 0.3:
            return DerivTree(rng.choice(leaves))
        name, rank = rng.choice(inner)
        return DerivTree(name, tuple(grow(height - 1) for _ in range(rank)))

    return grow(max_height)


def the_chain(depth):
    """caught(cats(the^depth(e_A)), e_A, fish(e_A)), a plain fig2 tree."""
    node = DerivTree("e_A")
    for _ in range(depth):
        node = DerivTree("the", (node,))
    return DerivTree(
        "caught",
        (DerivTree("cats", (node,)), DerivTree("e_A"), DerivTree("fish", (DerivTree("e_A"),))),
    )


def ambiguous_grammar():
    """X -> f(X) | f(Y), Y -> f(X) | f(Y), X -> a, Y -> b.

    A top-down checker explores both branches at every f, so a tree
    f^k(c) with no derivation costs it about 2^k rule attempts.
    """
    x, y = Nonterminal("X"), Nonterminal("Y")
    rules = (
        FbRule(x, (), "f", ((x, ()),)),
        FbRule(x, (), "f", ((y, ()),)),
        FbRule(y, (), "f", ((x, ()),)),
        FbRule(y, (), "f", ((y, ()),)),
        FbRule(x, (), "a", ()),
        FbRule(y, (), "b", ()),
    )
    return FbRtg(x, (x, y), (("a", 0), ("b", 0), ("c", 0), ("f", 1)), rules)


def f_chain(k, leaf):
    node = DerivTree(leaf)
    for _ in range(k):
        node = DerivTree("f", (node,))
    return node
