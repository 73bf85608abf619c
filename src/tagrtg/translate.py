"""From tree adjoining grammars to derivation-tree grammars.

Every elementary tree becomes a single rule: the left-hand side is the
tree's interface with the rest of the grammar, the slots are its active
nodes in preorder.  Substitution sites use the _S flavor of the node
label, adjunction sites the _A flavor, and one empty-adjunction rule
per symbol closes sites where nothing adjoins.

The feature variant threads the root's top structure through an
interface variable shared between the left-hand side and the root
slot; auxiliary interfaces add the foot's bottom structure.  An
adjunction chain therefore percolates its top feature upward while the
bottom features meet at the empty-adjunction rule, which unifies top
with bottom through its shared variable.
"""

from __future__ import annotations

from tagrtg.features import TOP, Avm, Var, is_top, variables
from tagrtg.rtg import (
    EPS_ADJOIN,
    Constraint,
    FbRtg,
    FbRule,
    Flavor,
    Nonterminal,
    SiteInfo,
)
from tagrtg.tag import ElemTree, NodeKind, Tag, TreeNode

INTERFACE_VAR = "t"
CLOSURE_VAR = "v"


def symbols(tag: Tag) -> tuple[str, ...]:
    """Node labels in order of first appearance; anchors do not count."""
    return tuple(
        dict.fromkeys(
            node.label
            for tree in tag.trees
            for node in tree.root.nodes()
            if node.kind is not NodeKind.ANCHOR
        )
    )


def site_table(tag: Tag) -> tuple[tuple[str, SiteInfo], ...]:
    entries = []
    for tree in tag.trees:
        kinds = tuple(node.kind.value for node in tree.active_nodes())
        info = SiteInfo(
            "auxiliary" if tree.auxiliary else "initial",
            tree.root_active,
            kinds,
        )
        entries.append((tree.name, info))
    return tuple(sorted(entries))


def node_nt(node: TreeNode) -> Nonterminal:
    flavor = Flavor.SUBST if node.kind is NodeKind.SUBSTITUTION else Flavor.ADJOIN
    return Nonterminal(node.label, flavor)


def fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    count = 0
    while f"{base}{count}" in used:
        count += 1
    return f"{base}{count}"


def declared_nonterminals(tag: Tag, names, flavors) -> tuple[Nonterminal, ...]:
    """Each label in each flavor, then the axiom if no node carries the start label."""
    declared = tuple(Nonterminal(name, flavor) for flavor in flavors for name in names)
    axiom = Nonterminal(tag.start, Flavor.SUBST)
    return declared if axiom in declared else declared + (axiom,)


def tree_variables(tree: ElemTree) -> set[str]:
    used: set[str] = set()
    for node in tree.root.nodes():
        used |= variables(node.top)
        used |= variables(node.bot)
    return used


def _pair(top, bot) -> Avm:
    entries = []
    if not is_top(top):
        entries.append(("top", top))
    if not is_top(bot):
        entries.append(("bot", bot))
    return Avm(tuple(entries))


def _constraint(*terms) -> Constraint:
    return tuple(term for term in terms if not is_top(term))


def _below_root(tree: ElemTree) -> tuple:
    """The slots of the sites below the root, each carrying its top and
    bottom unchanged."""
    return tuple(
        (node_nt(node), _constraint(_pair(node.top, node.bot)))
        for node in tree.active_nodes()
        if node is not tree.root
    )


def interface(tree: ElemTree, t: str) -> Constraint:
    """The left-hand feature pair of a tree's rule.

    The interface variable copies the root's top structure outward; it
    is dropped when the root hosts no adjunction, because then nothing
    on the right-hand side shares it.  Auxiliary interfaces also expose
    the foot's bottom structure, which ends up unified with whatever
    sits below the adjunction.
    """
    root = tree.root
    foot_bot = tree.foot().bot if tree.auxiliary else TOP
    first = _pair(Var(t) if tree.root_active else TOP, foot_bot)
    return _constraint(first, _pair(root.top, TOP))


def tree_rule(tree: ElemTree) -> FbRule:
    t = fresh_name(INTERFACE_VAR, tree_variables(tree))
    lhs_flavor = Flavor.ADJOIN if tree.auxiliary else Flavor.SUBST
    root = tree.root
    slots = _below_root(tree)
    if tree.root_active:
        # The root slot shares the interface variable on top and keeps
        # the root's own bottom.
        slots = ((node_nt(root), _constraint(_pair(Var(t), root.bot))),) + slots
    return FbRule(Nonterminal(root.label, lhs_flavor), interface(tree, t), tree.name, slots)


def closure_rule(symbol: str) -> FbRule:
    shared = Var(CLOSURE_VAR)
    feat = (Avm((("top", shared), ("bot", shared))),)
    return FbRule(Nonterminal(symbol, Flavor.ADJOIN), feat, EPS_ADJOIN, ())


def to_fbrtg(tag: Tag) -> FbRtg:
    """The feature-based derivation-tree grammar of a TAG.

    One rule per elementary tree plus one empty-adjunction rule per
    symbol; the whole construction is linear in the size of the input.
    """
    names = symbols(tag)
    nonterminals = declared_nonterminals(tag, names, (Flavor.SUBST, Flavor.ADJOIN))
    rules = tuple(tree_rule(tree) for tree in tag.trees) + tuple(
        closure_rule(name) for name in names
    )
    terminals = {(rule.terminal, rule.rank) for rule in rules} | {(EPS_ADJOIN, 0)}
    return FbRtg(
        axiom=Nonterminal(tag.start, Flavor.SUBST),
        nonterminals=nonterminals,
        terminals=tuple(sorted(terminals)),
        rules=rules,
        form="standard",
        sites=site_table(tag),
    )
