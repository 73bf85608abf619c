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

The left-corner (LC) form reverses the recursion through root
adjunctions, the predictive bottleneck: reading a derivation top-down,
the tree standing at a substitution site stays unknown until the whole
adjunction stack above its root has been picked.  A substitution site
first rewrites to e_S, then the root adjunctions unfold outermost first
through plain-flavored nonterminals, and the initial tree arrives last,
with its root slot gone.  Adjunctions elsewhere keep their original
rules.  The feature swap mirrors the reversal: a root-adjunction rule
carries the adjunct's root pair on its left-hand side and hands the
foot pair to the chain below, so constraints surface as early as the
rewrites do.
"""

from __future__ import annotations

from tagrtg.features import TOP, Avm, Var, is_top, variables
from tagrtg.rtg import (
    ADJOIN_SUFFIX,
    EPS_ADJOIN,
    EPS_SUBST,
    SUBST_SUFFIX,
    AlphabetError,
    Constraint,
    FbRtg,
    FbRule,
    GrammarError,
    Nonterminal,
    SiteInfo,
)
from tagrtg.tag import ElemTree, NodeKind, Tag, TreeNode

INTERFACE_VAR = "t"
CLOSURE_VAR = "v"


class RootNotAdjoinable(GrammarError):
    """An auxiliary tree whose root hosts no adjunction cannot take
    part in the reversed recursion."""


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
    return node.label + (SUBST_SUFFIX if node.kind is NodeKind.SUBSTITUTION else ADJOIN_SUFFIX)


def interface_var(tree: ElemTree) -> str:
    """INTERFACE_VAR, or the first numbered variant the tree does not use."""
    used: set[str] = set()
    for node in tree.root.nodes():
        used |= variables(node.top)
        used |= variables(node.bot)
    name, count = INTERFACE_VAR, 0
    while name in used:
        name = f"{INTERFACE_VAR}{count}"
        count += 1
    return name


def _pair(top, bot) -> Avm:
    return Avm((("top", top), ("bot", bot)))


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


def tree_rule(tree: ElemTree) -> FbRule:
    """The rule of one elementary tree.

    Its left-hand feature pair is the tree's interface.  The interface
    variable copies the root's top structure outward; it is dropped
    when the root hosts no adjunction, because then nothing on the
    right-hand side shares it.  Auxiliary interfaces also expose the
    foot's bottom structure, which ends up unified with whatever sits
    below the adjunction.
    """
    t = interface_var(tree)
    root = tree.root
    foot_bot = tree.foot().bot if tree.auxiliary else TOP
    first = _pair(Var(t) if tree.root_active else TOP, foot_bot)
    interface = _constraint(first, _pair(root.top, TOP))
    slots = _below_root(tree)
    if tree.root_active:
        # The root slot shares the interface variable on top and keeps
        # the root's own bottom.
        slots = ((node_nt(root), _constraint(_pair(Var(t), root.bot))),) + slots
    lhs = root.label + (ADJOIN_SUFFIX if tree.auxiliary else SUBST_SUFFIX)
    return FbRule(lhs, interface, tree.name, slots)


def closure_rule(symbol: str) -> FbRule:
    shared = Var(CLOSURE_VAR)
    feat = (Avm((("top", shared), ("bot", shared))),)
    return FbRule(symbol + ADJOIN_SUFFIX, feat, EPS_ADJOIN, ())


def _epsilon_subst_rule(symbol: str) -> FbRule:
    t = Var(INTERFACE_VAR)
    child = (symbol, (Avm((("top", t), ("bot", t))),))
    return FbRule(symbol + SUBST_SUFFIX, (Avm((("top", t),)),), EPS_SUBST, (child,))


def _grammar(tag: Tag, names: tuple[str, ...], rules, form: str) -> FbRtg:
    """Assemble a translation: each label with each suffix of the form,
    then the axiom if no node carries the start label; the terminals
    the rules use plus the ε terminals, which no tree may be named after;
    the site table of the TAG."""
    for tree in tag.trees:
        if tree.name in (EPS_ADJOIN, EPS_SUBST):
            raise AlphabetError(f"tree {tree.name!r} takes the name of an empty-tree terminal")
    lc = form == "lc"
    suffixes = (SUBST_SUFFIX, "", ADJOIN_SUFFIX) if lc else (SUBST_SUFFIX, ADJOIN_SUFFIX)
    nonterminals = tuple(name + suffix for suffix in suffixes for name in names)
    axiom = tag.start + SUBST_SUFFIX
    if axiom not in nonterminals:
        nonterminals += (axiom,)
    terminals = {(rule.terminal, rule.rank) for rule in rules} | {(EPS_ADJOIN, 0)}
    if lc:
        terminals.add((EPS_SUBST, 1))
    return FbRtg(
        axiom=axiom,
        nonterminals=nonterminals,
        terminals=tuple(sorted(terminals)),
        rules=tuple(rules),
        form=form,
        sites=site_table(tag),
    )


def to_fbrtg(tag: Tag) -> FbRtg:
    """The feature-based derivation-tree grammar of a TAG.

    One rule per elementary tree plus one empty-adjunction rule per
    symbol; the whole construction is linear in the size of the input.
    """
    names = symbols(tag)
    rules = [tree_rule(tree) for tree in tag.trees] + [closure_rule(name) for name in names]
    return _grammar(tag, names, rules, "standard")


def lc_fbrtg(tag: Tag) -> FbRtg:
    """The left-corner transformed feature grammar of a TAG.

    Linear in the input; at most twice the rules of the standard
    translation because every auxiliary contributes both a chain rule
    and its original rule.  A label names a plain nonterminal here, so
    no label may be another label followed by a flavor suffix.
    """
    for tree in tag.auxiliaries:
        if not tree.root_active:
            raise RootNotAdjoinable(f"auxiliary tree {tree.name!r} has an inactive root")
    names = symbols(tag)
    labels = set(names)
    for name in names:
        for suffix in (SUBST_SUFFIX, ADJOIN_SUFFIX):
            clash = name + suffix
            if clash in labels:
                raise GrammarError(
                    f"labels {name!r} and {clash!r} both name the"
                    f" left-corner nonterminal {clash}"
                )
    rules = [_epsilon_subst_rule(name) for name in names]
    for tree in tag.initials:
        if not tree.root_active:
            rules.append(tree_rule(tree))
            continue
        rules.append(
            FbRule(
                tree.root.label,
                _constraint(_pair(tree.root.top, tree.root.bot)),
                tree.name,
                _below_root(tree),
            )
        )
    for tree in tag.auxiliaries:
        t = Var(interface_var(tree))
        chain = (tree.root.label, _constraint(_pair(t, tree.foot().bot)))
        rules.append(
            FbRule(
                tree.root.label,
                _constraint(_pair(t, tree.root.bot), _pair(tree.root.top, TOP)),
                tree.name,
                (chain,) + _below_root(tree),
            )
        )
    rules.extend(tree_rule(tree) for tree in tag.auxiliaries)
    rules.extend(closure_rule(name) for name in names)
    return _grammar(tag, names, rules, "lc")
