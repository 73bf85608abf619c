"""Left-corner transformation of derivation-tree grammars.

Root adjunctions are the predictive bottleneck: reading a derivation
top-down, the tree standing at a substitution site stays unknown until
the whole adjunction stack above its root has been picked.  The
transformation reverses that recursion.  A substitution site first
rewrites to e_S, then the root adjunctions unfold outermost first
through plain-flavored nonterminals, and the initial tree arrives
last, with its root slot gone.  Adjunctions elsewhere keep their
original rules.

The feature swap mirrors the reversal: a root-adjunction rule now
carries the adjunct's root pair on its left-hand side and hands the
foot pair to the chain below, so constraints surface as early as the
rewrites do.
"""

from __future__ import annotations

from tagrtg.features import TOP, Avm, Var
from tagrtg.rtg import (
    EPS_ADJOIN,
    EPS_SUBST,
    FbRtg,
    FbRule,
    Flavor,
    GrammarError,
    Nonterminal,
    SiteInfo,
    erase_features,
)
from tagrtg.tag import Tag
from tagrtg.translate import (
    INTERFACE_VAR,
    _constraint,
    _pair,
    closure_rule,
    fresh_name,
    node_nt,
    site_table,
    slot_features,
    symbols,
    tree_rule,
    tree_variables,
)
from tagrtg.trees import DerivTree


class RootNotAdjoinable(ValueError):
    """An auxiliary tree whose root hosts no adjunction cannot take
    part in the reversed recursion."""


class MalformedLcTree(ValueError):
    pass


def _epsilon_subst_rule(symbol: str) -> FbRule:
    t = Var(INTERFACE_VAR)
    child = (Nonterminal(symbol), (Avm((("top", t), ("bot", t))),))
    return FbRule(
        Nonterminal(symbol, Flavor.SUBST),
        (Avm((("top", t),)),),
        EPS_SUBST,
        (child,),
    )


def lc_fbrtg(tag: Tag) -> FbRtg:
    """The left-corner transformed feature grammar of a TAG.

    Linear in the input; at most twice the rules of the standard
    translation because every auxiliary contributes both a chain rule
    and its original rule.
    """
    tag.validate()
    for tree in tag.auxiliaries:
        if not tree.root_active:
            raise RootNotAdjoinable(
                f"auxiliary tree {tree.name!r} has an inactive root"
            )
    names = symbols(tag)
    rules = [_epsilon_subst_rule(name) for name in names]
    for tree in tag.initials:
        if not tree.root_active:
            rules.append(tree_rule(tree))
            continue
        t = fresh_name(INTERFACE_VAR, tree_variables(tree))
        slots = tuple(
            (node_nt(node), slot_features(node, tree.root, t))
            for node in tree.active_nodes()
            if node is not tree.root
        )
        rules.append(
            FbRule(
                Nonterminal(tree.root.label),
                _constraint(_pair(tree.root.top, tree.root.bot)),
                tree.name,
                slots,
            )
        )
    for tree in tag.auxiliaries:
        t = fresh_name(INTERFACE_VAR, tree_variables(tree))
        chain = (
            Nonterminal(tree.root.label),
            _constraint(_pair(Var(t), tree.foot().bot)),
        )
        slots = tuple(
            (node_nt(node), slot_features(node, tree.root, t))
            for node in tree.active_nodes()
            if node is not tree.root
        )
        rules.append(
            FbRule(
                Nonterminal(tree.root.label),
                _constraint(_pair(Var(t), tree.root.bot), _pair(tree.root.top, TOP)),
                tree.name,
                (chain,) + slots,
            )
        )
    rules.extend(tree_rule(tree) for tree in tag.auxiliaries)
    rules.extend(closure_rule(name) for name in names)

    nonterminals = tuple(
        Nonterminal(name, flavor)
        for flavor in (Flavor.SUBST, Flavor.PLAIN, Flavor.ADJOIN)
        for name in names
    )
    terminals = sorted(
        [
            (tree.name, tree.rank - (1 if not tree.auxiliary and tree.root_active else 0))
            for tree in tag.trees
        ]
        + [(EPS_ADJOIN, 0), (EPS_SUBST, 1)]
    )
    return FbRtg(
        axiom=Nonterminal(tag.start, Flavor.SUBST),
        nonterminals=nonterminals,
        terminals=tuple(terminals),
        rules=tuple(rules),
        form="lc",
        sites=site_table(tag),
    )


def lc_rtg(tag: Tag) -> FbRtg:
    """The plain left-corner transformed grammar: same rules, no features."""
    return erase_features(lc_fbrtg(tag))


# ------------------------------------------------------------- inversion


def _site(sites: dict, label: str, what: str) -> SiteInfo:
    info = sites.get(label)
    if info is None:
        raise MalformedLcTree(f"{label!r} is not an elementary tree, {what}")
    return info


def _check_arity(tree: DerivTree, expected: int) -> None:
    if len(tree.children) != expected:
        raise MalformedLcTree(
            f"{tree.label!r} carries {len(tree.children)} subtrees, expected {expected}"
        )


def lc_inverse(grammar: FbRtg, tree: DerivTree) -> DerivTree:
    """Map a derivation tree of the transformed grammar back.

    Chains are unwound tail first: the subtree below a root-adjunction
    node becomes its first child, accumulating what was stacked so far,
    until the landing initial tree takes over the whole stack.  The
    grammar argument only supplies the site table, so reduced and
    unreduced grammars both work as long as the tree fits their ranks.
    """
    if grammar.form != "lc":
        raise GrammarError(f"grammar is in {grammar.form!r} form, not 'lc'")
    sites = grammar.index.sites

    def hole(kind: str, sub: DerivTree) -> DerivTree:
        return adjunct(sub) if kind == "adj" else landing(sub)

    def landing(sub: DerivTree) -> DerivTree:
        if sub.label == EPS_SUBST:
            _check_arity(sub, 1)
            return chain(sub.children[0], DerivTree(EPS_ADJOIN))
        info = _site(sites, sub.label, "expected e_S or an initial tree")
        if info.tree_kind != "initial" or info.root_active:
            raise MalformedLcTree(
                f"substitution site holds {sub.label!r} instead of e_S"
            )
        _check_arity(sub, len(info.slot_kinds))
        return DerivTree(
            sub.label,
            tuple(hole(k, c) for k, c in zip(info.slot_kinds, sub.children)),
        )

    def chain(sub: DerivTree, stacked: DerivTree) -> DerivTree:
        info = _site(sites, sub.label, "expected an adjunction chain")
        rest = info.slot_kinds[1:]
        if info.tree_kind == "initial":
            if not info.root_active:
                raise MalformedLcTree(
                    f"initial tree {sub.label!r} cannot land an adjunction chain"
                )
            _check_arity(sub, len(rest))
            others = tuple(hole(k, c) for k, c in zip(rest, sub.children))
            return DerivTree(sub.label, (stacked,) + others)
        _check_arity(sub, len(rest) + 1)
        others = tuple(hole(k, c) for k, c in zip(rest, sub.children[1:]))
        grown = DerivTree(sub.label, (stacked,) + others)
        return chain(sub.children[0], grown)

    def adjunct(sub: DerivTree) -> DerivTree:
        if sub.label == EPS_ADJOIN:
            _check_arity(sub, 0)
            return sub
        info = _site(sites, sub.label, "expected e_A or an auxiliary tree")
        if info.tree_kind != "auxiliary":
            raise MalformedLcTree(f"adjunction site holds initial tree {sub.label!r}")
        _check_arity(sub, len(info.slot_kinds))
        return DerivTree(
            sub.label,
            tuple(hole(k, c) for k, c in zip(info.slot_kinds, sub.children)),
        )

    return landing(tree)


def lc_image(grammar: FbRtg, tree: DerivTree) -> DerivTree:
    """Map a standard derivation tree onto the transformed alphabet.

    This is the inverse of lc_inverse, written directly against the
    standard orientation so the two can check each other.
    """
    if grammar.form != "standard":
        raise GrammarError(f"grammar is in {grammar.form!r} form, not 'standard'")
    sites = grammar.index.sites

    def hole(kind: str, sub: DerivTree) -> DerivTree:
        return adjunct(sub) if kind == "adj" else landing(sub)

    def landing(sub: DerivTree) -> DerivTree:
        info = _site(sites, sub.label, "expected an initial tree")
        if info.tree_kind != "initial":
            raise MalformedLcTree(f"substitution site holds {sub.label!r}")
        _check_arity(sub, len(info.slot_kinds))
        if not info.root_active:
            return DerivTree(
                sub.label,
                tuple(hole(k, c) for k, c in zip(info.slot_kinds, sub.children)),
            )
        others = tuple(hole(k, c) for k, c in zip(info.slot_kinds[1:], sub.children[1:]))
        grown = DerivTree(sub.label, others)
        stack = sub.children[0]
        while stack.label != EPS_ADJOIN:
            info = _site(sites, stack.label, "expected a root adjunction")
            if info.tree_kind != "auxiliary":
                raise MalformedLcTree(f"root adjunction holds {stack.label!r}")
            _check_arity(stack, len(info.slot_kinds))
            others = tuple(
                hole(k, c) for k, c in zip(info.slot_kinds[1:], stack.children[1:])
            )
            grown = DerivTree(stack.label, (grown,) + others)
            stack = stack.children[0]
        _check_arity(stack, 0)
        return DerivTree(EPS_SUBST, (grown,))

    def adjunct(sub: DerivTree) -> DerivTree:
        if sub.label == EPS_ADJOIN:
            _check_arity(sub, 0)
            return sub
        info = _site(sites, sub.label, "expected e_A or an auxiliary tree")
        if info.tree_kind != "auxiliary":
            raise MalformedLcTree(f"adjunction site holds initial tree {sub.label!r}")
        _check_arity(sub, len(info.slot_kinds))
        return DerivTree(
            sub.label,
            tuple(hole(k, c) for k, c in zip(info.slot_kinds, sub.children)),
        )

    return landing(tree)
