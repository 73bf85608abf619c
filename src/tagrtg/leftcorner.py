"""The left-corner maps between derivation trees of the two forms.

`lc_inverse` maps a derivation tree of the left-corner (LC) grammar
onto the standard one and `lc_image` maps back.  Both read only the
site table, and both walk a tree site by site: adjunction sites keep
their trees, while at a substitution site the LC form's chain of root
adjunctions, which ends in the initial tree that landed there, trades
places with the standard form's initial tree, whose root slot holds
the stack of adjunctions.  The grammars themselves are built in
`translate`.
"""

from __future__ import annotations

from tagrtg.rtg import EPS_ADJOIN, EPS_SUBST, FbRtg, GrammarError, SiteInfo
from tagrtg.trees import DerivTree


def __getattr__(name):
    # `lc_fbrtg` is still read from its former home (perfbench/tracing.py
    # looks it up here), but only a process that reads it loads
    # `translate` (PEP 562).
    if name != "lc_fbrtg":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from tagrtg.translate import lc_fbrtg

    globals()[name] = lc_fbrtg
    return lc_fbrtg


class MalformedLcTree(ValueError):
    pass


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


def _map_sites(sites: dict, tree: DerivTree, landing) -> DerivTree:
    """Map a derivation tree site by site, starting at a substitution site.

    Adjunction sites keep their trees and are mapped slot by slot;
    `landing(sub, fill)` maps the subtree at a substitution site and
    calls `fill(kinds, children)` to map the slots below it.
    """

    def fill(kinds: tuple[str, ...], children: tuple[DerivTree, ...]) -> tuple:
        return tuple(map(hole, kinds, children))

    def hole(kind: str, sub: DerivTree) -> DerivTree:
        if kind != "adj":
            return landing(sub, fill)
        if sub.label == EPS_ADJOIN:
            _check_arity(sub, 0)
            return sub
        info = _site(sites, sub.label, "expected e_A or an auxiliary tree")
        if info.tree_kind != "auxiliary":
            raise MalformedLcTree(f"adjunction site holds initial tree {sub.label!r}")
        _check_arity(sub, len(info.slot_kinds))
        return DerivTree(sub.label, fill(info.slot_kinds, sub.children))

    return landing(tree, fill)


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

    def landing(sub: DerivTree, fill) -> DerivTree:
        if sub.label != EPS_SUBST:
            info = _site(sites, sub.label, "expected e_S or an initial tree")
            if info.tree_kind != "initial" or info.root_active:
                raise MalformedLcTree(
                    f"substitution site holds {sub.label!r} instead of e_S"
                )
            _check_arity(sub, len(info.slot_kinds))
            return DerivTree(sub.label, fill(info.slot_kinds, sub.children))
        _check_arity(sub, 1)
        stacked = DerivTree(EPS_ADJOIN)
        sub = sub.children[0]
        while True:
            info = _site(sites, sub.label, "expected an adjunction chain")
            rest = info.slot_kinds[1:]
            if info.tree_kind == "initial":
                if not info.root_active:
                    raise MalformedLcTree(
                        f"initial tree {sub.label!r} cannot land an adjunction chain"
                    )
                _check_arity(sub, len(rest))
                return DerivTree(sub.label, (stacked,) + fill(rest, sub.children))
            _check_arity(sub, len(rest) + 1)
            stacked = DerivTree(sub.label, (stacked,) + fill(rest, sub.children[1:]))
            sub = sub.children[0]

    return _map_sites(sites, tree, landing)


def lc_image(grammar: FbRtg, tree: DerivTree) -> DerivTree:
    """Map a standard derivation tree onto the transformed alphabet.

    This is the inverse of lc_inverse, written directly against the
    standard orientation so the two can check each other.
    """
    if grammar.form != "standard":
        raise GrammarError(f"grammar is in {grammar.form!r} form, not 'standard'")
    sites = grammar.index.sites

    def landing(sub: DerivTree, fill) -> DerivTree:
        info = _site(sites, sub.label, "expected an initial tree")
        if info.tree_kind != "initial":
            raise MalformedLcTree(f"substitution site holds {sub.label!r}")
        _check_arity(sub, len(info.slot_kinds))
        if not info.root_active:
            return DerivTree(sub.label, fill(info.slot_kinds, sub.children))
        grown = DerivTree(sub.label, fill(info.slot_kinds[1:], sub.children[1:]))
        stack = sub.children[0]
        while stack.label != EPS_ADJOIN:
            info = _site(sites, stack.label, "expected a root adjunction")
            if info.tree_kind != "auxiliary":
                raise MalformedLcTree(f"root adjunction holds {stack.label!r}")
            _check_arity(stack, len(info.slot_kinds))
            others = fill(info.slot_kinds[1:], stack.children[1:])
            grown = DerivTree(stack.label, (grown,) + others)
            stack = stack.children[0]
        _check_arity(stack, 0)
        return DerivTree(EPS_SUBST, (grown,))

    return _map_sites(sites, tree, landing)
