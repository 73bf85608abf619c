"""Regular tree grammars over derivation trees, plain and feature-based.

A rule rewrites a nonterminal into a terminal applied to rewritten
slots.  Every position carries a constraint: a conjunction of feature
terms that is folded by unification when the rule fires.  Plain
grammars are the degenerate case where every constraint is empty.

Rewriting is leftmost.  Open leaves carry feature nodes; each rule fires
through one function compiled once per rule shape, which builds its
constraints and unifies them into the leaf in place, so bindings made
deep inside one subtree reach open leaves elsewhere through the nodes
they share; backtracking undoes the kernel's trail.  The search decides
only the verdict and keeps a chain of the rules that fired.  Everything
a person reads, the trace with its Gorn addresses, the environment and
the clash message, comes from replaying that chain on fresh nodes, each
variable renamed apart by the address of the leaf its rule rewrote.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice, repeat
from typing import Iterator, Optional

from tagrtg.features import (
    IDENTITY, Avm, FeatureTerm, Substitution, bindings, compile_fire, fold, format_feature,
    instantiate, is_top, read_back, undo,
)
from tagrtg.trees import ROOT, DerivTree, child_position

EPS_SUBST = "e_S"
EPS_ADJOIN = "e_A"
# The rule forms a grammar comes in.
FORMS = ("standard", "lc")


# A nonterminal is its name, the same string in grammar indexes and
# `.rtg` files: a TAG label plus the suffix of the kind of site it fills
# (the left-corner chains use the bare label).
Nonterminal = str
SUBST_SUFFIX = "_S"
ADJOIN_SUFFIX = "_A"


Constraint = tuple[FeatureTerm, ...]
Slot = tuple[Nonterminal, Constraint]


def _format_slot(nt: Nonterminal, feat: Constraint) -> str:
    return f"{nt} {' & '.join(map(format_feature, feat))}" if feat else nt


@dataclass(frozen=True)
class FbRule:
    lhs: Nonterminal
    lhs_feat: Constraint
    terminal: str
    rhs: tuple[Slot, ...]

    @property
    def rank(self) -> int:
        return len(self.rhs)

    def __reduce__(self):
        # Copies and pickles leave the cached properties behind.
        return FbRule, (self.lhs, self.lhs_feat, self.terminal, self.rhs)

    @functools.cached_property
    def fire(self):
        """The rule's `compile_fire` function, built on first use."""
        return compile_fire((self.lhs_feat, *(feat for _, feat in self.rhs)))

    @functools.cached_property
    def slot_nonterminals(self) -> tuple[Nonterminal, ...]:
        return tuple(nt for nt, _ in self.rhs)

    def __str__(self) -> str:
        left = _format_slot(self.lhs, self.lhs_feat)
        if not self.rhs:
            return f"{left} -> {self.terminal}"
        inner = ", ".join(_format_slot(nt, feat) for nt, feat in self.rhs)
        last = self.rhs[-1][1]
        if last and not isinstance(last[-1], Avm):
            # A bare atom or variable would read on into the ')'.
            inner += " "
        return f"{left} -> {self.terminal}({inner})"


@dataclass(frozen=True)
class SiteInfo:
    """What the original elementary tree looked like around a terminal.

    `slot_kinds` lists the site kinds of the active nodes in preorder.
    A rule form may leave leading sites without a rule slot, as the
    left-corner form does with the root of an initial tree: the rule's
    slot i stands for slot_kinds[i - 1 + len(slot_kinds) - rank].
    Reduction drops the kinds of the slots it drops.  The inverse
    transformation dispatches on it.
    """

    tree_kind: str
    root_active: bool
    slot_kinds: tuple[str, ...]


class GrammarError(ValueError):
    pass


class AlphabetError(GrammarError):
    pass


class NonterminalMismatch(GrammarError):
    pass


class GrammarIndex:
    """Lookup tables over a grammar's declarations and rules.

    Every rule list keeps grammar rule order, which fixes the order in
    which derivations try their candidates.  A grammar is valid from the
    moment it is built, so every rule's (terminal, rank) is declared in
    `ranks`.  Enumeration reads the rules without slots (`leaf_rules`),
    one tree per terminal they use (`leaves`), and whether two rules
    share a (left-hand side, terminal, rank) shape (`repeated_shape`).
    """

    def __init__(self, grammar: FbRtg):
        self.ranks: dict[str, int] = dict(grammar.terminals)
        self.sites: dict[str, SiteInfo] = dict(grammar.sites)
        self.by_lhs: dict[Nonterminal, list[FbRule]] = {}
        self.by_shape: dict[tuple[Nonterminal, str, int], list[FbRule]] = {}
        self.leaf_rules: dict[Nonterminal, list[FbRule]] = {}
        self.leaves: dict[str, DerivTree] = {}
        for rule in grammar.rules:
            self.by_lhs.setdefault(rule.lhs, []).append(rule)
            self.by_shape.setdefault((rule.lhs, rule.terminal, rule.rank), []).append(rule)
            if not rule.rhs:
                self.leaf_rules.setdefault(rule.lhs, []).append(rule)
                if rule.terminal not in self.leaves:
                    self.leaves[rule.terminal] = DerivTree(rule.terminal)
        self.repeated_shape = len(self.by_shape) < len(grammar.rules)


@dataclass(frozen=True)
class FbRtg:
    """A valid grammar: building one (`replace`, copy, unpickling) runs `validate`."""

    axiom: Nonterminal
    nonterminals: tuple[Nonterminal, ...]
    terminals: tuple[tuple[str, int], ...]
    rules: tuple[FbRule, ...]
    form: str = "standard"
    sites: tuple[tuple[str, SiteInfo], ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def __reduce__(self):
        # Copies and pickles leave the index behind; a copy builds its own.
        return FbRtg, (
            self.axiom, self.nonterminals, self.terminals, self.rules, self.form, self.sites,
        )

    @functools.cached_property
    def index(self) -> GrammarIndex:
        """Built on first use; not a field, so equality, hashing, repr,
        copies, pickles and dataclasses.replace ignore it."""
        return GrammarIndex(self)

    def validate(self) -> None:
        if self.form not in FORMS:
            raise GrammarError(f"unknown rule form {self.form!r}")
        declared = set(self.nonterminals)
        if len(declared) != len(self.nonterminals):
            raise NonterminalMismatch("duplicate nonterminal declaration")
        if self.axiom not in declared:
            raise NonterminalMismatch(f"axiom {self.axiom} is not declared")
        ranks = dict(self.terminals)
        if len(ranks) != len(self.terminals):
            raise AlphabetError("duplicate terminal declaration")
        for rule in self.rules:
            if rule.lhs not in declared:
                raise NonterminalMismatch(f"undeclared nonterminal {rule.lhs} in {rule}")
            for nt, _ in rule.rhs:
                if nt not in declared:
                    raise NonterminalMismatch(f"undeclared nonterminal {nt} in {rule}")
            if rule.terminal not in ranks:
                raise AlphabetError(f"undeclared terminal {rule.terminal!r} in {rule}")
            if ranks[rule.terminal] != rule.rank:
                raise AlphabetError(
                    f"terminal {rule.terminal!r} has rank {ranks[rule.terminal]}, "
                    f"but {rule} uses {rule.rank} slots"
                )
        if len(dict(self.sites)) != len(self.sites):
            raise AlphabetError("duplicate site entry")
        for name, _ in self.sites:
            if name not in ranks:
                raise AlphabetError(f"site entry for undeclared terminal {name!r}")


# ------------------------------------------------------------ derivation


def derive_step(rule: FbRule, leaf, prefix: str, trail: list) -> Optional[tuple]:
    """Fire `rule` at an open leaf whose feature node is `leaf` (None
    stands for top).

    The rule's compiled `fire` builds its constraints, each variable v
    named `prefix`.v, and unifies them with the leaf.  Returns the slot
    nodes, or None on a clash; the caller undoes the bindings on `trail`,
    on failure too.  A rule without any constraint returns one top slot
    node (None) per slot and leaves the trail untouched.  Names matter
    only to what reads nodes back, so a search passes an empty prefix and
    `_replay` the leaf's Gorn address.
    """
    return rule.fire(leaf, prefix, trail)


def _derivations(grammar, root, expand, fail, step=None):
    """Every leftmost derivation from the axiom, depth first, backtracking
    over an explicit stack of frames, one per rewrite on the current path.

    The search decides only which rules fire: it keeps no addresses and
    names no variables.  A leaf is (guide, nonterminal, feature node);
    the pending leaves form a linked list (leaf, rest).  A step is (rule,
    previous step, value), so the steps that led to a leaf form a chain,
    last step first.  `expand(index, leaf)` returns the rules to try at
    the leaf that step `index` rewrites, in order, and the guides of a
    rule's slots, last slot first; `fail(index, rule, chain)` hears of
    each rule that does not fire, and of the chain that led to its leaf.
    Each frame remembers the length of the trail when it started and
    undoes to it, if a firing bound anything, before each candidate and
    when it is popped.  A complete derivation comes out as its chain.
    With `step`, a step's value is `step(value of the previous step,
    rule)`, computed once, when it fires, and shared by every derivation
    that extends it; without it, every value is None.
    """
    leaf = (root, grammar.axiom, None)
    rules, guides = expand(1, leaf)
    trail: list = []
    stack = [(iter(rules), leaf, None, None, None, guides, 0)]
    while stack:
        rules, leaf, pending, chain, value, guides, mark = stack[-1]
        node = leaf[2]
        for rule in rules:
            if len(trail) > mark:
                undo(trail, mark)
            slots = derive_step(rule, node, "", trail)
            if slots is None:
                fail(len(stack), rule, chain)
                continue
            rest = pending
            if slots:
                for kid in zip(guides, reversed(rule.slot_nonterminals), reversed(slots)):
                    rest = (kid, rest)
            link = (rule, chain, None if step is None else step(value, rule))
            if rest is None:
                yield link
                continue
            below, rest = rest
            below_rules, below_guides = expand(len(stack) + 1, below)
            stack.append((iter(below_rules), below, rest, link, link[2], below_guides, len(trail)))
            break
        else:
            if len(trail) > mark:
                undo(trail, mark)
            stack.pop()


def _replay(chain, trail: list):
    """Fire the rules of a step chain again, root first, with `derive_step`
    on fresh nodes named by their Gorn addresses.  Returns the open
    leaves after the last step, as (address, feature node), leftmost
    last, and the steps, each traced with the bindings it made, read back
    before the next step fires.
    """
    rules = []
    while chain is not None:
        rules.append(chain[0])
        chain = chain[1]
    pending, steps = [(ROOT, None)], []
    for index, rule in enumerate(reversed(rules), start=1):
        pos, node = pending.pop()
        mark = len(trail)
        slots = derive_step(rule, node, pos, trail)
        steps.append(TraceStep(index, pos, rule, bindings(trail, mark)))
        pending += reversed([(child_position(pos, i), s) for i, s in enumerate(slots, start=1)])
    return pending, tuple(steps)


def enumerate_trees(
    grammar: FbRtg,
    max_depth: int,
    stats: Optional[dict] = None,
) -> Iterator[DerivTree]:
    """Generate the derivation trees of height at most `max_depth`.

    The depth bound is mandatory: feature constraints frequently leave
    the language infinite.  Trees come out in rule order under leftmost
    rewriting, and distinct runs that assemble the same tree yield it
    once; `stats`, when given, accumulates the number of attempted and
    failed rule applications.

    Each step of a derivation carries the tree built so far, and
    derivations that share a prefix share those steps, so a tree costs
    the steps that are new to it plus the ancestors its last leaf
    closes, not its size.  A grammar with at most one rule per
    (left-hand side, terminal, rank) derives each tree once; only a
    grammar with a repeated shape keeps a set of the trees it emitted.
    """
    if max_depth < 1:
        return
    if stats is not None:
        stats.setdefault("steps", 0)
        stats.setdefault("failures", 0)
    tables = grammar.index
    by_lhs, leaf_rules, leaves = tables.by_lhs, tables.leaf_rules, tables.leaves

    def expand(index, leaf):
        depth, nt, _ = leaf
        rules = by_lhs.get(nt, ()) if depth < max_depth else leaf_rules.get(nt, ())
        return rules, repeat(depth + 1)

    # Every rule the engine takes either fires (`grow`) or fails.
    def fail(index, rule, chain):
        if stats is not None:
            stats["steps"] += 1
            stats["failures"] += 1

    def grow(tree, rule):
        # A partial tree is a stack of open nodes (label, rank, finished
        # children, parent), None below the root.  Leftmost steps come in
        # preorder, so a leaf closes every open node it completes; the
        # step that closes the root gives the finished tree.
        if stats is not None:
            stats["steps"] += 1
        if rule.rhs:
            return (rule.terminal, len(rule.rhs), (), tree)
        done = leaves[rule.terminal]
        while tree is not None:
            label, rank, kids, parent = tree
            kids += (done,)
            if len(kids) < rank:
                return (label, rank, kids, parent)
            done = DerivTree(label, kids)
            tree = parent
        return done

    trees = (link[2] for link in _derivations(grammar, 1, expand, fail, grow))
    if not tables.repeated_shape:
        yield from trees
        return
    seen = set()
    for tree in trees:
        if tree not in seen:
            seen.add(tree)
            yield tree


# -------------------------------------------------------------- checking


@dataclass(frozen=True)
class TraceStep:
    index: int
    position: str
    rule: FbRule
    delta: Substitution

    def __str__(self) -> str:
        line = f"step {self.index} @ {self.position}: {self.rule}"
        if not self.delta.is_identity():
            line += f"  binds {self.delta}"
        return line


class CheckResult:
    """The outcome of `accepts_detailed`, verdict first and read-only.

    `accepted` and `failure_position` are set when the check returns.
    Besides them the result keeps one step chain: the accepting
    derivation's, or the one that led to the deepest failure, with the
    rule that clashed there or why no rule applied.  `steps`, `env` and
    `failure` all come from one `_replay` of that chain, run when the
    first of them is read.  A rejected tree has no steps and the
    identity environment; an accepted one has no failure and no failure
    position.
    """

    __slots__ = ("_accepted", "_failure_position", "_chain", "_failure", "_replayed")

    def __init__(self, accepted: bool, failure_position, chain, failure):
        self._accepted = accepted
        self._failure_position = failure_position
        self._chain = chain
        self._failure = failure
        self._replayed = None

    @property
    def accepted(self) -> bool:
        return self._accepted

    @property
    def failure_position(self) -> Optional[str]:
        return self._failure_position

    @property
    def failure(self) -> Optional[str]:
        return self._replay()[2]

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        return self._replay()[0]

    @property
    def env(self) -> Substitution:
        return self._replay()[1]

    def _replay(self) -> tuple[tuple[TraceStep, ...], Substitution, Optional[str]]:
        if self._replayed is None:
            failure, trail = self._failure, []
            if self._accepted:
                steps = _replay(self._chain, trail)[1]
                self._replayed = (steps, bindings(trail), None)
            else:
                if type(failure) is not str:
                    leaf = _replay(self._chain, trail)[0][-1][1]
                    feat = format_feature(read_back(leaf))
                    failure = f"cannot apply {failure}: constraint clash with {feat}"
                self._replayed = ((), IDENTITY, failure)
            self._chain = self._failure = None
        return self._replayed


def accepts_detailed(grammar: FbRtg, tree: DerivTree) -> CheckResult:
    """Check tree membership top-down, leftmost, with backtracking.

    The verdict comes back at once; the trace, the environment and the
    clash message are worked out only when the result's `steps`, `env`
    or `failure` is first read.  On success the trace lists every rule
    application with the bindings it introduced.  On failure the
    diagnostics point at the deepest position any candidate run reached
    before getting stuck, and a node outside the grammar's alphabet
    raises `AlphabetError`.
    """
    by_shape = grammar.index.by_shape
    # The deepest failure: its step index, and the rule that clashed there
    # with the chain that led to its leaf, or why no rule applied.
    deepest = [1, None, "no rule applied"]

    def expand(index, leaf):
        node, nt, _ = leaf
        rules = by_shape.get((nt, node.label, len(node.children)))
        if not rules:
            if index >= deepest[0]:
                deepest[:] = index, None, f"no rule rewrites {nt} to {node.label!r}"
            return (), ()
        return rules, node.children[::-1]

    def fail(index, rule, chain):
        if index >= deepest[0]:
            deepest[:] = index, chain, rule

    derivations = _derivations(grammar, tree, expand, fail)
    chain = next(derivations, None)
    derivations.close()
    if chain is None:
        index, chain, failure = deepest
        # The search rewrites the tree's nodes in preorder, one per step, and
        # each node before the deepest step took a rule, so its (terminal,
        # rank) is declared: no node outside the alphabet comes earlier.
        ranks, position = grammar.index.ranks, None
        for pos, node in islice(tree.positions(), index - 1, None):
            if position is None:
                position = pos
            rank = ranks.get(node.label)
            if rank != len(node.children):
                if rank is None:
                    raise AlphabetError(f"unknown terminal {node.label!r} at {pos}")
                raise AlphabetError(
                    f"terminal {node.label!r} at {pos} has rank {rank}, "
                    f"found {len(node.children)} children"
                )
        return CheckResult(False, position, chain, failure)
    return CheckResult(True, None, chain, None)


def accepts(grammar: FbRtg, tree: DerivTree) -> bool:
    return accepts_detailed(grammar, tree).accepted


# ------------------------------------------------------ erasure, reduction


def erase_features(grammar: FbRtg) -> FbRtg:
    """Forget every constraint; duplicate rule skeletons collapse."""
    bare = dict.fromkeys(
        FbRule(rule.lhs, (), rule.terminal, tuple((nt, ()) for nt, _ in rule.rhs))
        for rule in grammar.rules
    )
    return replace(grammar, rules=tuple(bare))


def _erasable_positions(
    rules: list[FbRule], sites: dict[str, SiteInfo]
) -> tuple[dict[str, set[int]], dict[Nonterminal, FbRule]]:
    """Rule positions that can only ever derive the empty adjunction tree,
    and the one rule that derives it for each nonterminal they hold.

    A nonterminal qualifies when its only rule is an empty-adjunction
    rule.  A position is dropped only if it qualifies in every rule of
    its terminal, which keeps terminal ranks consistent.  The root slot
    of an initial tree never is, as the left-corner form has no such
    slot; a rule has it when the tree's site kinds are as many as its
    slots.
    """
    count = Counter(rule.lhs for rule in rules)
    epsilon = {
        rule.lhs: rule
        for rule in rules
        if rule.lhs.endswith(ADJOIN_SUFFIX)
        and count[rule.lhs] == 1
        and rule.terminal == EPS_ADJOIN
        and not rule.rhs
    }
    positions: dict[str, set[int]] = {}
    for rule in rules:
        here = {i for i, (nt, _) in enumerate(rule.rhs, start=1) if nt in epsilon}
        if 1 in here:
            info = sites.get(rule.terminal)
            if (
                info is not None
                and info.tree_kind == "initial"
                and info.root_active
                and len(info.slot_kinds) == rule.rank
            ):
                here.discard(1)
        positions.setdefault(rule.terminal, here).intersection_update(here)
    return {t: p for t, p in positions.items() if p}, epsilon


def _drop_slots(
    rule: FbRule, drop: set[int], epsilon: dict[Nonterminal, FbRule]
) -> Optional[FbRule]:
    """Remove slots forced to the empty tree, or None if that can never succeed.

    Each dropped slot's constraint is folded into feature nodes, with
    variables shared across the rule, and its nonterminal's own
    empty-adjunction rule fires there.  What the rule keeps is
    instantiated over the same variable nodes and read back, so it shows
    any bindings.
    """
    names: dict = {}
    trail: list = []
    for i, (nt, feat) in enumerate(rule.rhs, start=1):
        if i in drop:
            node = fold(feat, names, trail)
            if node is False or derive_step(epsilon[nt], node, str(i), trail) is None:
                return None

    def kept(feat: Constraint) -> Constraint:
        terms = (read_back(instantiate(c, None, names)) for c in feat)
        return tuple(c for c in terms if not is_top(c))

    rhs = tuple(
        (nt, kept(feat)) for i, (nt, feat) in enumerate(rule.rhs, start=1) if i not in drop
    )
    return FbRule(rule.lhs, kept(rule.lhs_feat), rule.terminal, rhs)


def _eliminate_forced_slots(rules: list[FbRule], sites: dict[str, SiteInfo]) -> list[FbRule]:
    """Drop forced slots until none is left, and their kinds from `sites`.

    A terminal's leading site kinds beyond its rank have no rule slot.
    """
    while True:
        erasable, epsilon = _erasable_positions(rules, sites)
        if not erasable:
            return rules
        ranks = {rule.terminal: rule.rank for rule in rules}
        for terminal, drop in erasable.items():
            info = sites.get(terminal)
            if info is not None:
                first = 1 + ranks[terminal] - len(info.slot_kinds)
                kinds = tuple(
                    kind for i, kind in enumerate(info.slot_kinds, start=first) if i not in drop
                )
                sites[terminal] = SiteInfo(info.tree_kind, info.root_active, kinds)
        rewritten: list[FbRule] = []
        for rule in rules:
            drop = erasable.get(rule.terminal)
            updated = _drop_slots(rule, drop, epsilon) if drop else rule
            if updated is not None:
                rewritten.append(updated)
        rules = rewritten


def _productive(rules: list[FbRule]) -> set[Nonterminal]:
    """Worklist fixpoint: a rule fires once all its distinct slot
    nonterminals are known to be productive."""
    waiting: list[int] = []
    users: dict[Nonterminal, list[int]] = {}
    ready: list[Nonterminal] = []
    for i, rule in enumerate(rules):
        slots = {nt for nt, _ in rule.rhs}
        waiting.append(len(slots))
        for nt in slots:
            users.setdefault(nt, []).append(i)
        if not slots:
            ready.append(rule.lhs)
    productive: set[Nonterminal] = set()
    while ready:
        nt = ready.pop()
        if nt in productive:
            continue
        productive.add(nt)
        for i in users.get(nt, ()):
            waiting[i] -= 1
            if not waiting[i]:
                ready.append(rules[i].lhs)
    return productive


def _dfs_order(axiom: Nonterminal, rules: list[FbRule]) -> list[Nonterminal]:
    """The nonterminals reachable from the axiom, in depth-first preorder:
    rules in order, slots left to right."""
    successors: dict[Nonterminal, list[Nonterminal]] = {}
    for rule in rules:
        successors.setdefault(rule.lhs, []).extend(nt for nt, _ in rule.rhs)
    order = [axiom]
    seen = {axiom}
    stack = [iter(successors.get(axiom, ()))]
    while stack:
        for nt in stack[-1]:
            if nt not in seen:
                seen.add(nt)
                order.append(nt)
                stack.append(iter(successors.get(nt, ())))
                break
        else:
            stack.pop()
    return order


def reduce_grammar(grammar: FbRtg) -> FbRtg:
    """Drop forced empty-adjunction slots, then unproductive and
    unreachable rules; order what remains by discovery from the axiom.

    A slot is forced when its nonterminal's only rule is an
    empty-adjunction rule.  That rule fires on the slot's constraint
    through the derivation engine's `derive_step`, so a clash drops the
    whole rule and any bindings reach the constraints the rule keeps.
    Feature analysis stays local to single rules, so pruning works on
    the erased skeleton and the result can still contain rules no
    derivation satisfies.  Substitution partners of surviving
    adjunction nonterminals stay declared.  The terminals are those the
    remaining rules use, at the ranks they use them with, and a
    terminal's site entry loses the kinds of its dropped slots.  The
    root slot of an initial tree is never dropped, so the reduced
    standard and left-corner forms keep the same sites and `lc_inverse`
    and `lc_image` map between them.
    """
    sites = dict(grammar.sites)
    rules = _eliminate_forced_slots(list(grammar.rules), sites)
    productive = _productive(rules)
    rules = [r for r in rules if all(nt in productive for nt, _ in r.rhs)]
    order = _dfs_order(grammar.axiom, rules)
    ranked = {nt: i for i, nt in enumerate(order)}
    rules = [r for r in rules if r.lhs in ranked]

    declared = set(grammar.nonterminals)
    nts = dict.fromkeys(order)
    for nt in order:
        if nt.endswith(ADJOIN_SUFFIX):
            partner = nt.removesuffix(ADJOIN_SUFFIX) + SUBST_SUFFIX
            if partner in declared:
                nts.setdefault(partner)
    # Stable sort keeps the original relative order inside each group.
    rules.sort(key=lambda r: ranked[r.lhs])
    used = {r.terminal for r in rules}
    return replace(
        grammar,
        nonterminals=tuple(nts),
        terminals=tuple(sorted({(r.terminal, r.rank) for r in rules})),
        rules=tuple(rules),
        sites=tuple(sorted((t, i) for t, i in sites.items() if t in used)),
    )
