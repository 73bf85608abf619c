"""Regular tree grammars over derivation trees, plain and feature-based.

A rule rewrites a nonterminal into a terminal applied to rewritten
slots.  Every position carries a constraint: a conjunction of feature
terms that is folded by unification when the rule fires.  Plain
grammars are the degenerate case where every constraint is empty.

Rewriting is leftmost.  Variables are renamed apart by prefixing them
with the Gorn address of the rewritten occurrence.  Open leaves carry
feature nodes, and a rule's constraints are unified into them in place,
so bindings made deep inside one subtree reach open leaves elsewhere
through the nodes they share; backtracking undoes the kernel's trail.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, Optional

from tagrtg.features import (
    Avm,
    FeatureTerm,
    Substitution,
    bindings,
    fold,
    format_feature,
    instantiate,
    is_top,
    read_back,
    undo,
    unify_nodes,
)
from tagrtg.trees import ROOT, DerivTree, child_position

EPS_SUBST = "e_S"
EPS_ADJOIN = "e_A"


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

    @functools.cached_property
    def top_slots(self) -> Optional[tuple[None, ...]]:
        """One top slot node (None) per slot when no position carries a
        constraint, so firing the rule needs no unification; None when
        one does.  Worked out on first use, once per rule."""
        if self.lhs_feat or any(feat for _, feat in self.rhs):
            return None
        return (None,) * len(self.rhs)

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
    which derivations try their candidates.
    """

    def __init__(self, grammar: FbRtg):
        self.ranks: dict[str, int] = dict(grammar.terminals)
        self.sites: dict[str, SiteInfo] = dict(grammar.sites)
        self.by_lhs: dict[Nonterminal, list[FbRule]] = {}
        self.by_shape: dict[tuple[Nonterminal, str, int], list[FbRule]] = {}
        for rule in grammar.rules:
            self.by_lhs.setdefault(rule.lhs, []).append(rule)
            self.by_shape.setdefault((rule.lhs, rule.terminal, rule.rank), []).append(rule)


@dataclass(frozen=True)
class FbRtg:
    axiom: Nonterminal
    nonterminals: tuple[Nonterminal, ...]
    terminals: tuple[tuple[str, int], ...]
    rules: tuple[FbRule, ...]
    form: str = "standard"
    sites: tuple[tuple[str, SiteInfo], ...] = ()

    @functools.cached_property
    def index(self) -> GrammarIndex:
        """Built on first use; not a field, so equality, hashing, repr and
        dataclasses.replace ignore it."""
        return GrammarIndex(self)

    def validate(self) -> None:
        declared = set(self.nonterminals)
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
        for name, _ in self.sites:
            if name not in ranks:
                raise AlphabetError(f"site entry for undeclared terminal {name!r}")


# ------------------------------------------------------------ derivation


def derive_step(rule: FbRule, leaf, prefix: str, trail: list) -> Optional[tuple]:
    """Fire `rule` at an open leaf whose feature node is `leaf` (None
    stands for top).

    Rule variables are renamed apart with the leaf's Gorn address.  The
    left-hand constraint is folded and unified with the leaf, then each
    slot constraint is folded in turn; variables shared between them are
    shared nodes.  Returns the slot nodes, or None on a clash.  Bindings
    go on `trail`, and the caller undoes them, on failure too.  A rule
    without any constraint returns its all-top `top_slots` at once and
    leaves the kernel and the trail untouched.
    """
    slots = rule.top_slots
    if slots is not None:
        return slots
    names: dict = {}
    lhs = fold(rule.lhs_feat, prefix, names, trail)
    if lhs is False:
        return None
    if lhs is not None and leaf is not None and not unify_nodes(lhs, leaf, trail):
        return None
    slots = []
    for _, feat in rule.rhs:
        node = fold(feat, prefix, names, trail)
        if node is False:
            return None
        slots.append(node)
    return tuple(slots)


def _derivations(grammar, root, expand, fail, trail, step=None):
    """Every leftmost derivation from the axiom, depth first, backtracking
    over an explicit stack of frames, one per rewrite on the current path.

    A leaf is (position, guide, nonterminal, feature node); the pending
    leaves form a linked list (leaf, rest).  `expand(index, leaf)`
    returns the rules to try at the leaf that step `index` rewrites, in
    order, and the guides of a rule's slots; `fail(index, leaf, rule)`
    hears of each rule that does not fire, with its bindings undone.
    Each frame remembers the trail length it started at and undoes to
    it before each candidate and when it is popped.  A complete
    derivation comes out as a chain of steps (position, rule, trail
    mark, previous step, value), last step first, with its bindings
    still on `trail`; step k made the bindings between its mark and the
    next.  Without `step` every value is None; with it, a step's value
    is `step(value of the previous step, rule)`, computed once, when the
    step fires, and shared by every derivation that extends it.  Closing
    the generator after it yields leaves that derivation's bindings on
    `trail`, for the caller to read back.
    """
    leaf = (ROOT, root, grammar.axiom, None)
    rules, guides = expand(1, leaf)
    stack = [(iter(rules), leaf, None, None, None, guides, len(trail))]
    while stack:
        rules, leaf, pending, chain, value, guides, mark = stack[-1]
        pos, _, _, node = leaf
        for rule in rules:
            undo(trail, mark)
            slots = derive_step(rule, node, pos, trail)
            if slots is None:
                undo(trail, mark)
                fail(len(stack), leaf, rule)
                continue
            grown = [
                (child_position(pos, i), guide, slot_nt, slot)
                for i, ((slot_nt, _), slot, guide) in enumerate(
                    zip(rule.rhs, slots, guides), start=1
                )
            ]
            rest = pending
            for kid in reversed(grown):
                rest = (kid, rest)
            link = (pos, rule, mark, chain, None if step is None else step(value, rule))
            if rest is None:
                yield link
                continue
            below, rest = rest
            below_rules, below_guides = expand(len(stack) + 1, below)
            stack.append(
                (iter(below_rules), below, rest, link, link[4], below_guides, len(trail))
            )
            break
        else:
            undo(trail, mark)
            stack.pop()


def _counted(rules, stats):
    """Count each rule as attempted when the engine takes it, so a run
    that stops early counts only what it tried."""
    for rule in rules:
        stats["steps"] += 1
        yield rule


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
    by_lhs = grammar.index.by_lhs
    leaf_rules = {nt: [r for r in rules if not r.rhs] for nt, rules in by_lhs.items()}
    leaves = {r.terminal: DerivTree(r.terminal) for r in grammar.rules if not r.rhs}

    def expand(index, leaf):
        _, depth, nt, _ = leaf
        rules = by_lhs.get(nt, ()) if depth < max_depth else leaf_rules.get(nt, ())
        if stats is not None:
            rules = _counted(rules, stats)
        return rules, repeat(depth + 1)

    def fail(index, leaf, rule):
        if stats is not None:
            stats["failures"] += 1

    def grow(tree, rule):
        # A partial tree is a stack of open nodes (label, rank, finished
        # children, parent), None below the root.  Leftmost steps come in
        # preorder, so a leaf closes every open node it completes; the
        # step that closes the root gives the finished tree.
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

    trees = (link[4] for link in _derivations(grammar, 1, expand, fail, [], grow))
    if all(len(rules) == 1 for rules in grammar.index.by_shape.values()):
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
    `steps` and `env` are read back from the accepting derivation's step
    chain and trail when either is first read, and `failure` is formatted
    from the deepest clash when it is first read; each is computed once.
    The result owns its trail: no later check touches the nodes on it.
    A rejected tree has no steps and the identity environment; an
    accepted one has no failure and no failure position.
    """

    __slots__ = ("_accepted", "_failure_position", "_failure", "_chain", "_trail", "_trace")

    def __init__(self, accepted: bool, failure_position, failure, chain, trail: list):
        self._accepted = accepted
        self._failure_position = failure_position
        self._failure = failure
        self._chain = chain
        self._trail = trail
        self._trace = None

    @property
    def accepted(self) -> bool:
        return self._accepted

    @property
    def failure_position(self) -> Optional[str]:
        return self._failure_position

    @property
    def failure(self) -> Optional[str]:
        failure = self._failure
        if type(failure) is tuple:
            rule, feat = failure
            failure = f"cannot apply {rule}: constraint clash with {format_feature(feat)}"
            self._failure = failure
        return failure

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        return self._read_back()[0]

    @property
    def env(self) -> Substitution:
        return self._read_back()[1]

    def _read_back(self) -> tuple[tuple[TraceStep, ...], Substitution]:
        if self._trace is None:
            trail = self._trail
            env = bindings(trail)
            # Walk the chain backwards: each step's bindings are the trail
            # segment it added, read back before the segment is undone.
            links = []
            chain = self._chain
            while chain is not None:
                pos, rule, mark, chain, _ = chain
                links.append((pos, rule, bindings(trail, mark)))
                undo(trail, mark)
            steps = tuple(
                TraceStep(index, pos, rule, delta)
                for index, (pos, rule, delta) in enumerate(reversed(links), start=1)
            )
            self._trace = (steps, env)
            self._chain = self._trail = None
        return self._trace


def _check_alphabet(grammar: FbRtg, tree: DerivTree) -> None:
    """Walk the tree in preorder; only a bad node's address is built."""
    ranks = grammar.index.ranks
    for node in tree.nodes():
        rank = ranks.get(node.label)
        if rank != len(node.children):
            pos = next(where for where, seen in tree.positions() if seen is node)
            if rank is None:
                raise AlphabetError(f"unknown terminal {node.label!r} at {pos}")
            raise AlphabetError(
                f"terminal {node.label!r} at {pos} has rank {rank}, "
                f"found {len(node.children)} children"
            )


def accepts_detailed(grammar: FbRtg, tree: DerivTree) -> CheckResult:
    """Check tree membership top-down, leftmost, with backtracking.

    The verdict comes back at once; the trace, the environment and the
    clash message are worked out only when the result's `steps`, `env`
    or `failure` is first read.  On success the trace lists every rule
    application with the bindings it introduced.  On failure the
    diagnostics point at the deepest position any candidate run reached
    before getting stuck.
    """
    _check_alphabet(grammar, tree)
    by_shape = grammar.index.by_shape
    # The leaf of a failed rule is read back only when that failure
    # becomes the deepest; the result formats the message.
    deepest = {"index": 0, "pos": ROOT, "msg": "no rule applied"}

    def note(index, pos, msg):
        if index >= deepest["index"]:
            deepest.update(index=index, pos=pos, msg=msg)

    def expand(index, leaf):
        pos, node, nt, _ = leaf
        rules = by_shape.get((nt, node.label, len(node.children)))
        if not rules:
            note(index, pos, f"no rule rewrites {nt} to {node.label!r}")
            return (), ()
        return rules, node.children

    def fail(index, leaf, rule):
        if index >= deepest["index"]:
            note(index, leaf[0], (rule, read_back(leaf[3])))

    trail: list = []
    derivations = _derivations(grammar, tree, expand, fail, trail)
    chain = next(derivations, None)
    derivations.close()
    if chain is None:
        return CheckResult(False, deepest["pos"], deepest["msg"], None, trail)
    return CheckResult(True, None, None, chain, trail)


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
    empty-adjunction rule fires there.  If that bound anything, what
    the rule keeps is instantiated over the same variable nodes and read
    back, so it shows the bindings.
    """
    names: dict = {}
    trail: list = []
    for i, (nt, feat) in enumerate(rule.rhs, start=1):
        if i in drop:
            node = fold(feat, None, names, trail)
            if node is False or derive_step(epsilon[nt], node, str(i), trail) is None:
                return None

    def kept(feat: Constraint) -> Constraint:
        terms = (read_back(instantiate(c, None, names)) for c in feat) if trail else feat
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
