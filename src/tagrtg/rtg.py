"""Regular tree grammars over derivation trees, plain and feature-based.

A rule rewrites a nonterminal into a terminal applied to rewritten
slots.  Every position carries a constraint: a conjunction of feature
terms that is folded by unification when the rule fires.  Plain
grammars are the degenerate case where every constraint is empty.

Rewriting is leftmost.  Variables are renamed apart by prefixing them
with the Gorn address of the rewritten occurrence, so bindings made
deep inside one subtree reach open leaves elsewhere through the
accumulated substitution.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from tagrtg.features import (
    IDENTITY,
    TOP,
    FeatureTerm,
    Substitution,
    apply,
    compose,
    format_feature,
    freshen,
    is_top,
    unify,
    unify_all,
)
from tagrtg.trees import ROOT, DerivTree, child_position

EPS_SUBST = "e_S"
EPS_ADJOIN = "e_A"


class Flavor(enum.Enum):
    PLAIN = ""
    SUBST = "_S"
    ADJOIN = "_A"


@dataclass(frozen=True)
class Nonterminal:
    base: str
    flavor: Flavor = Flavor.PLAIN

    def __str__(self) -> str:
        return self.base + self.flavor.value


def parse_nonterminal(text: str) -> Nonterminal:
    """The suffixes _S and _A are reserved for the two site flavors."""
    if text.endswith("_S"):
        return Nonterminal(text[:-2], Flavor.SUBST)
    if text.endswith("_A"):
        return Nonterminal(text[:-2], Flavor.ADJOIN)
    return Nonterminal(text)


Constraint = tuple[FeatureTerm, ...]
Slot = tuple[Nonterminal, Constraint]


def format_constraint(feat: Constraint) -> str:
    return " & ".join(format_feature(c) for c in feat)


def _format_slot(nt: Nonterminal, feat: Constraint) -> str:
    return f"{nt} {format_constraint(feat)}" if feat else str(nt)


@dataclass(frozen=True)
class FbRule:
    lhs: Nonterminal
    lhs_feat: Constraint
    terminal: str
    rhs: tuple[Slot, ...]

    @property
    def rank(self) -> int:
        return len(self.rhs)

    def __str__(self) -> str:
        left = _format_slot(self.lhs, self.lhs_feat)
        if not self.rhs:
            return f"{left} -> {self.terminal}"
        inner = ", ".join(_format_slot(nt, feat) for nt, feat in self.rhs)
        return f"{left} -> {self.terminal}({inner})"


@dataclass(frozen=True)
class SiteInfo:
    """What the original elementary tree looked like around a terminal.

    `slot_kinds` lists the site kinds of the active nodes in preorder,
    so it keeps full tree arity even for rule forms that move or drop
    slots.  The inverse transformation dispatches on it.
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


class PositionError(GrammarError):
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

    def terminal_rank(self, name: str) -> Optional[int]:
        return self.index.ranks.get(name)

    def site(self, terminal: str) -> Optional[SiteInfo]:
        return self.index.sites.get(terminal)

    @property
    def is_plain(self) -> bool:
        return all(
            not rule.lhs_feat and all(not feat for _, feat in rule.rhs)
            for rule in self.rules
        )

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


def derive_step(
    rule: FbRule, leaf_feat: FeatureTerm, prefix: str
) -> Optional[tuple[Substitution, tuple[FeatureTerm, ...]]]:
    """Fire `rule` at an open leaf carrying `leaf_feat`.

    Rule variables are renamed apart with the leaf's Gorn address.  The
    left-hand constraint is folded, matched against the leaf, and each
    slot constraint folded in turn; every unifier feeds the next fold.
    Returns the step substitution and the slot feature terms, or None.
    """
    folded = unify_all(freshen(c, prefix) for c in rule.lhs_feat)
    if folded is None:
        return None
    lhs_term, sigma = folded
    step = unify(lhs_term, apply(sigma, leaf_feat))
    if step is None:
        return None
    _, new = step
    sigma = compose(new, sigma)
    slot_terms = []
    for _, feat in rule.rhs:
        fold = unify_all(apply(sigma, freshen(c, prefix)) for c in feat)
        if fold is None:
            return None
        term, new = fold
        sigma = compose(new, sigma)
        slot_terms.append(term)
    # Later folds may refine earlier slots through shared variables.
    return sigma, tuple(apply(sigma, t) for t in slot_terms)


@dataclass(frozen=True)
class OpenLeaf:
    nt: Nonterminal
    feat: FeatureTerm = TOP


@dataclass(frozen=True)
class SApp:
    terminal: str
    children: tuple[SententialTerm, ...] = ()


SententialTerm = Union[OpenLeaf, SApp]


@dataclass(frozen=True)
class SententialState:
    """A sentential term together with the accumulated environment.

    Open leaves store their feature terms as written by the rules that
    created them; the environment is applied when a leaf is rewritten,
    so bindings travel between branches.
    """

    term: SententialTerm
    env: Substitution = IDENTITY


def initial_state(grammar: FbRtg) -> SententialState:
    return SententialState(OpenLeaf(grammar.axiom, TOP), IDENTITY)


def _leaf_at(term: SententialTerm, position: str) -> OpenLeaf:
    steps = [] if position == ROOT else position.split(".")
    here = ROOT
    for step in steps:
        if not isinstance(term, SApp) or not step.isdigit():
            raise PositionError(f"no open leaf at {position}: stuck at {here}")
        index = int(step)
        if not 1 <= index <= len(term.children):
            raise PositionError(f"no open leaf at {position}: stuck at {here}")
        term = term.children[index - 1]
        here = child_position(here, index)
    if not isinstance(term, OpenLeaf):
        raise PositionError(f"position {position} is already rewritten")
    return term


def _replace_at(term: SententialTerm, position: str, new: SententialTerm) -> SententialTerm:
    if position == ROOT:
        return new
    steps = [int(s) for s in position.split(".")]

    def rebuild(node, depth):
        if depth == len(steps):
            return new
        index = steps[depth] - 1
        children = list(node.children)
        children[index] = rebuild(children[index], depth + 1)
        return SApp(node.terminal, tuple(children))

    return rebuild(term, 0)


def narrow(state: SententialState, position: str, rule: FbRule) -> Optional[SententialState]:
    """Rewrite the open leaf at `position` with `rule`, unifying as we go.

    The environment is applied to the leaf's constraint first, the step
    unifier is composed onto the environment afterwards.  Returns None
    when unification fails; raises PositionError when the address does
    not hold an open leaf and NonterminalMismatch when the rule does
    not rewrite the leaf's nonterminal.
    """
    leaf = _leaf_at(state.term, position)
    if leaf.nt != rule.lhs:
        raise NonterminalMismatch(f"rule rewrites {rule.lhs}, leaf at {position} holds {leaf.nt}")
    step = derive_step(rule, apply(state.env, leaf.feat), position)
    if step is None:
        return None
    sigma, slot_terms = step
    grown = SApp(
        rule.terminal,
        tuple(OpenLeaf(nt, term) for (nt, _), term in zip(rule.rhs, slot_terms)),
    )
    return SententialState(_replace_at(state.term, position, grown), compose(sigma, state.env))


def open_positions(state: SententialState) -> tuple[tuple[str, OpenLeaf], ...]:
    """The addresses still waiting for a rewrite, leftmost first."""
    found: list[tuple[str, OpenLeaf]] = []

    def scan(term, pos):
        if isinstance(term, OpenLeaf):
            found.append((pos, term))
            return
        for i, child in enumerate(term.children, start=1):
            scan(child, child_position(pos, i))

    scan(state.term, ROOT)
    return tuple(found)


def enumerate_trees(
    grammar: FbRtg,
    max_depth: int,
    strategy: str = "leftmost",
    stats: Optional[dict] = None,
) -> Iterator[DerivTree]:
    """Generate the derivation trees of height at most `max_depth`.

    The depth bound is mandatory: feature constraints frequently leave
    the language infinite.  Trees come out in rule order under the
    chosen rewriting strategy, and distinct runs that assemble the same
    tree yield it once; `stats`, when given, accumulates the number of
    attempted and failed rule applications.
    """
    if max_depth < 1:
        return
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pick = 0 if strategy == "leftmost" else -1
    if stats is not None:
        stats.setdefault("steps", 0)
        stats.setdefault("failures", 0)
    start = ((ROOT, 1, grammar.axiom, TOP),)
    seen = set()
    for assignment in _expand(grammar, start, pick, max_depth, stats):
        tree = _build(assignment, ROOT)
        if tree not in seen:
            seen.add(tree)
            yield tree


def _expand(grammar, obligations, pick, max_depth, stats):
    if not obligations:
        yield {}
        return
    index = pick if pick == 0 else len(obligations) - 1
    pos, depth, nt, feat = obligations[index]
    rest = obligations[:index] + obligations[index + 1 :]
    for rule in grammar.index.by_lhs.get(nt, ()):
        if rule.rhs and depth >= max_depth:
            continue
        if stats is not None:
            stats["steps"] += 1
        step = derive_step(rule, feat, pos)
        if step is None:
            if stats is not None:
                stats["failures"] += 1
            continue
        sigma, slot_terms = step
        grown = tuple(
            (child_position(pos, i), depth + 1, slot_nt, term)
            for i, ((slot_nt, _), term) in enumerate(zip(rule.rhs, slot_terms), start=1)
        )
        updated = tuple((p, d, n, apply(sigma, f)) for p, d, n, f in rest)
        if pick == 0:
            remaining = grown + updated
        else:
            remaining = updated + grown
        for assignment in _expand(grammar, remaining, pick, max_depth, stats):
            assignment[pos] = (rule.terminal, rule.rank)
            yield assignment


def _build(assignment, pos):
    label, rank = assignment[pos]
    children = tuple(_build(assignment, child_position(pos, i)) for i in range(1, rank + 1))
    return DerivTree(label, children)


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


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    steps: tuple[TraceStep, ...]
    env: Substitution
    failure: Optional[str] = None
    failure_position: Optional[str] = None


def _check_alphabet(grammar: FbRtg, tree: DerivTree) -> None:
    for pos, node in tree.positions():
        rank = grammar.terminal_rank(node.label)
        if rank is None:
            raise AlphabetError(f"unknown terminal {node.label!r} at {pos}")
        if rank != len(node.children):
            raise AlphabetError(
                f"terminal {node.label!r} at {pos} has rank {rank}, "
                f"found {len(node.children)} children"
            )


def accepts_detailed(grammar: FbRtg, tree: DerivTree) -> CheckResult:
    """Check tree membership top-down, leftmost, with backtracking.

    On success the trace lists every rule application with the bindings
    it introduced.  On failure the diagnostics point at the deepest
    position any candidate run reached before getting stuck.
    """
    _check_alphabet(grammar, tree)
    by_shape = grammar.index.by_shape
    deepest = {"index": 0, "pos": ROOT, "msg": "no rule applied"}

    def note(index, pos, msg):
        if index >= deepest["index"]:
            deepest.update(index=index, pos=pos, msg=msg)

    def walk(obligations, env, trace):
        if not obligations:
            return trace, env
        (pos, node, nt, feat), rest = obligations[0], obligations[1:]
        index = len(trace) + 1
        candidates = by_shape.get((nt, node.label, len(node.children)))
        if not candidates:
            note(index, pos, f"no rule rewrites {nt} to {node.label!r}")
            return None
        for rule in candidates:
            step = derive_step(rule, feat, pos)
            if step is None:
                note(index, pos, f"cannot apply {rule}: constraint clash with {format_feature(feat)}")
                continue
            sigma, slot_terms = step
            grown = tuple(
                (child_position(pos, i), child, slot_nt, term)
                for i, (child, (slot_nt, _), term) in enumerate(
                    zip(node.children, rule.rhs, slot_terms), start=1
                )
            )
            updated = tuple((p, n, k, apply(sigma, f)) for p, n, k, f in rest)
            result = walk(
                grown + updated,
                compose(sigma, env),
                trace + (TraceStep(index, pos, rule, sigma),),
            )
            if result is not None:
                return result
        return None

    outcome = walk(((ROOT, tree, grammar.axiom, TOP),), IDENTITY, ())
    if outcome is None:
        return CheckResult(
            accepted=False,
            steps=(),
            env=IDENTITY,
            failure=deepest["msg"],
            failure_position=deepest["pos"],
        )
    trace, env = outcome
    return CheckResult(accepted=True, steps=trace, env=env)


def accepts(grammar: FbRtg, tree: DerivTree) -> bool:
    return accepts_detailed(grammar, tree).accepted


# ------------------------------------------------------ erasure, reduction


def erase_features(grammar: FbRtg) -> FbRtg:
    """Forget every constraint; duplicate rule skeletons collapse."""
    seen = set()
    rules = []
    for rule in grammar.rules:
        bare = FbRule(rule.lhs, (), rule.terminal, tuple((nt, ()) for nt, _ in rule.rhs))
        if bare not in seen:
            seen.add(bare)
            rules.append(bare)
    return FbRtg(
        axiom=grammar.axiom,
        nonterminals=grammar.nonterminals,
        terminals=grammar.terminals,
        rules=tuple(rules),
        form=grammar.form,
        sites=grammar.sites,
    )


def _fold_constraint(feat: Constraint) -> Optional[tuple[FeatureTerm, Substitution]]:
    return unify_all(feat)


def _forced_epsilon(slot_feat: Constraint) -> Optional[Substitution]:
    """Substitution induced by the slot only ever deriving the empty tree.

    The empty adjunction rule carries [top: ?v, bot: ?v], so applying it
    amounts to unifying the slot's top with its bottom.
    """
    folded = _fold_constraint(slot_feat)
    if folded is None:
        return None
    term, sigma = folded
    if is_top(term):
        return sigma
    top = term.get("top") or TOP
    bot = term.get("bot") or TOP
    step = unify(top, bot)
    if step is None:
        return None
    return compose(step[1], sigma)


def _slot_offset(grammar: FbRtg, terminal: str) -> int:
    """Rule slot i corresponds to slot_kinds[i - 1 + offset]."""
    info = grammar.site(terminal)
    if info is None:
        return 0
    if grammar.form == "lc" and info.tree_kind == "initial" and info.root_active:
        return 1
    return 0


def _erasable_positions(grammar: FbRtg, rules: list[FbRule]) -> dict[str, set[int]]:
    """Rule positions that can only ever derive the empty adjunction tree.

    A nonterminal qualifies when all its rules are empty-adjunction
    rules.  A position is dropped only if it qualifies in every rule of
    its terminal, which keeps terminal ranks consistent.
    """
    by_lhs: dict[Nonterminal, list[FbRule]] = {}
    for rule in rules:
        by_lhs.setdefault(rule.lhs, []).append(rule)
    eps_only = {
        nt
        for nt, own in by_lhs.items()
        if nt.flavor is Flavor.ADJOIN
        and all(r.terminal == EPS_ADJOIN and not r.rhs for r in own)
    }
    positions: dict[str, set[int]] = {}
    for rule in rules:
        here = {i for i, (nt, _) in enumerate(rule.rhs, start=1) if nt in eps_only}
        if rule.terminal in positions:
            positions[rule.terminal] &= here
        else:
            positions[rule.terminal] = here
    return {t: p for t, p in positions.items() if p}


def _drop_slots(rule: FbRule, drop: set[int]) -> Optional[FbRule]:
    """Remove slots forced to the empty tree, or None if that can never succeed."""
    sigma = IDENTITY
    kept: list[Slot] = []
    for i, (nt, feat) in enumerate(rule.rhs, start=1):
        feat = tuple(apply(sigma, c) for c in feat)
        if i in drop:
            forced = _forced_epsilon(feat)
            if forced is None:
                return None
            sigma = compose(forced, sigma)
        else:
            kept.append((nt, feat))
    lhs_feat = tuple(apply(sigma, c) for c in rule.lhs_feat)
    rhs = tuple((nt, tuple(apply(sigma, c) for c in feat)) for nt, feat in kept)
    lhs_feat = tuple(c for c in lhs_feat if not is_top(c))
    rhs = tuple((nt, tuple(c for c in feat if not is_top(c))) for nt, feat in rhs)
    return FbRule(rule.lhs, lhs_feat, rule.terminal, rhs)


def _eliminate_forced_slots(grammar: FbRtg, rules: list[FbRule]):
    terminals = dict(grammar.terminals)
    sites = dict(grammar.sites)
    while True:
        erasable = _erasable_positions(grammar, rules)
        if not erasable:
            return rules, terminals, sites
        rewritten: list[FbRule] = []
        for rule in rules:
            drop = erasable.get(rule.terminal, set())
            updated = _drop_slots(rule, drop) if drop else rule
            if updated is not None:
                rewritten.append(updated)
        for terminal, drop in erasable.items():
            terminals[terminal] -= len(drop)
            if terminal in sites:
                info = sites[terminal]
                offset = _slot_offset(grammar, terminal)
                kinds = tuple(
                    kind
                    for i, kind in enumerate(info.slot_kinds)
                    if i - offset + 1 not in drop
                )
                sites[terminal] = SiteInfo(info.tree_kind, info.root_active, kinds)
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

    Feature analysis stays local to single rules, so pruning works on
    the erased skeleton and the result can still contain rules no
    derivation satisfies.  Substitution partners of surviving
    adjunction nonterminals stay declared.
    """
    rules, terminals, sites = _eliminate_forced_slots(grammar, list(grammar.rules))
    productive = _productive(rules)
    rules = [r for r in rules if all(nt in productive for nt, _ in r.rhs)]
    order = _dfs_order(grammar.axiom, rules)
    reachable = set(order)
    rules = [r for r in rules if r.lhs in reachable]

    nts = [nt for nt in order]
    for nt in order:
        if nt.flavor is Flavor.ADJOIN:
            partner = Nonterminal(nt.base, Flavor.SUBST)
            if partner in grammar.nonterminals and partner not in nts:
                nts.append(partner)
    ranked = {nt: i for i, nt in enumerate(order)}
    # Stable sort keeps the original relative order inside each group.
    ordered_rules = sorted(rules, key=lambda r: ranked[r.lhs])
    used_terminals = {r.terminal for r in ordered_rules}
    return FbRtg(
        axiom=grammar.axiom,
        nonterminals=tuple(nts),
        terminals=tuple(sorted((t, k) for t, k in terminals.items() if t in used_terminals)),
        rules=tuple(ordered_rules),
        form=grammar.form,
        sites=tuple(sorted((t, i) for t, i in sites.items() if t in used_terminals)),
    )
