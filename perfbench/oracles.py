"""Reference computations the benchmark checks the program against.

None of these call into tagrtg's derivation engine, unification kernel
or reduction: they read grammars and trees as plain data (rule lhs,
terminal, slot nonterminals, feature entries) and compute the expected
answer by a different algorithm.

- `Automaton`: bottom-up tree automaton for plain membership.
- `count_trees`: number of distinct plain trees per exact height, by a
  dynamic program over determinized automaton states.
- `skeleton_trees`: every plain tree up to a height, from memoized
  per-(nonterminal, height) sets; the benchmark's own enumerator.
- `flat_language`: product construction for flat feature grammars
  (atoms a/b, variables ranging over them).
- `productive_reachable`: worklist fixpoints over a rule list.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product

from tagrtg.features import Atom, Avm, Var
from tagrtg.trees import DerivTree


def _postorder(tree):
    """Nodes children-first, without recursion (chains run 900 deep)."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()
    return out


class Automaton:
    """Nondeterministic bottom-up automaton whose states are nonterminals."""

    def __init__(self, grammar):
        self.axiom = grammar.axiom
        self.rules = defaultdict(list)
        for rule in grammar.rules:
            self.rules[rule.terminal, len(rule.rhs)].append(
                (rule.lhs, tuple(nt for nt, _ in rule.rhs))
            )

    def states(self, tree):
        """Map from id(node) to the set of nonterminals deriving it."""
        seen = {}
        for node in _postorder(tree):
            kids = [seen[id(child)] for child in node.children]
            seen[id(node)] = frozenset(
                lhs
                for lhs, slots in self.rules.get((node.label, len(kids)), ())
                if all(nt in kid for nt, kid in zip(slots, kids))
            )
        return seen

    def accepts(self, tree):
        return self.axiom in self.states(tree)[id(tree)]


def count_trees(grammar, max_height):
    """Distinct trees derivable from the axiom, per exact height 1..max_height.

    Trees are grouped by the set of nonterminals that derive them (the
    determinized state), so ambiguous grammars are not over-counted.
    """
    by_terminal = defaultdict(list)
    for rule in grammar.rules:
        by_terminal[rule.terminal, len(rule.rhs)].append(
            (rule.lhs, tuple(nt for nt, _ in rule.rhs))
        )
    # exact[h] maps a state set to the number of trees of height exactly h
    exact = [None]
    for height in range(1, max_height + 1):
        below = [(s, h, n) for h in range(1, height) for s, n in exact[h].items()]
        here = defaultdict(int)
        for (terminal, rank), options in by_terminal.items():
            if rank == 0:
                if height == 1:
                    state = frozenset(lhs for lhs, _ in options)
                    here[state] += 1
                continue
            if height == 1:
                continue
            for combo in product(below, repeat=rank):
                if max(h for _, h, _ in combo) != height - 1:
                    continue
                state = frozenset(
                    lhs
                    for lhs, slots in options
                    if all(nt in s for nt, (s, _, _) in zip(slots, combo))
                )
                if state:
                    ways = 1
                    for _, _, n in combo:
                        ways *= n
                    here[state] += ways
        exact.append({s: n for s, n in here.items() if s})
    return [
        sum(n for s, n in exact[h].items() if grammar.axiom in s)
        for h in range(1, max_height + 1)
    ]


def skeleton_trees(grammar, max_height, start=None):
    """Every distinct plain tree of height <= max_height from `start`."""
    by_lhs = defaultdict(list)
    for rule in grammar.rules:
        by_lhs[rule.lhs].append((rule.terminal, tuple(nt for nt, _ in rule.rhs)))
    memo = {}

    def trees(nt, height):
        key = (nt, height)
        if key not in memo:
            out = set()
            if height >= 1:
                for terminal, slots in by_lhs.get(nt, ()):
                    kids = [trees(child, height - 1) for child in slots]
                    out.update(DerivTree(terminal, combo) for combo in product(*kids))
            memo[key] = out
        return memo[key]

    return trees(grammar.axiom if start is None else start, max_height)


def tree_size(tree):
    return len(_postorder(tree))


def tree_height(tree):
    heights = {}
    for node in _postorder(tree):
        heights[id(node)] = 1 + max((heights[id(c)] for c in node.children), default=0)
    return heights[id(tree)]


def format_plain(tree):
    """`label(child, ...)`, written without the program's formatter."""
    parts, stack = [], [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(item.label)
        if item.children:
            stack.append(")")
            for i, child in enumerate(reversed(item.children)):
                stack.append(child)
                if i < len(item.children) - 1:
                    stack.append(", ")
            stack.append("(")
    return "".join(parts)


# ------------------------------------------------ flat feature grammars

ATOMS = ("a", "b")


def _ground(constraint, theta):
    """Fold a conjunction of flat AVMs under a ground assignment.

    Returns a frozenset of (attribute, atom) pairs, or None on a clash.
    """
    merged = {}
    for term in constraint:
        if not isinstance(term, Avm):
            raise ValueError(f"not a flat AVM: {term!r}")
        for key, value in term.entries:
            if isinstance(value, Var):
                value = theta[value.name]
            elif isinstance(value, Atom):
                value = value.name
            else:
                raise ValueError(f"not a flat value: {value!r}")
            if merged.setdefault(key, value) != value:
                return None
    return frozenset(merged.items())


def _compatible(a, b):
    da = dict(a)
    return all(da.get(key, value) == value for key, value in b)


def _flat_vars(constraint):
    return {v.name for term in constraint for _, v in term.entries if isinstance(v, Var)}


def flat_language(grammar, max_height):
    """Trees of height <= max_height of a flat feature grammar.

    Every variable ranges over the atoms a/b; a rule instance fires at a
    state (nonterminal, ground term) when its ground left-hand side is
    compatible with the state's term, and sends each slot to the state
    of its own ground term.
    """
    instances = []
    for rule in grammar.rules:
        names = sorted(
            _flat_vars(rule.lhs_feat).union(*(_flat_vars(feat) for _, feat in rule.rhs))
        )
        for combo in product(ATOMS, repeat=len(names)):
            theta = dict(zip(names, combo))
            lhs = _ground(rule.lhs_feat, theta)
            slots = [(nt, _ground(feat, theta)) for nt, feat in rule.rhs]
            if lhs is not None and all(g is not None for _, g in slots):
                instances.append((rule.lhs, lhs, rule.terminal, tuple(slots)))
    memo = {}

    def language(nt, feat, height):
        key = (nt, feat, height)
        if key not in memo:
            out = set()
            if height >= 1:
                for lhs, lhs_ground, terminal, slots in instances:
                    if lhs != nt or not _compatible(feat, lhs_ground):
                        continue
                    kids = [language(c, g, height - 1) for c, g in slots]
                    out.update(DerivTree(terminal, combo) for combo in product(*kids))
            memo[key] = out
        return memo[key]

    return language(grammar.axiom, frozenset(), max_height)


# ----------------------------------------------------------- reduction


def productive_reachable(axiom, rules):
    """Productive nonterminals, and those reachable from the axiom
    through rules whose slots are all productive; both by worklists."""
    waiting = defaultdict(list)
    missing = []
    productive = set()
    queue = []
    for index, rule in enumerate(rules):
        slots = {nt for nt, _ in rule.rhs}
        missing.append(len(slots))
        for nt in slots:
            waiting[nt].append(index)
        if not slots:
            queue.append(rule.lhs)
    while queue:
        nt = queue.pop()
        if nt in productive:
            continue
        productive.add(nt)
        for index in waiting[nt]:
            missing[index] -= 1
            if missing[index] == 0:
                queue.append(rules[index].lhs)
    by_lhs = defaultdict(list)
    for rule in rules:
        if all(nt in productive for nt, _ in rule.rhs):
            by_lhs[rule.lhs].append(rule)
    reachable = {axiom}
    queue = [axiom]
    while queue:
        for rule in by_lhs[queue.pop()]:
            for nt, _ in rule.rhs:
                if nt not in reachable:
                    reachable.add(nt)
                    queue.append(nt)
    return productive, reachable


def parse_plain(text):
    """Inverse of `format_plain`, iterative; labels may contain spaces."""
    stack = [[None, []]]
    label = []

    def flush():
        name = " ".join("".join(label).split())
        label.clear()
        return name

    for ch in text:
        if ch == "(":
            stack.append([flush(), []])
        elif ch in ",)":
            name = flush()
            if name:
                stack[-1][1].append(DerivTree(name))
            if ch == ")":
                head, kids = stack.pop()
                stack[-1][1].append(DerivTree(head, tuple(kids)))
        else:
            label.append(ch)
    name = flush()
    if name:
        stack[-1][1].append(DerivTree(name))
    if len(stack) != 1 or len(stack[0][1]) != 1:
        raise ValueError(f"not a tree: {text!r}")
    return stack[0][1][0]
