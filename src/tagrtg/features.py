"""Feature structures: a term view over a graph unification kernel.

A feature term is an atom, a variable, or an attribute-value map (AVM).
The empty AVM is the top element: it carries no information and unifies
with anything.  AVM unification is pointwise on the union of the
attributes, so an attribute missing on one side is unconstrained there.

Unification runs on mutable feature nodes (Huet's union-find over
feature graphs): a node is a variable or an AVM whose arcs live in a
dict, and atoms stay `Atom`.  Unifying two nodes forwards one to the
other's representative, so every path that shares a node sees what
later unifications add to it; the occurs check then walks the result,
unless `compile_fire` showed, when it compiled the rule, that the join
cannot close a cycle.
Each forwarding and added arc goes on a trail that `undo` pops back to
a mark, so a search backtracks without copying.  `compile_fire` turns a
rule into one function, compiled once per rule shape, that builds its
fresh nodes and unifies them; `instantiate` and `fold` do the same term
by term.  `read_back` turns nodes into terms, `bindings` reads what a
trail bound.  `unify`, `unify_all`, `apply`, `compose` and `freshen` are
a term view no library module calls, kept off the package surface for
the law tests and the benchmark's tracer, which looks them up by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional


class FeatureTerm:
    """Base class for atoms, variables and AVMs."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_feature(self)


@dataclass(frozen=True)
class Atom(FeatureTerm):
    name: str


@dataclass(frozen=True)
class Var(FeatureTerm):
    name: str


class Avm(FeatureTerm):
    """Attribute-value map with unique keys and normalized entries.

    Entries whose value normalizes to top are dropped at construction,
    so `[agr: []]` and `[]` are the same term.  Entry order is kept for
    printing but ignored by equality and hashing.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[str, FeatureTerm]] = ()):
        kept: list[tuple[str, FeatureTerm]] = []
        seen: set[str] = set()
        for key, value in entries:
            if key in seen:
                raise ValueError(f"duplicate attribute {key!r}")
            seen.add(key)
            if not is_top(value):
                kept.append((key, value))
        object.__setattr__(self, "entries", tuple(kept))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Avm is immutable")

    def __reduce__(self):
        return Avm, (self.entries,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Avm):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash(frozenset(self.entries))

    def __repr__(self) -> str:
        return f"Avm({list(self.entries)!r})"


TOP = Avm()


def is_top(term: FeatureTerm) -> bool:
    return isinstance(term, Avm) and not term.entries


@dataclass(frozen=True)
class Substitution:
    """Finite map from variable names to feature terms."""

    bindings: dict[str, FeatureTerm] = field(default_factory=dict)

    def is_identity(self) -> bool:
        return not self.bindings

    def items(self) -> Iterator[tuple[str, FeatureTerm]]:
        return iter(sorted(self.bindings.items()))

    def __hash__(self) -> int:
        # Agrees with the generated `==`, which compares the dicts.
        return hash(frozenset(self.bindings.items()))

    def __str__(self) -> str:
        inner = ", ".join(f"{v} = {format_feature(t)}" for v, t in self.items())
        return "{" + inner + "}"


IDENTITY = Substitution({})


def variables(term: FeatureTerm) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Avm):
        out: set[str] = set()
        for _, value in term.entries:
            out |= variables(value)
        return out
    return set()


class Node:
    """A mutable feature node: a variable (`arcs` is None, `name` set) or
    an AVM (`arcs` a dict from attribute to node or atom).  `ref` is the
    node or atom it was forwarded to, or None for a representative."""

    __slots__ = ("ref", "arcs", "name")

    def __init__(self, arcs: Optional[dict] = None, name: Optional[str] = None):
        self.ref = None
        self.arcs = arcs
        self.name = name


def _deref(node):
    while type(node) is Node and node.ref is not None:
        node = node.ref
    return node


def instantiate(term: FeatureTerm, prefix: Optional[str], names: dict[str, Node]):
    """Fresh nodes for `term`; atoms are shared.  Variable v becomes the
    node `names` holds for it, named prefix.v (v when prefix is None)."""
    cls = type(term)
    if cls is Atom:
        return term
    if cls is Var:
        node = names.get(term.name)
        if node is None:
            name = term.name if prefix is None else prefix + "." + term.name
            node = names[term.name] = Node(None, name)
        return node
    return Node({key: instantiate(value, prefix, names) for key, value in term.entries})


def compile_fire(positions: Iterable[Iterable[FeatureTerm]]):
    """A rule's positions (left-hand side first) compiled into one
    `fire(leaf, prefix, trail)`: fresh nodes for every conjunct as
    `instantiate` makes them, variable v named prefix.v, then unification
    of the left-hand conjuncts, of the left-hand node with the leaf's
    (None is top), and of each slot's conjuncts, all left to right.  It
    returns the slot nodes (None for top), or None on a clash.  A join
    calls `_merge` when the side it adds, a conjunct or, against the
    leaf, the left-hand side, holds only first occurrences of variables
    in this walk order, and `unify_nodes` otherwise: such a side is a
    tree of fresh nodes that shares none with the acyclic graph it meets,
    so no cycle can form (occurs-check reduction, Søndergaard 1986).  The
    source is flat, one assignment per AVM node in postorder, so any
    depth compiles; keys and names enter through `repr`, atoms as
    arguments of a factory compiled once per source, which rules that
    differ only in atoms share; `Node`, `unify_nodes` and `_merge` are
    this module's globals, so wrappers set on both see every join."""
    lines, names, atoms, joins, roots = [], {}, {}, [], []
    for conjuncts in positions:
        refs, kernels = [], []
        for conjunct in conjuncts:
            # Postorder; `done` holds finished refs until their AVM takes them.
            stack, done, kernel = [(conjunct, False)], [], "_merge"
            while stack:
                term, ready = stack.pop()
                if type(term) is Atom:
                    ref = atoms.setdefault(term, f"a{len(atoms)}")
                elif type(term) is Var:
                    ref = names.get(term.name)
                    if ref is None:
                        ref = names[term.name] = f"v{len(names)}"
                        lines.append(f"{ref} = Node(None, prefix + {'.' + term.name!r})")
                    else:  # a variable met before: joining this conjunct may close a cycle
                        kernel = "unify_nodes"
                elif not ready:
                    stack.append((term, True))
                    stack.extend((value, False) for _, value in reversed(term.entries))
                    continue
                else:
                    first = len(done) - len(term.entries)
                    kids = zip(term.entries, done[first:])
                    arcs = ", ".join(f"{key!r}: {kid}" for (key, _), kid in kids)
                    del done[first:]
                    ref = f"n{len(lines)}"
                    lines.append(f"{ref} = Node({{{arcs}}})")
                done.append(ref)
            refs.append(done[0])
            kernels.append(kernel)
        joins += (f"if not {kernel}({refs[0]}, {ref}, trail): return None"
                  for ref, kernel in zip(refs[1:], kernels[1:]))
        if refs and not roots:  # the left-hand node meets the leaf's
            kernel = "unify_nodes" if "unify_nodes" in kernels else "_merge"
            joins.append(f"if leaf is not None and not {kernel}({refs[0]}, leaf, trail):"
                         " return None")
        roots.append(refs[0] if refs else "None")
    lines += joins + [f"return ({''.join(root + ', ' for root in roots[1:])})"]
    body = "".join(f"        {line}\n" for line in lines)
    return _factory(f"def factory({', '.join(atoms.values())}):\n"
                    f"    def fire(leaf, prefix, trail):\n{body}    return fire\n")(*atoms)


@functools.lru_cache(maxsize=1024)
def _factory(source: str):
    """The factory that `source` defines, one compile per distinct source."""
    exec(source, globals(), scope := {})
    return scope["factory"]


def unify_nodes(a, b, trail: list) -> bool:
    """Unify two nodes in place, recording every change on `trail`.

    An empty AVM forwards to the other side, so a variable is never
    bound to top; a variable forwards to the other side; of two AVMs, b
    forwards to a, which gains b's missing arcs.  Fails on an atom clash
    and, as the occurs check, when the result is cyclic; `_merge` is the
    same without that check, for joins that `compile_fire` shows cannot
    close a cycle.  A failed call leaves partial changes on the trail for
    the caller to undo.
    """
    return _merge(a, b, trail) and _acyclic(a, {})


def _merge(a, b, trail) -> bool:
    """Merge two nodes without the occurs check; False on a clash."""
    while type(a) is Node and a.ref is not None:
        a = a.ref
    while type(b) is Node and b.ref is not None:
        b = b.ref
    if a is b:
        return True
    # Rank 0 for top, 1 for a variable, 2 for an atom or an AVM with arcs.
    rank_a = 2 if type(a) is not Node else 1 if a.arcs is None else 2 if a.arcs else 0
    rank_b = 2 if type(b) is not Node else 1 if b.arcs is None else 2 if b.arcs else 0
    if rank_a < 2 or rank_b < 2:
        # The lower rank forwards, a on a tie, so top never binds a variable.
        if rank_b < rank_a:
            a, b = b, a
        a.ref = b
        trail.append(a)
        return True
    if type(a) is not Node or type(b) is not Node:
        # Distinct atoms clash; so does an atom against an AVM with arcs.
        return type(a) is Atom and type(b) is Atom and a.name == b.name
    b.ref = a
    trail.append(b)
    arcs = a.arcs
    for key, value in b.arcs.items():
        mine = arcs.get(key)
        if mine is None:
            arcs[key] = value
            trail.append((a, key))
        elif not _merge(mine, value, trail):
            return False
    return True


def _acyclic(node, state):
    """False iff a cycle is reachable from `node`; `state` maps each
    AVM node visited to True while it is on the path."""
    node = _deref(node)
    if type(node) is not Node or not node.arcs:
        return True
    open_ = state.get(node)
    if open_ is not None:
        return not open_
    state[node] = True
    for value in node.arcs.values():
        if not _acyclic(value, state):
            return False
    state[node] = False
    return True


def undo(trail: list, mark: int) -> None:
    """Pop the trail back to `mark`, taking back each forwarding and arc."""
    while len(trail) > mark:
        entry = trail.pop()
        if type(entry) is tuple:
            del entry[0].arcs[entry[1]]
        else:
            entry.ref = None


def read_back(node) -> FeatureTerm:
    """The term a node denotes now; None stands for top."""
    node = _deref(node)
    if node is None:
        return TOP
    if type(node) is Atom:
        return node
    if node.arcs is None:
        return Var(node.name)
    return Avm((key, read_back(value)) for key, value in node.arcs.items())


def bindings(trail: list, start: int = 0) -> Substitution:
    """The variables forwarded on trail[start:], each read back."""
    bound = {
        entry.name: read_back(entry)
        for entry in islice(trail, start, None)
        if type(entry) is Node and entry.arcs is None
    }
    return Substitution(bound) if bound else IDENTITY


def fold(conjuncts: Iterable[FeatureTerm], names: dict, trail: list):
    """Instantiate a conjunction, variables unprefixed, and unify it left to
    right: its node, None for no conjunct (top), or False on a clash."""
    root = None
    for conjunct in conjuncts:
        node = instantiate(conjunct, None, names)
        if root is None:
            root = node
        elif not unify_nodes(root, node, trail):
            return False
    return root


def unify(a: FeatureTerm, b: FeatureTerm) -> Optional[tuple[FeatureTerm, Substitution]]:
    """Most general unifier of two feature terms.

    Returns (unified term, substitution) or None on clash or
    occurs-check violation.  Top unifies with anything and contributes
    no bindings; in particular variables never get bound to top.  A
    variable's binding is the unified term at every path it occupies.
    """
    return unify_all((a, b))


def unify_all(conjuncts: Iterable[FeatureTerm]) -> Optional[tuple[FeatureTerm, Substitution]]:
    """Unify a conjunction left to right, starting from top."""
    trail: list = []
    root = fold(conjuncts, {}, trail)
    if root is False:
        return None
    return read_back(root), bindings(trail)


def apply(subst: Substitution, term: FeatureTerm) -> FeatureTerm:
    """Replace each bound variable of `term` by its image, in one pass:
    an image is instantiated with its own names, so its variables stay."""
    names = {name: instantiate(image, None, {}) for name, image in subst.bindings.items()}
    return read_back(instantiate(term, None, names))


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """Substitution with apply(compose(outer, inner), t) = apply(outer, apply(inner, t))."""
    out: dict[str, FeatureTerm] = {}
    for name, term in inner.bindings.items():
        term = apply(outer, term)
        if not (isinstance(term, Var) and term.name == name):
            out[name] = term
    for name, term in outer.bindings.items():
        if name not in inner.bindings:
            out[name] = term
    return Substitution(out)


def freshen(term: FeatureTerm, prefix: str) -> FeatureTerm:
    """Rename every variable v to prefix.v."""
    return read_back(instantiate(term, prefix, {}))


def format_feature(term: FeatureTerm) -> str:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Var):
        return "?" + term.name
    if isinstance(term, Avm):
        inner = ", ".join(f"{k}: {format_feature(v)}" for k, v in term.entries)
        return "[" + inner + "]"
    raise TypeError(f"not a feature term: {term!r}")


class FeatureSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_STRUCTURAL = set("[]:,?")


def unreadable_name(terms: Iterable[FeatureTerm]) -> Optional[str]:
    """An atom, variable or attribute name in `terms` that `parse_feature`
    would not read back as itself, such as "atom 'a b'", or None: one
    that is empty, or holds whitespace or one of ``[]:,?``.  One walk
    collects the distinct names of each kind; each is tested once."""
    atoms: dict[str, None] = {}
    names: dict[str, None] = {}
    keys: dict[str, None] = {}
    stack = list(terms)
    while stack:
        term = stack.pop()
        cls = type(term)
        if cls is Avm:
            for key, value in term.entries:
                keys[key] = None
                stack.append(value)
        elif cls is Atom:
            atoms[term.name] = None
        else:
            names[term.name] = None
    for kind, found in (("atom", atoms), ("variable", names), ("attribute", keys)):
        for name in found:
            if not name or any(ch.isspace() or ch in _STRUCTURAL for ch in name):
                return f"{kind} {name!r}"
    return None


def parse_feature(text: str) -> FeatureTerm:
    """Parse the textual syntax: atoms bare, variables ?-prefixed, AVMs bracketed."""
    term, pos = parse_feature_at(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise FeatureSyntaxError("trailing input", pos)
    return term


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_name(text, pos):
    start = pos
    while pos < len(text) and not text[pos].isspace() and text[pos] not in _STRUCTURAL:
        pos += 1
    if pos == start:
        raise FeatureSyntaxError("expected a name", pos)
    return text[start:pos], pos


def parse_feature_at(text: str, pos: int) -> tuple[FeatureTerm, int]:
    """Parse one feature term starting at `pos`, for embedding in other syntax."""
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise FeatureSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "?":
        name, pos = _parse_name(text, pos + 1)
        return Var(name), pos
    if ch == "[":
        pos = _skip_ws(text, pos + 1)
        entries: list[tuple[str, FeatureTerm]] = []
        if pos < len(text) and text[pos] == "]":
            return TOP, pos + 1
        while True:
            key, pos = _parse_name(text, _skip_ws(text, pos))
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ":":
                raise FeatureSyntaxError("expected ':'", pos)
            value, pos = parse_feature_at(text, pos + 1)
            entries.append((key, value))
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            if pos < len(text) and text[pos] == "]":
                try:
                    return Avm(entries), pos + 1
                except ValueError as err:
                    raise FeatureSyntaxError(str(err), pos) from None
            raise FeatureSyntaxError("expected ',' or ']'", pos)
    name, pos = _parse_name(text, pos)
    return Atom(name), pos
