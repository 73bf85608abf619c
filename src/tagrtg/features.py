"""Feature structures as first-order terms with unification.

A feature term is an atom, a variable, or an attribute-value map (AVM).
The empty AVM is the top element: it carries no information and unifies
with anything.  AVM unification is pointwise on the union of the
attributes, so an attribute missing on one side is unconstrained there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class FeatureTerm:
    """Base class for atoms, variables and AVMs."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(FeatureTerm):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var(FeatureTerm):
    name: str

    def __str__(self) -> str:
        return "?" + self.name


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

    @classmethod
    def _rebuilt(cls, entries: Iterable[tuple[str, FeatureTerm]]) -> Avm:
        """An AVM from entries whose keys are known to be unique.

        Skips the duplicate check of the constructor but still drops
        entries whose value became top.
        """
        avm = object.__new__(cls)
        object.__setattr__(
            avm, "entries", tuple(entry for entry in entries if not is_top(entry[1]))
        )
        return avm

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Avm is immutable")

    def get(self, key: str) -> Optional[FeatureTerm]:
        for k, v in self.entries:
            if k == key:
                return v
        return None

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Avm):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash(frozenset(self.entries))

    def __repr__(self) -> str:
        return f"Avm({list(self.entries)!r})"

    def __str__(self) -> str:
        return format_feature(self)


TOP = Avm()


def is_top(term: FeatureTerm) -> bool:
    return isinstance(term, Avm) and not term.entries


@dataclass(frozen=True)
class Substitution:
    """Finite map from variable names to feature terms."""

    bindings: dict[str, FeatureTerm] = field(default_factory=dict)

    def get(self, name: str) -> Optional[FeatureTerm]:
        return self.bindings.get(name)

    def domain(self) -> frozenset[str]:
        return frozenset(self.bindings)

    def is_identity(self) -> bool:
        return not self.bindings

    def is_idempotent(self) -> bool:
        image_vars: set[str] = set()
        for term in self.bindings.values():
            image_vars |= variables(term)
        return not (image_vars & set(self.bindings))

    def items(self) -> Iterator[tuple[str, FeatureTerm]]:
        return iter(sorted(self.bindings.items()))

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


def occurs(name: str, term: FeatureTerm) -> bool:
    return name in variables(term)


def apply(subst: Substitution, term: FeatureTerm) -> FeatureTerm:
    """Replace bound variables in `term`; unbound variables stay.

    Subterms without a bound variable are shared, not copied: the result
    is `term` itself when nothing in it changed.
    """
    if not subst.bindings:
        return term
    return _substitute(subst.bindings, term)


def _substitute(bindings: dict[str, FeatureTerm], term: FeatureTerm) -> FeatureTerm:
    if isinstance(term, Var):
        return bindings.get(term.name, term)
    if isinstance(term, Avm):
        changed = False
        entries = []
        for key, value in term.entries:
            new = _substitute(bindings, value)
            changed = changed or new is not value
            entries.append((key, new))
        return Avm._rebuilt(entries) if changed else term
    return term


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """Substitution with apply(compose(outer, inner), t) = apply(outer, apply(inner, t)).

    No substitution built here binds a variable to itself, so an
    identity side leaves the other one as it is.
    """
    if not outer.bindings:
        return inner
    if not inner.bindings:
        return outer
    out: dict[str, FeatureTerm] = {}
    for name, term in inner.bindings.items():
        term = apply(outer, term)
        if not (isinstance(term, Var) and term.name == name):
            out[name] = term
    for name, term in outer.bindings.items():
        if name not in inner.bindings:
            out[name] = term
    return Substitution(out)


def unify(a: FeatureTerm, b: FeatureTerm) -> Optional[tuple[FeatureTerm, Substitution]]:
    """Most general unifier of two feature terms.

    Returns (unified term, substitution) or None on clash or
    occurs-check violation.  Top unifies with anything and contributes
    no bindings; in particular variables never get bound to top.
    """
    result = _unify(a, b, IDENTITY)
    if result is None:
        return None
    term, sigma = result
    return apply(sigma, term), sigma


def _unify(a, b, sigma):
    a = apply(sigma, a)
    b = apply(sigma, b)
    if is_top(a):
        return b, sigma
    if is_top(b):
        return a, sigma
    if isinstance(a, Var):
        if a == b:
            return a, sigma
        if occurs(a.name, b):
            return None
        return b, compose(Substitution({a.name: b}), sigma)
    if isinstance(b, Var):
        return _unify(b, a, sigma)
    if isinstance(a, Atom) or isinstance(b, Atom):
        # Distinct atoms clash; so does an atom against a non-empty AVM.
        if isinstance(a, Atom) and isinstance(b, Atom) and a.name == b.name:
            return a, sigma
        return None
    merged: list[tuple[str, FeatureTerm]] = []
    b_map = dict(b.entries)
    a_keys = set()
    for key, value in a.entries:
        a_keys.add(key)
        if key in b_map:
            sub = _unify(value, b_map[key], sigma)
            if sub is None:
                return None
            unified, sigma = sub
            merged.append((key, unified))
        else:
            merged.append((key, value))
    for key, value in b.entries:
        if key not in a_keys:
            merged.append((key, value))
    # Keys of `merged` are unique: b contributes only keys a lacks.
    return Avm._rebuilt(merged), sigma


def unify_all(conjuncts: Iterable[FeatureTerm]) -> Optional[tuple[FeatureTerm, Substitution]]:
    """Fold unify over a conjunction, starting from top."""
    term: FeatureTerm = TOP
    sigma = IDENTITY
    for conjunct in conjuncts:
        step = unify(term, apply(sigma, conjunct))
        if step is None:
            return None
        term, new = step
        sigma = compose(new, sigma)
    return apply(sigma, term), sigma


def freshen(term: FeatureTerm, prefix: str) -> FeatureTerm:
    """Rename every variable v to prefix.v; variable-free subterms are shared."""
    if isinstance(term, Var):
        return Var(prefix + "." + term.name)
    if isinstance(term, Avm):
        changed = False
        entries = []
        for key, value in term.entries:
            new = freshen(value, prefix)
            changed = changed or new is not value
            entries.append((key, new))
        return Avm._rebuilt(entries) if changed else term
    return term


def subsumes(general: FeatureTerm, specific: FeatureTerm) -> bool:
    """True iff some substitution maps `general` onto `specific`.

    Top subsumes anything.  Non-empty AVMs must match on exactly the
    same attribute set, so this is instance-of, not information order.
    """
    return _match(general, specific, {}) is not None


def _match(general, specific, binds):
    if is_top(general):
        return binds
    if isinstance(general, Var):
        if general.name in binds:
            return binds if binds[general.name] == specific else None
        binds[general.name] = specific
        return binds
    if isinstance(general, Atom):
        if isinstance(specific, Atom) and specific.name == general.name:
            return binds
        return None
    if not isinstance(specific, Avm):
        return None
    if set(general.keys()) != set(specific.keys()):
        return None
    for key, value in general.entries:
        binds = _match(value, specific.get(key), binds)
        if binds is None:
            return None
    return binds


def alpha_equal(a: FeatureTerm, b: FeatureTerm) -> bool:
    """Structural equality up to consistent variable renaming."""
    return _canon(a, {}) == _canon(b, {})


def _canon(term, mapping):
    if isinstance(term, Var):
        if term.name not in mapping:
            mapping[term.name] = f"_{len(mapping)}"
        return Var(mapping[term.name])
    if isinstance(term, Avm):
        # Sorted traversal so entry order cannot leak into the renaming.
        return Avm((k, _canon(v, mapping)) for k, v in sorted(term.entries))
    return term


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


def parse_feature(text: str) -> FeatureTerm:
    """Parse the textual syntax: atoms bare, variables ?-prefixed, AVMs bracketed."""
    term, pos = _parse_term(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise FeatureSyntaxError("trailing input", pos)
    return term


def parse_feature_at(text: str, pos: int) -> tuple[FeatureTerm, int]:
    """Parse one feature term starting at `pos`, for embedding in other syntax."""
    return _parse_term(text, pos)


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


def _parse_term(text, pos):
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
            value, pos = _parse_term(text, pos + 1)
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
