"""Reading and writing grammar files.

The format is line oriented.  A version line names the rule form, then
labeled sections follow in a fixed order: axiom, nonterminals,
terminals with their ranks, the site table consumed by the inverse
transformation, and one rule per line in display syntax::

    rtg 1 standard
    axiom: S_S;
    nonterminals: S_S, NP_S;
    terminals: cats/1, e_A/0;
    sites {
      cats = initial active (adj);
    }
    rules {
      NP_S [top: ?t] -> cats(NP_A [top: ?t, bot: [agr: 3pl]]);
    }

Blank lines and lines starting with # are skipped.  A rule is read
once, left to right.  A nonterminal is its name, which ends at
whitespace, a comma, a parenthesis or ``->``; a final ``_S`` or ``_A``
names its site flavor.  Whitespace separates a nonterminal from its
constraint: conjuncts joined by ``&``, each of them whatever
`parse_feature` reads from where the last one ended.  So an atom may
contain ``(``, ``)``, ``&`` or ``->``, and a bare atom or variable ends
only at whitespace or at one of ``[]:,?``; one that ends a slot list is
written with a space before the ``)``.  Terminal names may contain
spaces and ``/``.

The writer refuses a grammar with a name the reader would not read back
as itself: an empty nonterminal; a name with a comma, a line break or
whitespace at either end; a nonterminal of a rule that is not one name token as above, or a
left-hand side starting with ``#``; a terminal of a rule that is empty
or holds ``(``; a terminal with a site entry that holds ``=`` or starts
with ``#``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Union

from tagrtg.features import FeatureSyntaxError, format_feature, parse_feature_at
from tagrtg.rtg import FORMS, FbRtg, FbRule, GrammarError, SiteInfo, Slot

FORMAT_VERSION = 1


class RtgParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# -------------------------------------------------------------- writing


def _declared(name: str) -> bool:
    """Whether a declaration line reads `name` back as itself: the
    reader splits lines and names at commas, and strips each name."""
    return "," not in name and name == name.strip() and name.splitlines() in ([], [name])


def _unreadable_name(grammar: FbRtg) -> Optional[str]:
    """The first nonterminal or terminal that would not read back as
    itself, or None.  The grammar is valid, so every name of a rule is
    declared: the rules are searched only when a declared name could
    not stand in one."""
    for nt in grammar.nonterminals:
        if not nt or not _declared(nt):
            return f"nonterminal {nt!r}"
    for name, _ in grammar.terminals:
        if not _declared(name):
            return f"terminal {name!r}"
    # A declared name has no whitespace at either end, so _NAME matches
    # all of it exactly when it is one name token.
    slots = {nt for nt in grammar.nonterminals if not _NAME.fullmatch(nt)}
    lhs = slots | {nt for nt in grammar.nonterminals if nt.startswith("#")}
    terminals = {name for name, _ in grammar.terminals if not name or "(" in name}
    if lhs or terminals:
        for rule in grammar.rules:
            if rule.lhs in lhs:
                return f"nonterminal {rule.lhs!r}"
            for nt, _ in rule.rhs:
                if nt in slots:
                    return f"nonterminal {nt!r}"
            if rule.terminal in terminals:
                return f"terminal {rule.terminal!r}"
    for name, _ in grammar.sites:
        if "=" in name or name.startswith("#"):
            return f"terminal {name!r}"
    return None


def format_rtg(grammar: FbRtg) -> str:
    """The grammar as `.rtg` text; a `GrammarError` if it has a name
    that `parse_rtg` would not read back as itself."""
    if bad := _unreadable_name(grammar):
        raise GrammarError(f"{bad} would not read back from a .rtg file")
    out = [f"rtg {FORMAT_VERSION} {grammar.form}"]
    out.append(f"axiom: {grammar.axiom};")
    out.append("nonterminals: " + ", ".join(grammar.nonterminals) + ";")
    out.append(
        "terminals: " + ", ".join(f"{name}/{rank}" for name, rank in grammar.terminals) + ";"
    )
    out.append("sites {")
    for name, info in grammar.sites:
        active = "active" if info.root_active else "inactive"
        kinds = ", ".join(info.slot_kinds)
        out.append(f"  {name} = {info.tree_kind} {active} ({kinds});")
    out.append("}")
    out.append("rules {")
    for rule in grammar.rules:
        out.append(f"  {rule};")
    out.append("}")
    return "\n".join(out) + "\n"


def save_rtg(grammar: FbRtg, path: Union[str, Path]) -> None:
    Path(path).write_text(format_rtg(grammar), encoding="utf-8")


# -------------------------------------------------------------- parsing


_SPACE = re.compile(r"\s*")
# A nonterminal and the whitespace after it.
_NAME = re.compile(r"\s*((?:[^\s,()-]|-(?!>))+)(\s*)")


def _parse_slot(text: str, pos: int, ends: tuple[str, ...], line: int) -> tuple[Slot, int]:
    """Read a nonterminal at `pos` and the conjuncts after it, up to one
    of `ends`; returns the slot and the position after it."""
    name = _NAME.match(text, pos)
    if name is None:
        raise RtgParseError("empty slot", line)
    nt = name[1]
    start = name.end()
    if not name[2] or text.startswith(ends, start):
        return (nt, ()), start
    conjuncts = []
    while True:
        try:
            term, pos = parse_feature_at(text, start)
        except FeatureSyntaxError as err:
            raise RtgParseError(f"bad feature term in {text!r}: {err}", line) from None
        conjuncts.append(term)
        pos = _SPACE.match(text, pos).end()
        if pos == len(text) or text.startswith(ends, pos):
            return (nt, tuple(conjuncts)), pos
        if text[pos] != "&":
            wanted = " or ".join(repr(end) for end in ("&",) + ends)
            raise RtgParseError(f"expected {wanted} after {format_feature(term)}", line)
        start = _SPACE.match(text, pos + 1).end()
        if start == len(text) or text.startswith(ends, start):
            raise RtgParseError("empty conjunct in constraint", line)


def _parse_rule(text: str, line: int) -> FbRule:
    if "->" not in text:
        raise RtgParseError("rule is missing '->'", line)
    (lhs, lhs_feat), pos = _parse_slot(text, 0, ("->",), line)
    if not text.startswith("->", pos):
        raise RtgParseError("rule is missing '->'", line)
    pos = _SPACE.match(text, pos + 2).end()
    paren = text.find("(", pos)
    if paren == -1:
        if pos == len(text):
            raise RtgParseError("rule is missing a right-hand side", line)
        return FbRule(lhs, lhs_feat, text[pos:], ())
    terminal = text[pos:paren].rstrip()
    if not terminal:
        raise RtgParseError("rule is missing its terminal", line)
    slots = []
    pos = paren
    while True:
        slot, pos = _parse_slot(text, pos + 1, (",", ")"), line)
        slots.append(slot)
        if not text.startswith(",", pos):
            break
    if text[pos:] != ")":
        raise RtgParseError("unbalanced parentheses in rule", line)
    return FbRule(lhs, lhs_feat, terminal, tuple(slots))


def _parse_site(text: str, line: int) -> tuple[str, SiteInfo]:
    name, eq, spec = text.partition("=")
    if not eq:
        raise RtgParseError("site entry needs 'name = kind activity (slots)'", line)
    name = name.strip()
    spec = spec.strip()
    open_paren = spec.find("(")
    if open_paren == -1 or not spec.endswith(")"):
        raise RtgParseError("site entry is missing its slot kind list", line)
    words = spec[:open_paren].split()
    if len(words) != 2 or words[1] not in ("active", "inactive"):
        raise RtgParseError(f"bad site description {spec!r}", line)
    inner = spec[open_paren + 1 : -1].strip()
    kinds = tuple(k.strip() for k in inner.split(",")) if inner else ()
    try:
        return name, SiteInfo(words[0], words[1] == "active", kinds)
    except GrammarError:
        # SiteInfo owns the tree and slot kinds.
        raise RtgParseError(f"bad site description {spec!r}", line) from None


def _content_lines(text: str) -> Iterator[tuple[Optional[str], int]]:
    """Each line that is neither blank nor a comment, stripped, with its
    number; then (None, n) for the end of the file at line n."""
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line, number
    yield None, len(lines) + 1


def _next(lines: Iterator[tuple[Optional[str], int]]) -> tuple[str, int]:
    line, number = next(lines)
    if line is None:
        raise RtgParseError("unexpected end of file", number)
    return line, number


def _labeled(lines, label: str) -> tuple[str, int]:
    line, number = _next(lines)
    if not line.startswith(label + ":") or not line.endswith(";"):
        raise RtgParseError(f"expected '{label}: ...;'", number)
    return line[len(label) + 1 : -1].strip(), number


def _block(lines, label: str) -> list[tuple[str, int]]:
    line, number = _next(lines)
    if line != label + " {":
        raise RtgParseError(f"expected '{label} {{'", number)
    entries = []
    while True:
        line, number = _next(lines)
        if line == "}":
            return entries
        if not line.endswith(";"):
            raise RtgParseError("entry must end with ';'", number)
        entries.append((line[:-1].strip(), number))


def parse_rtg(text: str) -> FbRtg:
    lines = _content_lines(text)
    header, number = _next(lines)
    words = header.split()
    if len(words) != 3 or words[0] != "rtg":
        raise RtgParseError("expected version line 'rtg 1 <form>'", number)
    if words[1] != str(FORMAT_VERSION):
        raise RtgParseError(f"unsupported format version {words[1]!r}", number)
    if words[2] not in FORMS:
        raise RtgParseError(f"unknown rule form {words[2]!r}", number)
    form = words[2]

    axiom, _ = _labeled(lines, "axiom")
    nt_text, _ = _labeled(lines, "nonterminals")
    nonterminals = tuple(t.strip() for t in nt_text.split(",") if t.strip())
    term_text, number = _labeled(lines, "terminals")
    terminals = []
    for chunk in term_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, slash, rank = chunk.rpartition("/")
        # ASCII digits: `isdigit` passes '²', and `int` reads '٣' as 3.
        if not slash or not (rank.isascii() and rank.isdigit()):
            raise RtgParseError(f"bad terminal declaration {chunk!r}", number)
        terminals.append((name.strip(), int(rank)))

    sites = tuple(_parse_site(entry, n) for entry, n in _block(lines, "sites"))
    rules = tuple(_parse_rule(entry, n) for entry, n in _block(lines, "rules"))
    line, number = next(lines)
    if line is not None:
        raise RtgParseError(f"unexpected trailing content {line!r}", number)

    return FbRtg(
        axiom=axiom,
        nonterminals=nonterminals,
        terminals=tuple(terminals),
        rules=rules,
        form=form,
        sites=sites,
    )


def load_rtg(path: Union[str, Path]) -> FbRtg:
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    if bad := re.search("[\udc80-\udcff]", text):  # a byte that is not UTF-8
        message = f"byte 0x{ord(bad[0]) - 0xdc00:02x} is not UTF-8"
        raise RtgParseError(message, len(text[: bad.end()].splitlines()))
    return parse_rtg(text)
