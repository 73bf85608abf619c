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

Blank lines and lines starting with # are skipped.  A nonterminal is
its name, which ends at its first space in a rule; a final ``_S`` or
``_A`` names its site flavor.  Terminal names may contain spaces.  No
name contains any of ``=/,;&()`` or brackets.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from tagrtg.features import parse_feature
from tagrtg.rtg import (
    Constraint,
    FbRtg,
    FbRule,
    Nonterminal,
    SiteInfo,
    Slot,
    format_constraint,
)

FORMAT_VERSION = 1

_FORMS = ("standard", "lc")
_KINDS = ("initial", "auxiliary")


class RtgParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# -------------------------------------------------------------- writing


def format_rtg(grammar: FbRtg) -> str:
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


def _split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` outside brackets and parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_constraint(text: str, line: int) -> Constraint:
    text = text.strip()
    if not text:
        return ()
    terms = []
    for chunk in _split_top(text, "&"):
        chunk = chunk.strip()
        if not chunk:
            raise RtgParseError("empty conjunct in constraint", line)
        try:
            terms.append(parse_feature(chunk))
        except ValueError as err:
            raise RtgParseError(f"bad feature term {chunk!r}: {err}", line) from err
    return tuple(terms)


def _parse_slot(text: str, line: int) -> Slot:
    text = text.strip()
    if not text:
        raise RtgParseError("empty slot", line)
    head, _, rest = text.partition(" ")
    return Nonterminal(head), _parse_constraint(rest, line)


def _find_arrow(text: str, line: int) -> int:
    depth = 0
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "-" and depth == 0 and text[i : i + 2] == "->":
            return i
    raise RtgParseError("rule is missing '->'", line)


def _parse_rule(text: str, line: int) -> FbRule:
    arrow = _find_arrow(text, line)
    lhs, lhs_feat = _parse_slot(text[:arrow], line)
    rhs_text = text[arrow + 2 :].strip()
    if not rhs_text:
        raise RtgParseError("rule is missing a right-hand side", line)
    paren = rhs_text.find("(")
    if paren == -1:
        return FbRule(lhs, lhs_feat, rhs_text, ())
    if not rhs_text.endswith(")"):
        raise RtgParseError("unbalanced parentheses in rule", line)
    terminal = rhs_text[:paren].strip()
    if not terminal:
        raise RtgParseError("rule is missing its terminal", line)
    inner = rhs_text[paren + 1 : -1]
    slots = tuple(_parse_slot(chunk, line) for chunk in _split_top(inner, ","))
    return FbRule(lhs, lhs_feat, terminal, slots)


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
    if len(words) != 2 or words[0] not in _KINDS or words[1] not in ("active", "inactive"):
        raise RtgParseError(f"bad site description {spec!r}", line)
    inner = spec[open_paren + 1 : -1].strip()
    kinds = tuple(k.strip() for k in inner.split(",")) if inner else ()
    return name, SiteInfo(words[0], words[1] == "active", kinds)


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.index = 0

    def next(self) -> tuple[str, int]:
        while self.index < len(self.raw):
            line = self.raw[self.index].strip()
            self.index += 1
            if line and not line.startswith("#"):
                return line, self.index
        raise RtgParseError("unexpected end of file", len(self.raw) + 1)

    def exhausted(self) -> bool:
        return all(
            not line.strip() or line.strip().startswith("#")
            for line in self.raw[self.index :]
        )


def _labeled(lines: _Lines, label: str) -> tuple[str, int]:
    line, number = lines.next()
    if not line.startswith(label + ":") or not line.endswith(";"):
        raise RtgParseError(f"expected '{label}: ...;'", number)
    return line[len(label) + 1 : -1].strip(), number


def _block(lines: _Lines, label: str) -> list[tuple[str, int]]:
    line, number = lines.next()
    if line != label + " {":
        raise RtgParseError(f"expected '{label} {{'", number)
    entries = []
    while True:
        line, number = lines.next()
        if line == "}":
            return entries
        if not line.endswith(";"):
            raise RtgParseError("entry must end with ';'", number)
        entries.append((line[:-1].strip(), number))


def parse_rtg(text: str) -> FbRtg:
    lines = _Lines(text)
    header, number = lines.next()
    words = header.split()
    if len(words) != 3 or words[0] != "rtg":
        raise RtgParseError("expected version line 'rtg 1 <form>'", number)
    if words[1] != str(FORMAT_VERSION):
        raise RtgParseError(f"unsupported format version {words[1]!r}", number)
    if words[2] not in _FORMS:
        raise RtgParseError(f"unknown rule form {words[2]!r}", number)
    form = words[2]

    axiom_text, _ = _labeled(lines, "axiom")
    axiom = Nonterminal(axiom_text)
    nt_text, _ = _labeled(lines, "nonterminals")
    nonterminals = tuple(Nonterminal(t.strip()) for t in nt_text.split(",") if t.strip())
    term_text, number = _labeled(lines, "terminals")
    terminals = []
    for chunk in term_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, slash, rank = chunk.rpartition("/")
        if not slash or not rank.lstrip("-").isdigit() or int(rank) < 0:
            raise RtgParseError(f"bad terminal declaration {chunk!r}", number)
        terminals.append((name.strip(), int(rank)))

    sites = tuple(_parse_site(entry, n) for entry, n in _block(lines, "sites"))
    rules = tuple(_parse_rule(entry, n) for entry, n in _block(lines, "rules"))
    if not lines.exhausted():
        line, number = lines.next()
        raise RtgParseError(f"unexpected trailing content {line!r}", number)

    grammar = FbRtg(
        axiom=axiom,
        nonterminals=nonterminals,
        terminals=tuple(terminals),
        rules=rules,
        form=form,
        sites=sites,
    )
    grammar.validate()
    return grammar


def load_rtg(path: Union[str, Path]) -> FbRtg:
    return parse_rtg(Path(path).read_text(encoding="utf-8"))
