"""Command-line front end for the transformation pipeline.

Exit status: 0 on success, 1 when `check` rejects a tree, 2 on an
input fault: every `ValueError` (the readers' and validators' errors,
an undecodable file) and `OSError`, or input nested too deeply.  All
commands are deterministic; identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# The .rtg reader and writer, and the engine under them, serve every
# command but `stats`; a command imports what only it runs (the TAG
# reader, the translation, the left-corner inverse) when it runs.
from tagrtg.features import is_top
from tagrtg.rtg import (
    AlphabetError,
    GrammarError,
    accepts_detailed,
    enumerate_trees,
    erase_features,
    reduce_grammar,
)
from tagrtg.rtg_io import format_rtg, load_rtg, save_rtg
from tagrtg.trees import parse_tree, to_dot


def cmd_translate(args) -> int:
    from tagrtg.tag import load_tag
    from tagrtg.translate import lc_fbrtg, to_fbrtg

    tag = load_tag(args.grammar)
    result = lc_fbrtg(tag) if args.lc else to_fbrtg(tag)
    if not args.features:
        result = erase_features(result)
    if args.reduce:
        result = reduce_grammar(result)
    if args.out:
        save_rtg(result, args.out)
    else:
        sys.stdout.write(format_rtg(result))
    return 0


def cmd_enumerate(args) -> int:
    grammar = load_rtg(args.grammar)
    for index, tree in enumerate(enumerate_trees(grammar, args.max_depth)):
        if args.format == "dot":
            print(to_dot(tree, f"tree{index}"))
        else:
            print(tree)
    return 0


def cmd_check(args) -> int:
    grammar = load_rtg(args.grammar)
    tree = parse_tree(args.tree)
    try:
        result = accepts_detailed(grammar, tree)
    except AlphabetError as err:
        args.status = 1
        print(f"rejected: {err}")
        return 1
    if result.accepted:
        for step in result.steps:
            print(step)
        print(f"accepted: {result.env}")
        return 0
    args.status = 1
    print(f"rejected at {result.failure_position}: {result.failure}")
    return 1


def cmd_invert(args) -> int:
    from tagrtg.leftcorner import lc_inverse

    grammar = load_rtg(args.grammar)
    tree = parse_tree(args.tree)
    print(lc_inverse(grammar, tree))
    return 0


def _inert_feature_notes(tag) -> list[str]:
    """Features on nodes no rule ever touches, reported rather than lost:
    an inactive root's top is the tree's interface, and nothing reads any
    other feature of an inactive node."""
    from tagrtg.tag import NodeKind

    notes = []
    for tree in tag.trees:
        for node in tree.root.nodes():
            if node.kind is not NodeKind.INTERNAL:
                continue
            inert = [
                name for name, value in (("top", node.top), ("bot", node.bot))
                if not is_top(value) and (name == "bot" or node is not tree.root)
            ]
            if inert:
                notes.append(
                    f"note: {'/'.join(inert)} features on inactive node"
                    f" {node.label!r} of {tree.name!r} are ignored"
                )
    return notes


def cmd_stats(args) -> int:
    from tagrtg.tag import load_tag
    from tagrtg.translate import lc_fbrtg, symbols, to_fbrtg

    tag = load_tag(args.grammar)
    initials = len(tag.initials)
    auxiliaries = len(tag.auxiliaries)
    print(f"elementary trees: {initials + auxiliaries}"
          f" ({initials} initial, {auxiliaries} auxiliary)")
    print(f"symbols: {len(symbols(tag))}")
    standard = to_fbrtg(tag)
    print(f"standard translation: {len(standard.rules)} rules,"
          f" {len(standard.nonterminals)} nonterminals")
    try:
        lc = lc_fbrtg(tag)
    except GrammarError as err:
        print(f"left-corner translation: unavailable ({err})")
    else:
        print(f"left-corner translation: {len(lc.rules)} rules,"
              f" {len(lc.nonterminals)} nonterminals")
        ratio = f"{len(lc.rules) / len(standard.rules):.2f}" if standard.rules else "n/a"
        print(f"growth ratio: {ratio}")
    for note in _inert_feature_notes(tag):
        print(note)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagrtg",
        description="Turn TAGs into derivation-tree grammars and work with them.",
    )
    # The status `main` exits with if the reader of stdout goes away;
    # `check` sets its verdict here before it prints.
    parser.set_defaults(status=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="convert a .tag file to a (feature) RTG")
    p.add_argument("grammar", help="path to a .tag file")
    p.add_argument("--lc", action="store_true", help="apply the left-corner transformation")
    p.add_argument("--features", action="store_true", help="keep feature constraints")
    p.add_argument("--reduce", action="store_true", help="prune and normalize the result")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(run=cmd_translate)

    p = sub.add_parser("enumerate", help="list derivation trees up to a depth")
    p.add_argument("grammar", help="path to a .rtg file")
    p.add_argument("--max-depth", type=int, required=True,
                   help="bound on tree height (required: languages may be infinite)")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("check", help="test membership of a derivation tree")
    p.add_argument("grammar", help="path to a .rtg file")
    p.add_argument("tree", help="derivation tree, e.g. 'caught(fish(e_A), e_A, fish(e_A))'")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("invert", help="map a left-corner derivation tree back")
    p.add_argument("grammar", help="path to a .rtg file in lc form")
    p.add_argument("tree", help="derivation tree over the transformed alphabet")
    p.set_defaults(run=cmd_invert)

    p = sub.add_parser("stats", help="report sizes and growth for a .tag file")
    p.add_argument("grammar", help="path to a .tag file")
    p.set_defaults(run=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()  # so that a buffered write to a closed pipe fails here
        return status
    except BrokenPipeError:
        # The reader went away: stop quietly.  Whatever is still buffered
        # goes to the null device, so the interpreter's last flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return args.status
    except (ValueError, OSError) as err:
        # Readers and validators raise ValueError, naming the line of a byte
        # that is not UTF-8; 1 is a verdict, so no input fault may reach it.
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply for this command", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
