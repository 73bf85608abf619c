"""Command-line behaviour, exit codes and golden transcripts."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tagrtg
from tagrtg.cli import main
from tagrtg.rtg_io import format_rtg, load_rtg, parse_rtg
from tagrtg.tag import NodeKind, bundled_grammar, parse_tag
from test_rtg import ROOT_SLOT_TAG

GOLDEN = Path(__file__).parent / "golden"
FIG2 = str(bundled_grammar("fig2"))

EMPTY_RTG = """\
rtg 1 standard
axiom: X_S;
nonterminals: X_S;
terminals: w/0;
sites {
}
rules {
}
"""

GOOD_TREE = "caught(cats(the(one of(e_A))), has(e_A), fish(a(e_A)))"
BAD_AGREEMENT = "caught(cats(the(e_A)), has(e_A), fish(a(e_A)))"


PAREN_ATOMS_TAG = """\
start: S;
initial t { (S (NP kind=subst top=[f: b(c]) (NP kind=subst) (word "w")) }
initial n { (NP kind=adj bot=[f: b(c, g: d)] (word "n")) }
initial m { (NP kind=adj bot=[f: d)] (word "m")) }
initial k { (S (X kind=adj top=?x bot=[f: b(c]) (NP kind=subst top=?x ) (word "k")) }
"""


# Reduction drops k's X_A slot, below its root, and reads the NP_S
# constraint that shares ?x with it back as [top: [f: b(c]].
@pytest.mark.parametrize(
    "flags, trees, rejected",
    [
        ([], ["t(n(e_A), n(e_A))", "t(n(e_A), m(e_A))", "k(e_A, n(e_A))"],
         "t(m(e_A), n(e_A))"),
        (["--reduce"], ["t(n(e_A), n(e_A))", "t(n(e_A), m(e_A))", "k(n(e_A))"],
         "t(m(e_A), n(e_A))"),
    ],
)
def test_atoms_with_parentheses_read_back(tmp_path, capsys, flags, trees, rejected):
    tag = tmp_path / "parens.tag"
    tag.write_text(PAREN_ATOMS_TAG)
    rtg = str(tmp_path / "parens.rtg")
    assert main(["translate", str(tag), "--features", *flags, "--out", rtg]) == 0
    assert main(["enumerate", rtg, "--max-depth", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == trees
    for tree in trees:
        assert main(["check", rtg, tree]) == 0
    assert main(["check", rtg, rejected]) == 1


def test_translate_out_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "g.rtg"
    assert main(["translate", FIG2, "--features", "--reduce", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == (GOLDEN / "example2.rtg").read_text()


def test_translate_is_deterministic(capsys):
    main(["translate", FIG2, "--lc", "--features"])
    first = capsys.readouterr().out
    main(["translate", FIG2, "--lc", "--features"])
    assert capsys.readouterr().out == first


def test_enumerate_streams_trees_one_per_line(capsys):
    assert main(["enumerate", str(GOLDEN / "example2.rtg"), "--max-depth", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "caught(fish(e_A), has(e_A), cats(e_A))",
        "caught(fish(e_A), has(e_A), fish(e_A))",
    ]


def test_enumerate_dot_output(capsys):
    assert main(["enumerate", str(GOLDEN / "example2.rtg"), "--max-depth", "3",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph tree0 {")
    assert "}\ndigraph tree1 {" in out
    assert out.endswith("}\n")
    assert 'label="caught"' in out


def test_enumerate_empty_grammar_prints_nothing(tmp_path, capsys):
    path = tmp_path / "empty.rtg"
    path.write_text(EMPTY_RTG)
    assert main(["enumerate", str(path), "--max-depth", "3"]) == 0
    assert capsys.readouterr().out == ""


def test_enumerate_requires_a_depth_bound(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", str(GOLDEN / "example2.rtg")])
    assert err.value.code == 2


def test_check_accepts_with_environment_and_steps(capsys):
    assert main(["check", str(GOLDEN / "example2.rtg"), GOOD_TREE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].startswith("step 5 @ 1.1.1.1:")
    assert "ε.x = 3sg" in lines[4]
    assert lines[-1].startswith("accepted: {")
    assert "ε.x = 3sg" in lines[-1]


def test_check_reports_rule_and_address_on_rejection(capsys):
    assert main(["check", str(GOLDEN / "example2.rtg"), BAD_AGREEMENT]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rejected at 2.1:")
    assert "VP_A [top: ?v, bot: ?v] -> e_A" in out


def test_check_rejects_unknown_terminals(capsys):
    assert main(["check", str(GOLDEN / "example2.rtg"), "wat(e_A)"]) == 1
    assert capsys.readouterr().out.startswith("rejected: unknown terminal")


def test_check_agrees_with_enumerate(capsys):
    assert main(["enumerate", str(GOLDEN / "example2.rtg"), "--max-depth", "4"]) == 0
    members = capsys.readouterr().out.splitlines()
    assert len(members) == 35
    for expr in members[:5] + members[-5:]:
        assert main(["check", str(GOLDEN / "example2.rtg"), expr]) == 0
        capsys.readouterr()


def test_invert_prints_the_original_tree(capsys):
    assert main(["invert", str(GOLDEN / "lc_features.rtg"),
                 "e_S(one of(the(cats)))"]) == 0
    assert capsys.readouterr().out == "cats(the(one of(e_A)))\n"


def test_invert_maps_reduced_lc_trees_onto_the_reduced_standard_form(tmp_path, capsys):
    tag = tmp_path / "root_slot.tag"
    tag.write_text(ROOT_SLOT_TAG)
    lc, standard = str(tmp_path / "lc.rtg"), str(tmp_path / "standard.rtg")
    assert main(["translate", str(tag), "--lc", "--features", "--reduce", "--out", lc]) == 0
    assert main(["translate", str(tag), "--features", "--reduce", "--out", standard]) == 0
    assert main(["invert", lc, "e_S(t(u))"]) == 0
    original = capsys.readouterr().out
    assert original == "t(e_A, u)\n"
    assert main(["check", standard, original.strip()]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", str(GOLDEN / "example2.rtg"), "e_S(fish)"],
        ["invert", str(GOLDEN / "lc_features.rtg"), "e_S(e_A)"],
        ["check", str(GOLDEN / "example2.rtg"), "caught(fish(e_A)"],
        ["translate", "no-such-file.tag"],
        ["enumerate", str(GOLDEN / "missing.rtg"), "--max-depth", "2"],
    ],
)
def test_bad_input_exits_2_with_diagnostics(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


FILE_COMMANDS = {
    "translate": [FIG2],
    "stats": [FIG2],
    "check": [str(GOLDEN / "example2.rtg"), GOOD_TREE],
    "enumerate": [str(GOLDEN / "example2.rtg"), "--max-depth", "2"],
    "invert": [str(GOLDEN / "lc_features.rtg"), "e_S(cats)"],
}


# A fault in a .rtg file: the text it replaces, its replacement, and the message.
RTG_FAULTS = {
    "rank": (b"caught/3", "caught/²".encode(),
             "error: line 4: bad terminal declaration 'caught/²'\n"),
    "nonterminal": (b"nonterminals: S_S,", b"nonterminals: S_S, S_S,",
                    "error: duplicate nonterminal declaration\n"),
    "site": (b"  a = auxiliary", b"  a = initial inactive ();\n  a = auxiliary",
             "error: duplicate site entry\n"),
}


@pytest.mark.parametrize(
    "command, fault",
    [(command, "xff") for command in FILE_COMMANDS]
    + [(command, fault) for fault in RTG_FAULTS for command in ("check", "enumerate", "invert")],
)
def test_files_no_reader_takes_exit_2(tmp_path, capsys, command, fault):
    source, *rest = FILE_COMMANDS[command]
    data = Path(source).read_bytes()
    if fault == "xff":
        data = b"\xff" + data
        message = {
            ".tag": "error: byte 0xff is not UTF-8 (line 1, column 1)\n",
            ".rtg": "error: line 1: byte 0xff is not UTF-8\n",
        }[Path(source).suffix]
    else:
        old, new, message = RTG_FAULTS[fault]
        data = data.replace(old, new, 1)
    path = tmp_path / Path(source).name
    path.write_bytes(data)
    assert main([command, str(path), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_too_deep_tree_is_an_error_not_a_rejection(tmp_path, capsys):
    # The feature parser still recurses once per AVM level.
    depth = 3000
    avm = "[f: " * depth + "a" + "]" * depth
    path = tmp_path / "deep.rtg"
    path.write_text(EMPTY_RTG.replace("rules {\n", f"rules {{\n  X_S {avm} -> w;\n"))
    assert main(["check", str(path), "w"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input nested too deeply")


def test_deep_trees_get_a_verdict(capsys):
    depth = 3000
    chain = "the(" * depth + "e_A" + ")" * depth
    tree = f"caught(cats({chain}), e_A, fish(e_A))"
    assert main(["check", str(GOLDEN / "example1.rtg"), tree]) == 0
    assert capsys.readouterr().out.endswith("accepted: {}\n")
    assert main(["check", str(GOLDEN / "example2.rtg"), tree]) == 1
    assert capsys.readouterr().out.startswith("rejected at 1.1.1: ")


def test_invert_unwinds_a_deep_chain(capsys):
    depth = 10_000
    tree = "e_S(" + "the(" * depth + "cats" + ")" * (depth + 1)
    assert main(["invert", str(GOLDEN / "lc_features.rtg"), tree]) == 0
    expected = "cats(" + "the(" * depth + "e_A" + ")" * (depth + 1)
    assert capsys.readouterr().out == expected + "\n"


CHAIN_RTG = """\
rtg 1 standard
axiom: X;
nonterminals: X;
terminals: a/0, f/1;
sites {
}
rules {
  X -> f(X);
  X -> a;
}
"""


def test_enumerate_prints_deep_trees(tmp_path):
    # A fresh interpreter, so the test runner's own stack frames do not
    # count against the depth at which enumeration hashes a tree.
    path = tmp_path / "chain.rtg"
    path.write_text(CHAIN_RTG)
    env = dict(os.environ, PYTHONPATH=str(Path(tagrtg.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "tagrtg.cli", "enumerate", str(path), "--max-depth", "490"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 490
    assert lines[0] == "f(" * 489 + "a" + ")" * 489
    assert lines[-1] == "a"


def test_enumerate_prints_trees_deeper_than_the_recursion_limit(tmp_path):
    path = tmp_path / "chain.rtg"
    path.write_text(CHAIN_RTG)
    env = dict(os.environ, PYTHONPATH=str(Path(tagrtg.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "tagrtg.cli", "enumerate", str(path), "--max-depth", "1500"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1500
    assert lines[0] == "f(" * 1499 + "a" + ")" * 1499
    assert lines[-1] == "a"


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_a_closed_pipe_stops_the_command_quietly(unbuffered):
    # The read end is closed before the command starts, so its first write
    # to stdout, or its first flush when stdout is buffered, fails.  The
    # command stops with the status it already had and prints nothing.
    env = dict(os.environ, PYTHONPATH=str(Path(tagrtg.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    rtg = str(GOLDEN / "example2.rtg")
    for argv, code in (
        (["enumerate", rtg, "--max-depth", "6"], 0),
        (["check", rtg, BAD_AGREEMENT], 1),
        (["check", rtg, "wat(e_A)"], 1),
    ):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "tagrtg.cli", *argv],
                env=env, stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (code, b""), argv


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('tagrtg.')), file=sys.stderr)"
ENGINE = ["tagrtg.cli", "tagrtg.features", "tagrtg.rtg", "tagrtg.rtg_io", "tagrtg.trees"]
# Every public name the package resolves is the one object that each of
# its modules binding that name holds.
SAME_OBJECTS = """\
import importlib, pkgutil, sys, tagrtg
resolved = {name: getattr(tagrtg, name) for name in tagrtg.__all__}
modules = [importlib.import_module(f"tagrtg.{m.name}") for m in pkgutil.iter_modules(tagrtg.__path__)]
print(sorted(
    name for name, value in resolved.items()
    for module in modules if vars(module).get(name, value) is not value
), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "code, expected",
    [
        (f"import tagrtg; {LOADED}", []),
        (f"from tagrtg.cli import main; main(['check', {str(GOLDEN / 'example2.rtg')!r},"
         f" {GOOD_TREE!r}]); {LOADED}", ENGINE),
        (f"from tagrtg.cli import main; main(['enumerate', {str(GOLDEN / 'example2.rtg')!r},"
         f" '--max-depth', '3']); {LOADED}", ENGINE),
        (f"from tagrtg.cli import main; main(['invert', {str(GOLDEN / 'lc_plain.rtg')!r},"
         f" 'e_S(one of(the(cats)))']); {LOADED}", sorted(ENGINE + ["tagrtg.leftcorner"])),
        (SAME_OBJECTS, []),
    ],
    ids=["import", "check", "enumerate", "invert", "names"],
)
def test_a_fresh_process_loads_only_the_modules_it_runs(code, expected):
    env = dict(os.environ, PYTHONPATH=str(Path(tagrtg.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, f"{expected}\n")


def test_translated_grammar_declares_an_axiom_no_node_carries(tmp_path, capsys):
    tag = tmp_path / "startless.tag"
    tag.write_text('start: S;\ninitial n { (NP kind=adj (word "n")) }\n')
    target = tmp_path / "startless.rtg"
    assert main(["translate", str(tag), "--out", str(target)]) == 0
    assert main(["enumerate", str(target), "--max-depth", "3"]) == 0
    assert capsys.readouterr().out == ""


BINARY_RTG = """\
rtg 1 standard
axiom: X;
nonterminals: X;
terminals: a/0, f/2;
sites {
}
rules {
  X -> f(X, X);
  X -> a;
}
"""


def test_check_follows_long_derivations_of_shallow_trees(tmp_path, capsys):
    path = tmp_path / "binary.rtg"
    path.write_text(BINARY_RTG)
    tree = "a"
    for _ in range(9):
        tree = f"f({tree}, {tree})"
    # Ten levels but 1,023 rewrites: accepted, not "nested too deeply".
    assert main(["check", str(path), tree]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1024
    assert lines[-1] == "accepted: {}"


def test_translate_rejects_broken_grammar_files(tmp_path, capsys):
    bad = tmp_path / "bad.tag"
    bad.write_text("start: X;\ninitial n { (X kind=adj }\n")
    assert main(["translate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["x(y", "x,y", "#x"])
def test_translate_rejects_tree_names_the_rtg_format_cannot_hold(tmp_path, capsys, name):
    bad = tmp_path / "bad.tag"
    bad.write_text(f'start: S;\ninitial {name} {{ (S (word "w")) }}\n')
    assert main(["translate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: tree {name!r}: a tree name cannot")


@pytest.mark.parametrize("flags", [[], ["--lc"], ["--features", "--reduce"]])
@pytest.mark.parametrize("name", ["e_A", "e_S"])
def test_translate_rejects_tree_names_of_empty_tree_terminals(tmp_path, capsys, name, flags):
    bad = tmp_path / "bad.tag"
    bad.write_text(f'start: S; initial {name} {{ (S kind=adj (word "w")) }}\n')
    assert main(["translate", str(bad), *flags, "--out", str(tmp_path / "bad.rtg")]) == 2
    assert capsys.readouterr().err.startswith(f"error: tree {name!r} takes the name")
    assert not (tmp_path / "bad.rtg").exists()


def test_translate_rejects_labels_the_rtg_format_cannot_hold(tmp_path, capsys):
    bad = tmp_path / "bad.tag"
    bad.write_text(
        'start: S; initial t { (S (A->B kind=subst) (word "w")) } '
        'initial u { (A->B (word "x")) }\n'
    )
    assert main(["translate", str(bad), "--out", str(tmp_path / "bad.rtg")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tree 't', node 'A->B': a label cannot contain '->'\n"
    assert not (tmp_path / "bad.rtg").exists()


def test_stats_reports_sizes_and_growth(capsys):
    assert main(["stats", FIG2]) == 0
    assert capsys.readouterr().out == (
        "elementary trees: 7 (3 initial, 4 auxiliary)\n"
        "symbols: 6\n"
        "standard translation: 13 rules, 12 nonterminals\n"
        "left-corner translation: 23 rules, 18 nonterminals\n"
        "growth ratio: 1.77\n"
    )


def test_stats_on_a_tag_without_trees_has_no_growth_ratio(tmp_path, capsys):
    path = tmp_path / "empty.tag"
    path.write_text("start: S;\n")
    assert main(["stats", str(path)]) == 0
    assert capsys.readouterr().out == (
        "elementary trees: 0 (0 initial, 0 auxiliary)\n"
        "symbols: 0\n"
        "standard translation: 0 rules, 1 nonterminals\n"
        "left-corner translation: 0 rules, 1 nonterminals\n"
        "growth ratio: n/a\n"
    )


def test_stats_flags_inert_features_and_missing_lc(tmp_path, capsys):
    path = tmp_path / "odd.tag"
    path.write_text(
        "start: X;\n"
        'initial n { (X kind=adj (Y top=[f: a] (word "n"))) }\n'
        'auxiliary w { (X bot=[g: b] (word "w") (X kind=foot)) }\n'
    )
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "left-corner translation: unavailable" in out
    assert "note: top features on inactive node 'Y' of 'n' are ignored" in out
    assert "note: bot features on inactive node 'X' of 'w' are ignored" in out

    # An inner node's top and bottom are both ignored; an inactive
    # root's top is the tree's interface, so it draws no note.
    notes = tmp_path / "notes.tag"
    notes.write_text(
        "start: S;\n"
        'initial r { (S top=[f: a] (word "r")) }\n'
        'initial i { (S (Y top=[f: a] bot=[g: b] (word "i"))) }\n'
    )
    assert main(["stats", str(notes)]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("note:")] == [
        "note: top/bot features on inactive node 'Y' of 'i' are ignored"
    ]

    clash = tmp_path / "clash.tag"
    clash.write_text(
        "start: S;\n"
        'initial s { (S (NP kind=subst) (NP_S kind=subst) (word "s")) }\n'
        'initial np { (NP kind=adj (word "np")) }\n'
        'initial nps { (NP_S kind=adj (word "nps")) }\n'
    )
    assert main(["stats", str(clash)]) == 0
    assert "left-corner translation: unavailable (labels 'NP' and 'NP_S'" in (
        capsys.readouterr().out
    )
    assert main(["translate", str(clash), "--lc", "--features"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: labels 'NP' and 'NP_S'")


# An edit puts one of these before, after or instead of a word of a file
# or a tree: the delimiters of both file formats and of tree text, the
# names they reserve, whitespace that `str.split` and `str.splitlines`
# read but ASCII does not, digits that `int` reads but ASCII does not,
# and '\udcff', which a file holds as the byte 0xff, not UTF-8; or nothing.
TOKENS = (
    "(", ")", "[", "]", "{", "}", ":", ";", ",", "=", "&", "?", "#", '"', "/",
    "->", "e_A", "word", "\t", "\n", "\xa0", "\x85", "²", "٣", "\udcff", "",
)
EDIT = st.tuples(
    st.integers(0, 100), st.sampled_from(("before", "after", "instead")), st.sampled_from(TOKENS)
)
EDITS = st.lists(EDIT, max_size=2)
WORD = re.compile(r"\w+")
# fig2's start line, then one line per elementary tree.
FIG2_LINES = [line for line in Path(FIG2).read_text().splitlines() if not line.startswith("#")]
LC_TREE = "e_S(one of(the(cats)))"
README_TREES = (GOOD_TREE, "caught(cats(a(e_A)), has(e_A), fish(a(e_A)))", LC_TREE)
# The faults the contract once missed: a byte that is not UTF-8, and a
# rank that `str.isdigit` passes but `int` cannot read.
XFF = [(0, "before", "\udcff")]
SUPERSCRIPT_RANK = [(WORD.findall((GOLDEN / "example2.rtg").read_text()).index("caught") + 1,
                     "instead", "²")]


def _put(token, where, word):
    return {"before": token + word, "after": word + token, "instead": token}[where]


def _edit(text, edits):
    for index, where, token in edits:
        words = list(WORD.finditer(text))
        if words:
            word = words[index % len(words)]
            text = text[:word.start()] + _put(token, where, word[0]) + text[word.end():]
    return text


def _rename(text, rename):
    """Apply the edit to every occurrence of a name of the `.tag` text:
    its start symbol, a tree name or a node label."""
    tag = parse_tag(text)
    names = sorted(
        {tag.start, *(tree.name for tree in tag.trees)}
        | {node.label for tree in tag.trees for node in tree.root.nodes()
           if node.kind is not NodeKind.ANCHOR}
    )
    index, where, token = rename
    name = names[index % len(names)]
    return re.sub(rf"(?<!\w){re.escape(name)}(?!\w)", _put(token, where, name), text)


def _run(argv):
    """Run one command in process and check its exit status and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = main(argv)
    assert status in (0, 1, 2)
    assert stderr.getvalue().startswith("error:") if status == 2 else stderr.getvalue() == ""
    return status


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600)
@example(trees=set(range(7)), rename=(0, "after", ""), edits=XFF, flags=[])
@given(
    trees=st.sets(st.integers(0, len(FIG2_LINES) - 2), min_size=1, max_size=3),
    rename=EDIT,
    edits=st.lists(EDIT, max_size=1),
    flags=st.lists(st.sampled_from(["--lc", "--features", "--reduce"]), unique=True),
)
def test_edited_tag_files_keep_the_exit_contract(fuzz_dir, trees, rename, edits, flags):
    # fig2 cut down to some of its trees, then edited: a rename keeps the
    # grammar whole and tries the name rules, an edit mostly breaks it.
    text = "\n".join(FIG2_LINES[:1] + [FIG2_LINES[1 + tree] for tree in sorted(trees)])
    text = _edit(_rename(text, rename), edits)
    source = fuzz_dir / "edited.tag"
    source.write_bytes(text.encode(errors="surrogateescape"))
    out = fuzz_dir / "out.rtg"
    out.unlink(missing_ok=True)
    if _run(["translate", str(source), *flags, "--out", str(out)]) == 0:
        written = out.read_text(encoding="utf-8")
        assert format_rtg(parse_rtg(written)) == written
        # `stats` reads the file as `translate` does, so it runs only
        # where its own code gets to work.
        _run(["stats", str(source)])


@settings(max_examples=200)
@example(command="check", rtg="example2.rtg", edits=XFF, tree=GOOD_TREE, tree_edits=[])
@example(command="check", rtg="example2.rtg", edits=SUPERSCRIPT_RANK, tree=GOOD_TREE,
         tree_edits=[])
@given(
    command=st.sampled_from(["check", "enumerate", "invert"]),
    rtg=st.sampled_from(["example1.rtg", "example2.rtg", "lc_plain.rtg", "lc_features.rtg"]),
    edits=EDITS,
    tree=st.sampled_from(README_TREES),
    tree_edits=EDITS,
)
def test_edited_rtg_files_keep_the_exit_contract(fuzz_dir, command, rtg, edits, tree, tree_edits):
    text = _edit((GOLDEN / rtg).read_text(), edits)
    source = fuzz_dir / "edited.rtg"
    source.write_bytes(text.encode(errors="surrogateescape"))
    # '--' keeps a tree that an edit starts with '->' from reading as an
    # option; `invert` reads left-corner trees only.
    rest = {
        "check": ["--", _edit(tree, tree_edits)],
        "enumerate": ["--max-depth", "3"],
        "invert": ["--", _edit(LC_TREE, tree_edits)],
    }[command]
    _run([command, str(source), *rest])
    try:
        grammar = load_rtg(source)
    except ValueError:
        return
    assert parse_rtg(format_rtg(grammar)) == grammar
