"""Command-line behaviour, exit codes and golden transcripts."""

from pathlib import Path

import pytest

from tagrtg.cli import main
from tagrtg.tag import bundled_grammar

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


@pytest.mark.parametrize(
    "flags, transcript",
    [
        (["--reduce"], "example1.rtg"),
        (["--features", "--reduce"], "example2.rtg"),
        (["--lc", "--reduce"], "lc_plain.rtg"),
        (["--lc", "--features", "--reduce"], "lc_features.rtg"),
    ],
)
def test_translate_matches_stored_transcripts(capsys, flags, transcript):
    assert main(["translate", FIG2] + flags) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / transcript).read_text()


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
    assert "digraph tree1 {" in out
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


def test_too_deep_tree_is_an_error_not_a_rejection(capsys):
    depth = 3000
    chain = "the(" * depth + "e_A" + ")" * depth
    tree = f"caught(cats({chain}), e_A, fish(e_A))"
    assert main(["check", str(GOLDEN / "example1.rtg"), tree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_translate_rejects_broken_grammar_files(tmp_path, capsys):
    bad = tmp_path / "bad.tag"
    bad.write_text("start: X;\ninitial n { (X kind=adj }\n")
    assert main(["translate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_stats_reports_sizes_and_growth(capsys):
    assert main(["stats", FIG2]) == 0
    assert capsys.readouterr().out == (
        "elementary trees: 7 (3 initial, 4 auxiliary)\n"
        "symbols: 6\n"
        "standard translation: 13 rules, 12 nonterminals\n"
        "left-corner translation: 23 rules, 18 nonterminals\n"
        "growth ratio: 1.77\n"
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
