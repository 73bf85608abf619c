"""Tests of the benchmark's own oracles, generators and metric names.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tagrtg as tg  # noqa: E402
from tagrtg.features import Atom, Avm, Var  # noqa: E402
from tagrtg.rtg import FbRtg, FbRule, Nonterminal  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

FIG2 = HERE.parent / "src" / "tagrtg" / "grammars" / "fig2.tag"


def fig2_plain():
    tag = tg.load_tag(FIG2)
    return tg.reduce_grammar(tg.erase_features(tg.to_fbrtg(tag)))


def test_automaton_on_fig2_and_the_ambiguous_grammar():
    plain = oracles.Automaton(fig2_plain())
    assert plain.accepts(oracles.parse_plain(inputs.GOOD_TREE))
    assert plain.accepts(inputs.the_chain(900))
    assert not plain.accepts(oracles.parse_plain("caught(e_A, e_A, fish(e_A))"))
    ambiguous = oracles.Automaton(inputs.ambiguous_grammar())
    assert ambiguous.accepts(inputs.f_chain(20, "a"))
    assert not ambiguous.accepts(inputs.f_chain(20, "c"))


def test_counts_per_height():
    assert oracles.count_trees(fig2_plain(), 6) == [0, 0, 8, 184, 2512, 29296]
    # f(f(a)) has two derivations from X (through X or through Y):
    # trees, not derivations, count, so this is not [1, 2, 4, 8].
    assert oracles.count_trees(inputs.ambiguous_grammar(), 4) == [1, 2, 2, 2]


def test_skeleton_trees_agree_with_the_counts():
    grammar = fig2_plain()
    trees = oracles.skeleton_trees(grammar, 5)
    assert len(trees) == sum(oracles.count_trees(grammar, 5)) == 2704
    assert all(oracles.tree_height(t) <= 5 for t in trees)


def test_flat_language_by_hand():
    x, y = Nonterminal("X"), Nonterminal("Y")
    fx = (Avm((("f", Var("x")),)),)
    rules = (
        # X -> t(Y [f: ?x], Y [f: ?x]): both children agree on f
        FbRule(x, (), "t", ((y, fx), (y, fx))),
        FbRule(y, (Avm((("f", Atom("a")),)),), "a", ()),
        FbRule(y, (Avm((("f", Atom("b")),)),), "b", ()),
    )
    grammar = FbRtg(x, (x, y), (("a", 0), ("b", 0), ("t", 2)), rules)
    leaf = {name: tg.DerivTree(name) for name in "ab"}
    assert oracles.flat_language(grammar, 2) == {
        tg.DerivTree("t", (leaf["a"], leaf["a"])),
        tg.DerivTree("t", (leaf["b"], leaf["b"])),
    }
    assert oracles.flat_language(grammar, 1) == set()


def test_flat_language_reproduces_the_criterion_7_corpus():
    sizes = [len(oracles.flat_language(inputs.flat_feature_grammar(s), 4)) for s in range(50)]
    assert sum(sizes) == 1814 and max(sizes) == 676


def test_productive_reachable_worklists():
    s, a, b, c = (Nonterminal(n) for n in "SABC")
    rules = (
        FbRule(s, (), "f", ((a, ()), (b, ()))),
        FbRule(s, (), "g", ((a, ()),)),
        FbRule(a, (), "x", ()),
        FbRule(b, (), "h", ((b, ()),)),  # B never terminates
        FbRule(c, (), "y", ()),  # C is unreachable
    )
    productive, reachable = oracles.productive_reachable(s, rules)
    assert productive == {s, a, c}
    assert reachable == {s, a}


def test_tree_text_round_trip():
    for text in (inputs.GOOD_TREE, "e_A", "e_S(one of(the(cats)))"):
        tree = oracles.parse_plain(text)
        assert tree == tg.parse_tree(text)
        assert oracles.format_plain(tree) == text


def test_generators_are_deterministic():
    assert inputs.many_symbol_tag(7, 20) == inputs.many_symbol_tag(7, 20)
    tag = tg.parse_tag(inputs.many_symbol_tag(7, 20))
    assert len(tag.trees) == 80 and len(tag.initials) == 40
    fig2_text = FIG2.read_text(encoding="utf-8")
    assert len(tg.parse_tag(inputs.replicate_text(fig2_text, 3)).trees) == 21
    assert inputs.random_tag(85) == inputs.random_tag(85)


# A calibration that never runs, so that the tests set its best time.
UNTIMED = workloads.Calibration(task=None, reference_s=1e-3, every=10**9)


def record(rec, rounds):
    """Rounds of operation times in ms; `collect_at` forces a collection
    before that operation."""
    for times, collect_at in rounds:
        rec.start_round()
        for k, ms in enumerate(times):
            if k == collect_at:
                gc.collect()
            rec.op(ms / 1e3, items=5)
        rec.end_round()
    return {name: round(value, 6) for name, value in rec.raw_figures.items()}


def test_recorder_takes_each_operation_at_its_best_after_warm_up():
    rec = workloads.Recorder(tail=50, calibration=UNTIMED)
    # The first round only warms up: its 1 ms is not a best time.
    rounds = (((1, 40), None), ((4, 10), None), ((2, 30), None), ((3, 20), None))
    assert record(rec, rounds) == {
        "throughput_per_s": round(10 / 0.012, 6), "latency_ms_p50": 6.0, "latency_ms_tail": 6.0,
    }
    assert (rec.attempted, rec.warmup_rounds, rec.moved_collections) == (8, 1, 0)


def test_recorder_leaves_out_rounds_whose_collections_moved():
    rec = workloads.Recorder(tail=50, calibration=UNTIMED)
    rounds = (((4, 10), 1), ((5, 10), 1), ((1, 1), None), ((4, 20), 1), ((3, 30), 0))
    assert record(rec, rounds) == {
        "throughput_per_s": round(10 / 0.014, 6), "latency_ms_p50": 7.0, "latency_ms_tail": 7.0,
    }
    assert (rec.attempted, rec.warmup_rounds, rec.moved_collections) == (10, 1, 2)


def test_recorder_scales_figures_to_the_reference_speed():
    rec = workloads.Recorder(tail=50, calibration=UNTIMED)
    record(rec, (((4, 10), None), ((4, 10), None)))
    # The calibration took twice its reference time: the machine ran at
    # half the reference speed.
    rec.calibration_best = 2e-3
    figures = {name: round(value, 6) for name, value in rec.figures.items()}
    assert figures == {
        "throughput_per_s": round(2 * 10 / 0.014, 6), "latency_ms_p50": 3.5, "latency_ms_tail": 3.5,
    }


def test_recorder_times_the_calibration_between_operations():
    calls = []
    calibration = workloads.Calibration(task=lambda: calls.append(1), reference_s=1e-3, every=2)
    rec = workloads.Recorder(tail=50, calibration=calibration)
    record(rec, (((1, 2, 3, 4, 5), None), ((1, 2, 3, 4, 5), None)))
    assert len(calls) == 4 and 0 < rec.calibration_best < 1


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    rec = workloads.Recorder()
    record(rec, (((1, 2), None), ((1, 2), None)))
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mib", *rec.figures}
    layer = set(Tracer().metrics(1)) | {
        "cli.interpreter_ms", "cli.import_ms", "cli.command_ms", "trace.overhead_ratio",
    }
    assert {m["name"] for m in spec["per_layer"]} == layer
