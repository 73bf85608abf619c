"""Reference figures for the benchmark README: one-off timings of the
cases the workloads are built from, each the median of a few repeats.

Usage, from the root of the repository (about a minute):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tagrtg as tg  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def timed(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def row(what, seconds, note=""):
    print(f"{what:<58} {seconds * 1e3:>10.1f} ms  {note}")


def main():
    fig2_text = workloads.FIG2.read_text(encoding="utf-8")
    print("build")
    big = inputs.replicate_text(fig2_text, 300)
    for (lc, features) in workloads.FORMS:
        seconds, _ = timed(lambda: workloads._compile(big, lc, features))
        row(f"  fig2 x300 pipeline, lc={lc} features={features}", seconds)
    for symbols in (150, 300):
        tag = tg.parse_tag(inputs.many_symbol_tag(1, symbols))
        for lc in (False, True):
            grammar = tg.lc_fbrtg(tag) if lc else tg.to_fbrtg(tag)
            for features in (True, False):
                g = grammar if features else tg.erase_features(grammar)
                seconds, _ = timed(lambda: tg.reduce_grammar(g))
                row(f"  reduce_grammar, {symbols} symbols, lc={lc} features={features}", seconds,
                    f"{len(g.rules)} rules in")

    print("generate")
    plain = workloads._fig2_grammars(lc=False, features=False)
    seconds, count = timed(lambda: sum(1 for _ in tg.enumerate_trees(plain, 6)), 1)
    row("  plain fig2 to height 6", seconds, f"{count} trees")
    flat = [inputs.flat_feature_grammar(seed) for seed in range(50)]
    seconds, count = timed(lambda: sum(1 for g in flat for _ in tg.enumerate_trees(g, 4)))
    row("  flat feature grammars, seeds 0-49, height 4", seconds, f"{count} trees")

    print("check")
    std = workloads._fig2_grammars(lc=False, features=True)
    verdicts = {True: [], False: []}
    for tree in oracles.skeleton_trees(plain, 5):
        start = perf_counter()
        accepted = tg.accepts(std, tree)
        verdicts[accepted].append(perf_counter() - start)
    row("  fig2 skeletons of height <= 5, accept p50", statistics.median(verdicts[True]),
        f"{len(verdicts[True])} accepted")
    row("  fig2 skeletons of height <= 5, reject p50", statistics.median(verdicts[False]),
        f"{len(verdicts[False])} rejected")
    good = tg.parse_tree(inputs.GOOD_TREE)
    row("  GOOD_TREE on fig2", timed(lambda: tg.accepts(std, good), 5)[0])
    big_std = tg.reduce_grammar(tg.to_fbrtg(tg.parse_tag(big)))
    big_good = inputs.rename_tree(good, 0)
    row("  GOOD_TREE on fig2 x300", timed(lambda: tg.accepts(big_std, big_good), 5)[0])
    for depth in (100, 900):
        chain = inputs.the_chain(depth)
        row(f"  plain the-chain, {depth} deep", timed(lambda: tg.accepts(plain, chain))[0])
    ambiguous = inputs.ambiguous_grammar()
    for k in (8, 14):
        tree = inputs.f_chain(k, "c")
        row(f"  ambiguous grammar, f^{k}(c)", timed(lambda: tg.accepts(ambiguous, tree))[0])

    print("cli")
    env = workloads.python_env()

    def wall(argv):
        return lambda: subprocess.run(
            [sys.executable, *argv], env=env, cwd=workloads.ROOT, capture_output=True, check=False
        )

    row("  bare interpreter", timed(wall(["-c", "pass"]), 11)[0])
    row("  interpreter + import tagrtg.cli", timed(wall(["-c", "import tagrtg.cli"]), 11)[0])
    fig2 = str(workloads.FIG2)
    for argv in (
        ["translate", fig2, "--features", "--reduce"],
        ["translate", fig2, "--lc", "--features", "--reduce"],
        ["stats", fig2],
    ):
        row(f"  tagrtg {' '.join(argv[:1] + argv[2:])}", timed(wall(["-m", "tagrtg.cli", *argv]), 11)[0])


if __name__ == "__main__":
    main()
