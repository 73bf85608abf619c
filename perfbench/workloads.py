"""The benchmark's workloads.

Each workload has three phases:

- `setup()` builds or loads the grammars the workload runs on through
  the program; it is timed (repeated) for `setup_s`.
- `prepare(rng)` generates the seeded inputs and the answers the
  benchmark's own oracles expect; it is not timed.
- `run_round(rec)` performs one round of timed operations, recording
  each with `rec.op`, and returns the outputs; `check(outputs)` compares
  them with the expected answers and returns a list of mismatches.

Every round performs the same operations, so counts per round repeat
exactly and the share of failed operations does not depend on how many
rounds fit in a run.  The program is always reached through the
`tagrtg` package namespace, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import io
import os
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import tagrtg as tg
import tagrtg.cli

import inputs
import oracles

ROOT = Path(__file__).resolve().parents[1]
FIG2 = ROOT / "src" / "tagrtg" / "grammars" / "fig2.tag"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".perfbench_out"

# (left-corner, features) -> transcript of `tagrtg translate fig2 --reduce`
FORMS = {
    (False, False): "example1.rtg",
    (False, True): "example2.rtg",
    (True, False): "lc_plain.rtg",
    (True, True): "lc_features.rtg",
}


def calibration_loop(repeats=1):
    """A fixed pure-Python computation without tagrtg: small tuples
    built, hashed, counted and sorted, as tagrtg's trees are.  About a
    millisecond per repeat at the reference speed."""
    for _ in range(repeats):
        counts = {}
        for i in range(600):
            key = ("f", ("a", i % 7), ("b", i % 11), str(i % 13))
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())


def bare_interpreter():
    """A Python process that does nothing: the start-up every command pays."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)


@dataclasses.dataclass(frozen=True)
class Calibration:
    """A fixed task timed between a run's operations, and the time that
    task takes at the reference speed."""

    task: object
    reference_s: float
    every: int  # operations between two timings of the task


IN_PROCESS = Calibration(calibration_loop, 1e-3, 1)
# For tasks of tens of milliseconds or more: a task that needs as long a
# quiet moment as they do follows the machine's speed more closely.
LONG = Calibration(functools.partial(calibration_loop, 20), 20e-3, 1)
PROCESS = Calibration(bare_interpreter, 50e-3, 3)


class Recorder:
    """Timed operations of a run, each kept at its best time over the rounds.

    Every round performs the same operations in the same order, so the
    k-th operation of every round is the same work.  The figures come
    from each operation's best time, as `timeit` takes the best
    repetition: on a shared machine the slower repetitions measure other
    processes, and a quiet moment only as long as one operation is
    enough to time it.

    Even the best times follow the machine's speed, which on a shared
    host drifts by a quarter or more over minutes.  So every `calibration.every`
    operations the recorder also times a fixed task that does not use
    tagrtg, and `figures` gives times at the reference speed: each best
    time is scaled by the task's reference time over its best time in
    this run.  `raw_figures` gives them as measured.

    Each round starts with a full collection, outside the timed region,
    so that the collector starts every round in the same state; the
    round's allocations then trigger the same collections in the same
    operations, and an operation's best time includes the collections
    it triggers.  Rounds are warm-up until one triggers its collections
    where the round before did; that round's collections are the
    reference, and a later round whose collections fall elsewhere is
    left out of the best times and counted in `moved_collections`.
    Only one best time per operation is held, so the recorder's memory
    does not grow with the number of rounds.
    """

    def __init__(self, tail=99, calibration=IN_PROCESS):
        self.tail = tail
        self.calibration = calibration
        self.calibration_best = float("inf")
        self.attempted = 0
        self.failed = 0
        self.warmup_rounds = 0
        self.moved_collections = 0
        self._times = []
        self._items = 0
        self._best = None
        self._collections = []
        self._previous = None
        self._reference = None

    def _on_collection(self, phase, info):
        if phase == "start":
            self._collections.append((len(self._times), info["generation"]))

    def start_round(self):
        self._times.clear()
        self._items = 0
        # Freed before the collection, so that it does not count
        # against the round's allocations.
        self._collections = []
        gc.collect()
        gc.callbacks.append(self._on_collection)

    def op(self, seconds, items=1):
        self._times.append(seconds)
        self._items += items
        if len(self._times) % self.calibration.every == 0:
            start = perf_counter()
            self.calibration.task()
            self.calibration_best = min(self.calibration_best, perf_counter() - start)

    def extend_last(self, seconds):
        self._times[-1] += seconds

    def end_round(self):
        gc.callbacks.remove(self._on_collection)
        self.attempted += len(self._times)
        if self._reference is None:
            if self._collections != self._previous:
                self._previous = self._collections
                self.warmup_rounds += 1
                return
            self._reference = self._collections
        elif self._collections != self._reference:
            self.moved_collections += 1
            return
        self._best = list(map(min, self._best or self._times, self._times))

    @property
    def scale(self):
        """Reference speed over this run's speed, as the calibration saw them."""
        return self.calibration.reference_s / self.calibration_best

    @property
    def raw_figures(self):
        ms = [t * 1e3 for t in self._best]
        return {
            "throughput_per_s": self._items / sum(self._best),
            "latency_ms_p50": statistics.median(ms),
            "latency_ms_tail": statistics.quantiles(ms, n=100, method="inclusive")[self.tail - 1],
        }

    @property
    def figures(self):
        raw = self.raw_figures
        return {
            name: value / self.scale if name == "throughput_per_s" else value * self.scale
            for name, value in raw.items()
        }


def _fig2_grammars(lc, features):
    tag = tg.load_tag(FIG2)
    grammar = tg.lc_fbrtg(tag) if lc else tg.to_fbrtg(tag)
    return tg.reduce_grammar(grammar if features else tg.erase_features(grammar))


def _tag_shape(text):
    """Initial trees, auxiliary trees and node labels, read off the text."""
    initials = len(re.findall(r"^initial ", text, re.MULTILINE))
    auxiliaries = len(re.findall(r"^auxiliary ", text, re.MULTILINE))
    labels = set(re.findall(r"\(([^\s()\"]+)", text)) - {"word"}
    return initials, auxiliaries, len(labels)


def _same_rounds(first, outputs, what):
    return [] if outputs == first else [f"{what}: output differs from the first round"]


# ------------------------------------------------------------- build


class Build:
    """TAG text -> translation -> (erasure) -> reduction -> .rtg text -> grammar."""

    TAIL = 90  # eight operations a round: too few samples for p99
    calibration = LONG  # an operation takes 15-40 ms
    # Sized so a round takes a third of a second, for many repetitions
    # of each operation in a run; small grammars also depend less on
    # the memory speed other tenants of the machine swing.
    COPIES = 20
    SYMBOLS = 40

    def setup(self):
        pass  # the inputs are TAG texts; nothing is built ahead

    def prepare(self, rng):
        fig2_text = FIG2.read_text(encoding="utf-8")
        self.inputs = [
            (f"fig2x{self.COPIES}", inputs.replicate_text(fig2_text, self.COPIES)),
            ("symbols", inputs.many_symbol_tag(rng.randrange(2**32), self.SYMBOLS)),
        ]
        self.shapes = {name: _tag_shape(text) for name, text in self.inputs}
        self.problems = []
        # Reduced fig2 against the hand-checked transcripts, once, untimed.
        for (lc, features), golden in FORMS.items():
            out = tg.format_rtg(_fig2_grammars(lc, features))
            if out != (GOLDEN / golden).read_text(encoding="utf-8"):
                self.problems.append(f"fig2 reduced output differs from {golden}")
        self.first = None

    def run_round(self, rec):
        # The round's grammars stay referenced until it ends, as a
        # library user's would, so the cyclic collector's rescans of
        # them count against the operations that trigger them.
        outputs = []
        for name, text in self.inputs:
            initials, auxiliaries, _ = self.shapes[name]
            for lc, features in FORMS:
                start = perf_counter()
                grammars = _compile(text, lc, features)
                rec.op(perf_counter() - start, items=initials + auxiliaries)
                outputs.append((name, lc, features, grammars))
        return outputs

    def check(self, outputs):
        facts = [
            (name, lc, features, len(full.rules), back == reduced, _useless_rule(reduced), text)
            for name, lc, features, (full, reduced, text, back) in outputs
        ]
        problems, self.problems = self.problems, []
        if self.first is not None:
            return problems + _same_rounds(self.first, facts, "build")
        self.first = facts
        full_rules = {}
        for name, lc, features, n_full, round_trips, useless, _ in facts:
            where = f"build {name} lc={lc} features={features}"
            initials, auxiliaries, symbols = self.shapes[name]
            full_rules[name, lc, features] = n_full
            if not round_trips:
                problems.append(f"{where}: parse_rtg(format_rtg(g)) != g")
            expected = (
                initials + 2 * auxiliaries + 2 * symbols if lc
                else initials + auxiliaries + symbols
            )
            if n_full != expected:
                problems.append(f"{where}: {n_full} rules before reduction, expected {expected}")
            if useless is not None:
                problems.append(f"{where}: rule {useless} is useless after reduction")
        for name, _ in self.inputs:
            for features in (False, True):
                if full_rules[name, True, features] > 2 * full_rules[name, False, features]:
                    problems.append(f"build {name}: LC form more than twice the standard form")
        return problems


def _compile(text, lc, features):
    """The pipeline: the full grammar, the reduced one, its .rtg text, and
    the grammar parsed back from that text."""
    tag = tg.parse_tag(text)
    full = tg.lc_fbrtg(tag) if lc else tg.to_fbrtg(tag)
    if not features:
        full = tg.erase_features(full)
    reduced = tg.reduce_grammar(full)
    text_out = tg.format_rtg(reduced)
    return full, reduced, text_out, tg.parse_rtg(text_out)


def _useless_rule(grammar):
    """A rule that is unproductive or unreachable by the worklist oracle, or None."""
    productive, reachable = oracles.productive_reachable(grammar.axiom, grammar.rules)
    for rule in grammar.rules:
        if rule.lhs not in reachable or not all(nt in productive for nt, _ in rule.rhs):
            return rule
    return None


# ---------------------------------------------------------- generate


def _timed_enumeration(rec, grammar, depth, after=None):
    """Enumerate, recording the time to produce each tree as one operation.

    The search after the last tree belongs to that tree's operation; an
    enumeration that yields nothing is one operation without items.
    """
    trees = []
    start = perf_counter()
    for tree in tg.enumerate_trees(grammar, depth):
        if after is not None:
            after(tree)
        rec.op(perf_counter() - start)
        trees.append(tree)
        start = perf_counter()
    if trees:
        rec.extend_last(perf_counter() - start)
    else:
        rec.op(perf_counter() - start, items=0)
    return trees


class Generate:
    """The free-running engine: plain fig2 to height 5 (rules in a seeded
    order), flat random feature grammars to height 4, and fig2's standard
    and left-corner feature grammars to heights 4-7 with every LC tree
    mapped back by lc_inverse."""

    TAIL = 99
    # A tree takes about 50 microseconds.
    calibration = dataclasses.replace(IN_PROCESS, every=100)

    # Height 6 (32,000 trees) takes 3 s a round, too few repetitions of
    # each tree for its best time to be steady.
    PLAIN_DEPTH = 5
    # Criterion 7's corpus is seeds 0-49; this one is four times wider.
    # It is fixed, and the workload seed only orders it: the share of
    # large languages swings trees per second by half between random draws.
    FLAT_SEEDS = range(200)
    FLAT_DEPTH = 4
    # Skeleton languages above this size take seconds to enumerate
    # (some seeds reach a million trees at height 4), so they are skipped.
    FLAT_CAP = 1000
    FIG2_DEPTHS = (4, 5, 6, 7)

    def setup(self):
        self.plain = _fig2_grammars(lc=False, features=False)
        self.std = _fig2_grammars(lc=False, features=True)
        self.lc = _fig2_grammars(lc=True, features=True)

    def prepare(self, rng):
        rules = list(self.plain.rules)
        rng.shuffle(rules)
        self.plain = dataclasses.replace(self.plain, rules=tuple(rules))
        self.counts = oracles.count_trees(self.plain, self.PLAIN_DEPTH)
        self.automaton = oracles.Automaton(self.plain)
        self.flat = []
        for seed in self.FLAT_SEEDS:
            grammar = inputs.flat_feature_grammar(seed)
            if sum(oracles.count_trees(grammar, self.FLAT_DEPTH)) <= self.FLAT_CAP:
                self.flat.append((grammar, oracles.flat_language(grammar, self.FLAT_DEPTH)))
        rng.shuffle(self.flat)
        self.first = None

    def run_round(self, rec):
        plain = _timed_enumeration(rec, self.plain, self.PLAIN_DEPTH)
        flat = [_timed_enumeration(rec, g, self.FLAT_DEPTH) for g, _ in self.flat]
        fig2 = []
        for depth in self.FIG2_DEPTHS:
            std = _timed_enumeration(rec, self.std, depth)
            inverted = []
            lc = _timed_enumeration(
                rec, self.lc, depth, lambda t: inverted.append(tg.lc_inverse(self.lc, t))
            )
            fig2.append((depth, std, lc, inverted))
        return plain, flat, fig2

    def check(self, outputs):
        if self.first is not None:
            return _same_rounds(self.first, outputs, "generate")
        self.first = outputs
        plain, flat, fig2 = outputs
        problems = []
        heights = Counter(oracles.tree_height(t) for t in plain)
        counted = [heights.get(h, 0) for h in range(1, self.PLAIN_DEPTH + 1)]
        if counted != self.counts:
            problems.append(f"generate plain: trees per height {counted}, expected {self.counts}")
        if len(set(plain)) != len(plain):
            problems.append("generate plain: duplicate trees")
        if not all(self.automaton.accepts(t) for t in plain):
            problems.append("generate plain: a tree outside the language")
        for (grammar, language), trees in zip(self.flat, flat):
            if len(set(trees)) != len(trees) or set(trees) != language:
                problems.append(
                    f"generate flat: {len(trees)} trees, oracle {len(language)}"
                )
        for depth, std, lc, inverted in fig2:
            where = f"generate fig2 height {depth}"
            if any(oracles.tree_height(t) > depth for t in std + lc):
                problems.append(f"{where}: tree above the height bound")
            if len(set(inverted)) != len(lc) or set(inverted) != set(std):
                problems.append(f"{where}: lc_inverse is not a bijection onto the standard trees")
            if not all(tg.accepts(self.std, t) for t in inverted):
                problems.append(f"{where}: an inverted tree is rejected by the standard grammar")
        return problems


# ------------------------------------------------------------- check


class Check:
    """Membership verdicts on trees the benchmark generates itself."""

    TAIL = 99
    # A check takes about 0.4 ms.
    calibration = dataclasses.replace(IN_PROCESS, every=25)

    # The checks on fig2 x300, the deep chains and the ambiguous grammar
    # take 3-40 ms and are bound by memory, whose speed other tenants of
    # the machine swing by half.  Nine of them stay under 1% of the
    # ~1,200 verdicts, so the p99 measures ordinary checks and only the
    # throughput carries the heavy ones.
    FIG2_SAMPLE = 150
    RANDOM_TREES = 50
    BIG_SAMPLE = 5
    CHAIN_DEPTHS = (300, 850)
    BIG_SIZE = 10  # nodes; the commonest size among the 2,704
    FLAT_GRAMMARS = 10
    FLAT_TREES = 10
    # Seeds 37 and 98 hold the disagreements known below height 4.
    DIFFERENTIAL_SEEDS = range(100)
    DIFFERENTIAL_HEIGHT = 3

    def setup(self):
        self.std = _fig2_grammars(lc=False, features=True)
        self.lc = _fig2_grammars(lc=True, features=True)
        self.plain = _fig2_grammars(lc=False, features=False)
        big = tg.parse_tag(inputs.replicate_text(FIG2.read_text(encoding="utf-8"), 300))
        self.big = tg.reduce_grammar(tg.to_fbrtg(big))
        self.corpus = []
        for seed in self.DIFFERENTIAL_SEEDS:
            tag = inputs.random_tag(seed)
            self.corpus.append((seed, tg.to_fbrtg(tag), tg.lc_fbrtg(tag)))

    def prepare(self, rng):
        fmt = oracles.format_plain
        self.ops = []  # (grammar, tree text, standard grammar for lc_image or None)
        self.expect = []  # (kind, op indices, expected value)

        def op(grammar, tree, image_of=None):
            self.ops.append((grammar, fmt(tree), image_of))
            return len(self.ops) - 1

        plain_auto = oracles.Automaton(self.plain)
        skeletons = sorted(oracles.skeleton_trees(self.plain, 5), key=fmt)
        for tree in rng.sample(skeletons, self.FIG2_SAMPLE):
            i_std, i_lc = op(self.std, tree), op(self.lc, tree, self.std)
            i_plain = op(self.plain, tree)
            self.expect.append(("plain", (i_plain,), plain_auto.accepts(tree)))
            self.expect.append(("fig2 standard = lc", (i_std, i_lc), None))
            self.expect.append(("features imply plain", (i_std, i_plain), None))
        # One size, so that the sample does not move the cost.
        sized = [t for t in skeletons if oracles.tree_size(t) == self.BIG_SIZE]
        for tree in rng.sample(sized, self.BIG_SAMPLE):
            big_tree = inputs.rename_tree(tree, rng.randrange(300))
            self.expect.append(("fig2x300 = fig2", (op(self.big, big_tree), op(self.std, tree)), None))
        for _ in range(self.RANDOM_TREES):
            tree = inputs.random_ranked_tree(rng, self.plain.terminals, 5)
            self.expect.append(("plain", (op(self.plain, tree),), plain_auto.accepts(tree)))
        good = oracles.parse_plain(inputs.GOOD_TREE)
        self.expect.append(("hand", (op(self.std, good),), (True, None)))
        flipped = oracles.parse_plain(inputs.FLIPPED_TREE)
        self.expect.append(("hand", (op(self.std, flipped),), (False, None)))
        for text, position in inputs.REJECTED_TREES:
            tree = oracles.parse_plain(text)
            self.expect.append(("hand", (op(self.std, tree),), (False, position)))
        for base in self.CHAIN_DEPTHS:
            tree = inputs.the_chain(base + rng.randrange(50))
            self.expect.append(("plain", (op(self.plain, tree),), plain_auto.accepts(tree)))
        ambiguous = inputs.ambiguous_grammar()
        ambiguous_auto = oracles.Automaton(ambiguous)
        for leaf in ("a", "c"):
            tree = inputs.f_chain(rng.randint(6, 9), leaf)
            self.expect.append(("plain", (op(ambiguous, tree),), ambiguous_auto.accepts(tree)))
        flat = 0
        while flat < self.FLAT_GRAMMARS:
            grammar = inputs.flat_feature_grammar(rng.randrange(2**32))
            if sum(oracles.count_trees(grammar, 4)) > Generate.FLAT_CAP:
                continue
            trees = sorted(oracles.skeleton_trees(grammar, 4), key=fmt)
            if len(trees) < self.FLAT_TREES:
                continue
            language = oracles.flat_language(grammar, 4)
            for tree in rng.sample(trees, self.FLAT_TREES):
                self.expect.append(("flat", (op(grammar, tree),), tree in language))
            flat += 1
        # The differential corpus is fixed: it does not depend on the seed.
        self.pairs = []
        for seed, std, lc in self.corpus:
            for tree in sorted(oracles.skeleton_trees(std, self.DIFFERENTIAL_HEIGHT), key=fmt):
                self.pairs.append((seed, op(std, tree), op(lc, tree, std)))
        self.first = None

    def run_round(self, rec):
        verdicts = []
        for grammar, text, image_of in self.ops:
            start = perf_counter()
            tree = tg.parse_tree(text)
            if image_of is not None:
                tree = tg.lc_image(image_of, tree)
            result = tg.accepts_detailed(grammar, tree)
            rec.op(perf_counter() - start)
            verdicts.append((result.accepted, result.failure_position))
        for seed, i_std, i_lc in self.pairs:
            if verdicts[i_std][0] != verdicts[i_lc][0]:
                rec.failed += 1
        return verdicts

    def check(self, verdicts):
        if self.first is not None:
            return _same_rounds(self.first, verdicts, "check")
        self.first = verdicts
        problems = []
        for kind, indices, expected in self.expect:
            got = [verdicts[i] for i in indices]
            where = f"check {kind}: {self.ops[indices[0]][1]}"
            if kind in ("plain", "flat") and got[0][0] != expected:
                problems.append(f"{where}: verdict {got[0][0]}, oracle says {expected}")
            elif kind == "hand" and (
                got[0][0] != expected[0] or (expected[1] and got[0][1] != expected[1])
            ):
                problems.append(f"{where}: got {got[0]}, expected {expected}")
            elif kind in ("fig2 standard = lc", "fig2x300 = fig2") and got[0][0] != got[1][0]:
                problems.append(f"{where}: verdicts differ")
            elif kind == "features imply plain" and got[0][0] and not got[1][0]:
                problems.append(f"{where}: accepted with features, rejected without")
        for seed, i_std, i_lc in self.pairs:
            std, lc = verdicts[i_std][0], verdicts[i_lc][0]
            if std != lc:
                print(
                    f"known fault: random_tag seed {seed}: {self.ops[i_std][1]}"
                    f" standard={'accept' if std else 'reject'}"
                    f" lc={'accept' if lc else 'reject'}",
                    file=sys.stderr,
                )
        return problems


# --------------------------------------------------------------- cli


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Cli:
    """The README's commands, each a fresh `python -m tagrtg.cli` process."""

    TAIL = 90  # eleven commands a round: too few for p99
    # An operation is a whole process: its start-up, import and
    # collections all fall inside its own time, so its best time over
    # the rounds is a command that really ran.

    ENUMERATE_DEPTH = 4
    FEATURE_DEPTH = 5

    in_process = False  # set for traced runs, see run_in_process

    @property
    def calibration(self):
        return IN_PROCESS if self.in_process else PROCESS

    def setup(self):
        OUT.mkdir(exist_ok=True)
        self.files = {}
        for name, (lc, features) in (
            ("plain", (False, False)), ("features", (False, True)), ("lc", (True, True)),
        ):
            path = OUT / f"cli-{name}.rtg"
            path.write_text(tg.format_rtg(_fig2_grammars(lc, features)), encoding="utf-8")
            self.files[name] = str(path)

    def prepare(self, rng):
        fig2 = str(FIG2)
        plain = _fig2_grammars(lc=False, features=False)
        lc_plain = _fig2_grammars(lc=True, features=False)
        fmt = oracles.format_plain
        self.automaton = oracles.Automaton(plain)
        initials, auxiliaries, symbols = _tag_shape(FIG2.read_text(encoding="utf-8"))
        rejected, position = rng.choice(inputs.REJECTED_TREES)
        lc_tree = fmt(rng.choice(sorted(oracles.skeleton_trees(lc_plain, 4), key=fmt)))
        feature_lines = {fmt(t) for t in oracles.skeleton_trees(plain, self.FEATURE_DEPTH)}
        self.commands = []
        for (lc, features), golden in FORMS.items():
            flags = ["--lc"] * lc + ["--features"] * features + ["--reduce"]
            text = (GOLDEN / golden).read_text(encoding="utf-8")
            self.commands.append((["translate", fig2, *flags], 0, lambda out, t=text: out == t))
        expected = sum(oracles.count_trees(plain, self.ENUMERATE_DEPTH))
        self.commands += [
            (
                ["enumerate", self.files["plain"], "--max-depth", str(self.ENUMERATE_DEPTH)],
                0,
                lambda out: len(set(out.splitlines())) == len(out.splitlines()) == expected,
            ),
            (
                ["enumerate", self.files["features"], "--max-depth", str(self.FEATURE_DEPTH)],
                0,
                lambda out: bool(out) and set(out.splitlines()) <= feature_lines,
            ),
            (
                ["check", self.files["features"], inputs.GOOD_TREE],
                0,
                lambda out: out.splitlines()[-1].startswith("accepted: "),
            ),
            (
                ["check", self.files["features"], rejected],
                1,
                lambda out: out.startswith(f"rejected at {position}: "),
            ),
            (["check", self.files["features"], "caught(cats("], 2, lambda out: out == ""),
            (
                ["invert", self.files["lc"], lc_tree],
                0,
                lambda out: self.automaton.accepts(oracles.parse_plain(out.strip())),
            ),
            (
                ["stats", fig2],
                0,
                lambda out: out.startswith(
                    f"elementary trees: {initials + auxiliaries}"
                    f" ({initials} initial, {auxiliaries} auxiliary)\nsymbols: {symbols}\n"
                ),
            ),
        ]
        self.first = None

    def run_round(self, rec):
        return self.run_in_process(rec) if self.in_process else self.run_processes(rec)

    def run_processes(self, rec):
        outputs = []
        env = python_env()
        for argv, _, _ in self.commands:
            start = perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "tagrtg.cli", *argv],
                capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
            )
            rec.op(perf_counter() - start)
            outputs.append((done.returncode, done.stdout))
        return outputs

    def run_in_process(self, rec):
        """The same commands through `tagrtg.cli.main`, where a tracer
        sees them: each command's own work, without interpreter start or
        import."""
        outputs = []
        for argv, _, _ in self.commands:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tg.cli.main(argv)
            rec.op(perf_counter() - start)
            outputs.append((code, out.getvalue()))
        return outputs

    def check(self, outputs):
        problems = []
        for (argv, code, good), (got_code, out) in zip(self.commands, outputs):
            if got_code != code:
                problems.append(f"cli {argv[0]}: exit {got_code}, expected {code}")
            elif not good(out):
                problems.append(f"cli {' '.join(argv)}: unexpected output")
        if self.first is None:
            self.first = outputs
        return problems + _same_rounds(self.first, outputs, "cli")


WORKLOADS = {
    "build": Build,
    "generate": Generate,
    "check": Check,
    "cli": Cli,
}
