"""End-to-end acceptance checks.

One test per shipped guarantee: golden transcripts for the four
translation pipelines, membership checking with its agreement replay,
the rejection suite, the inverse roundtrip, a randomized enumeration
oracle, size bounds and linear translation work, the unification laws
(their one home in the suite), and a randomized differential between
the standard and left-corner forms.
Each test enforces its own runtime or tolerance budget, so `pytest -v`
yields one pass/fail line per criterion.
"""

import gc
import sys
import time
from collections import Counter
from itertools import product, repeat
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from inputs import ambiguous_grammar, flat_feature_grammar, random_tag, replicate_text
from oracles import flat_language, tree_size
from tagrtg.cli import main
from tagrtg.features import (
    TOP,
    Atom,
    Avm,
    Substitution,
    Var,
    apply,
    compose,
    format_feature,
    freshen,
    unify,
    variables,
)
from tagrtg.leftcorner import lc_image, lc_inverse
from tagrtg.rtg import (
    _derivations,
    accepts,
    accepts_detailed,
    enumerate_trees,
    erase_features,
    reduce_grammar,
)
from tagrtg.rtg_io import parse_rtg
from tagrtg.tag import bundled_grammar, parse_tag
from tagrtg.translate import lc_fbrtg, to_fbrtg
from tagrtg.trees import DerivTree, parse_tree
from terms import alpha_equal, is_idempotent, subst_strategy, substitute, term_strategy

GOLDEN = Path(__file__).parent / "golden"
FIG2_PATH = str(bundled_grammar("fig2"))

GOOD_TREE = "caught(cats(the(one of(e_A))), has(e_A), fish(a(e_A)))"


def run_translate(capsys, *flags):
    start = time.perf_counter()
    code = main(["translate", FIG2_PATH, *flags])
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().out, elapsed


def test_criterion_1_plain_translation_transcript(capsys):
    code, out, elapsed = run_translate(capsys, "--reduce")
    assert code == 0
    assert out == (GOLDEN / "example1.rtg").read_text()
    grammar = parse_rtg(out)
    assert len(grammar.rules) == 9
    assert {str(n) for n in grammar.nonterminals} == {"S_S", "VP_S", "VP_A", "NP_S", "NP_A"}
    assert {name for name, _ in grammar.terminals} == {
        "one of", "the", "cats", "has", "caught", "a", "fish", "e_A",
    }
    assert elapsed < 1.0


def test_criterion_2_feature_translation_transcript(capsys):
    code, out, elapsed = run_translate(capsys, "--features", "--reduce")
    assert code == 0
    assert out == (GOLDEN / "example2.rtg").read_text()
    grammar = parse_rtg(out)
    assert len(grammar.rules) == 9
    closures = [r for r in grammar.rules if str(r).endswith("[top: ?v, bot: ?v] -> e_A")]
    assert [str(r.lhs) for r in closures] == ["NP_A", "VP_A"]
    assert elapsed < 1.0


def test_criterion_3_membership_with_agreement_replay(feature_grammar):
    start = time.perf_counter()
    result = accepts_detailed(feature_grammar, parse_tree(GOOD_TREE))
    elapsed = time.perf_counter() - start
    assert result.accepted
    # The subject noun commits to 3sg only when the innermost adjunction
    # closes, which is the fifth rewrite under the leftmost strategy.
    fifth = result.steps[4]
    assert fifth.index == 5 and fifth.position == "1.1.1.1"
    assert dict(fifth.delta.items())["ε.x"] == Atom("3sg")
    assert dict(result.env.items())["ε.x"] == Atom("3sg")
    # Nesting the subject's adjunctions the other way around is not
    # derivable: "one of" requires a definite constituent below it.
    flipped = "caught(cats(one of(the(e_A))), has(e_A), fish(a(e_A)))"
    assert not accepts(feature_grammar, parse_tree(flipped))
    assert elapsed < 1.0


def test_criterion_4_agreement_rejection_suite(feature_grammar, plain_grammar):
    rejected = [
        # *the cats has: plural subject against a 3sg verb
        ("caught(cats(the(e_A)), has(e_A), fish(a(e_A)))", "2.1"),
        # *a cats: singular article on a plural noun
        ("caught(cats(a(e_A)), has(e_A), fish(a(e_A)))", "1.1"),
        # bare "caught" without "has": mode ind against ppart at the verb
        ("caught(cats(the(one of(e_A))), e_A, fish(a(e_A)))", "2"),
        ("caught(cats(one of(the(e_A))), e_A, fish(a(e_A)))", "1.1.1"),
    ]
    for expr, position in rejected:
        tree = parse_tree(expr)
        start = time.perf_counter()
        result = accepts_detailed(feature_grammar, tree)
        elapsed = time.perf_counter() - start
        assert not result.accepted, expr
        assert result.failure_position == position, expr
        assert elapsed < 1.0
        # without features the same skeleton goes through
        assert accepts(plain_grammar, tree), expr


def test_criterion_5_left_corner_transcripts(capsys):
    code, plain, elapsed_plain = run_translate(capsys, "--lc", "--reduce")
    assert code == 0
    assert plain == (GOLDEN / "lc_plain.rtg").read_text()
    code, feats, elapsed_feats = run_translate(capsys, "--lc", "--features", "--reduce")
    assert code == 0
    assert feats == (GOLDEN / "lc_features.rtg").read_text()
    assert len(parse_rtg(plain).rules) == 9
    assert len(parse_rtg(feats).rules) == 9
    # root adjunctions run outermost first, so "the" now exposes the
    # root pair on its left-hand side and hands the foot pair down
    assert ("NP [top: ?t, bot: [agr: ?x, const: +, def: +]] ->"
            " the(NP [top: ?t, bot: [agr: ?x, const: -]]);") in feats
    assert elapsed_plain < 1.0 and elapsed_feats < 1.0


def test_criterion_6_inverse_roundtrip(fig2):
    lc = lc_fbrtg(fig2)
    std = to_fbrtg(fig2)
    start = time.perf_counter()
    seen = set()
    for tree in enumerate_trees(lc, 6):
        back = lc_inverse(lc, tree)
        assert back not in seen, f"inverse collides on {back}"
        seen.add(back)
        assert accepts(std, back), f"{tree} inverts to unaccepted {back}"
    elapsed = time.perf_counter() - start
    assert len(seen) == 63
    assert elapsed < 30.0


# ---------------------------------------------------- randomized grammars


def test_criterion_7_enumeration_matches_product_oracle():
    start = time.perf_counter()
    sizes = []
    for seed in range(50):
        grammar = flat_feature_grammar(seed)
        enumerated = set(enumerate_trees(grammar, 4))
        oracle = flat_language(grammar, 4)
        assert enumerated == oracle, (
            f"seed {seed}: {len(enumerated)} enumerated vs {len(oracle)} oracle trees"
        )
        sizes.append(len(enumerated))
    elapsed = time.perf_counter() - start
    # the seeded corpus itself is part of the contract
    assert sum(sizes) == 1814 and max(sizes) == 676
    assert sum(1 for s in sizes if s) == 34
    assert elapsed < 60.0


def _lc_disagreements(seeds, height, reduced=False):
    """Trees of height <= `height` on which the standard and left-corner
    feature forms of `random_tag(seed)`, both reduced if `reduced`,
    disagree, both ways: every skeleton tree against its lc_image, and
    every LC tree's lc_inverse, which the standard form must accept.
    Returns (trees, disagreements)."""
    checked, wrong = 0, []
    for seed in seeds:
        tag = random_tag(seed)
        std, lc = to_fbrtg(tag), lc_fbrtg(tag)
        if reduced:
            std, lc = reduce_grammar(std), reduce_grammar(lc)
        for tree in enumerate_trees(erase_features(std), height):
            checked += 1
            if accepts(std, tree) != accepts(lc, lc_image(std, tree)):
                wrong.append((seed, str(tree)))
        for tree in enumerate_trees(lc, height):
            checked += 1
            if not accepts(std, lc_inverse(lc, tree)):
                wrong.append((seed, str(tree)))
    return checked, wrong


def _rebuilt_enumeration(grammar, max_depth):
    """The reference for `enumerate_trees`: rebuild every tree from its
    whole derivation, then drop repeats with a set of emitted trees.  It
    tries every rule, from its own table, where the index holds only the
    rules that can finish."""
    by_lhs = {}
    for rule in grammar.rules:
        by_lhs.setdefault(rule.lhs, []).append(rule)

    def expand(index, leaf):
        depth, nt, _ = leaf
        rules = by_lhs.get(nt, ())
        if depth >= max_depth:
            rules = [r for r in rules if not r.rhs]
        return rules, repeat(depth + 1)

    seen, trees = set(), []
    for chain in _derivations(grammar, 1, expand, lambda *_: None):
        built = []
        while chain is not None:
            rule, chain, _ = chain
            built.append(DerivTree(rule.terminal, tuple(built.pop() for _ in rule.rhs)))
        if built[0] not in seen:
            seen.add(built[0])
            trees.append(built[0])
    return trees


def test_enumeration_order_matches_rebuilding_each_derivation():
    grammars = []
    for seed in range(50):
        tag = random_tag(seed)
        for full in (to_fbrtg(tag), lc_fbrtg(tag)):
            grammars += [reduce_grammar(full), reduce_grammar(erase_features(full))]
    for grammar in grammars:
        assert list(enumerate_trees(grammar, 4)) == _rebuilt_enumeration(grammar, 4)
    ambiguous = ambiguous_grammar()
    for height in range(1, 11):
        trees = list(enumerate_trees(ambiguous, height))
        assert trees == _rebuilt_enumeration(ambiguous, height)
        assert len(trees) == 2 * height - 1  # a, then f^k(a) and f^k(b) for 0 < k < height


def test_standard_and_left_corner_forms_derive_the_same_trees():
    start = time.perf_counter()
    assert _lc_disagreements(range(300), 3) == (1076, [])
    # The seeds whose feature forms disagreed at height 4 while a
    # variable bound to an AVM kept a copy that missed later attributes.
    assert _lc_disagreements((51, 85, 98, 113, 147, 198, 252, 266), 4) == (7888, [])
    # Reduction keeps the same sites in both forms, so the maps still hold.
    assert _lc_disagreements(range(300), 3, reduced=True) == (1104, [])
    assert time.perf_counter() - start < 60.0


def _size_counts(grammar, max_size):
    """count[n]: the derivations from the axiom with n nodes, n <= max_size.

    A rule derives a tree of n nodes from slot trees of n - 1 nodes in
    all, so count[nt][n] sums, over the rules of nt, the convolution of
    their slots' counts at n - 1.  partial[i][k] keeps that convolution
    over a rule's first i slots, filled in one total k at a time.
    """
    count = {nt: [0] * (max_size + 1) for nt in grammar.nonterminals}
    partials = [
        [[1] + [0] * max_size] + [[0] * (max_size + 1) for _ in rule.rhs]
        for rule in grammar.rules
    ]
    for n in range(1, max_size + 1):
        for rule, partial in zip(grammar.rules, partials):
            for i, (nt, _) in enumerate(rule.rhs, start=1):
                below, row = partial[i - 1], count[nt]
                partial[i][n - 1] = sum(below[j] * row[n - 1 - j] for j in range(n - 1))
            count[rule.lhs][n] += partial[-1][n - 1]
    return count[grammar.axiom]


def _plain_forms(tag):
    """The plain standard and left-corner forms of `tag`, then both reduced."""
    std, lc = erase_features(to_fbrtg(tag)), erase_features(lc_fbrtg(tag))
    return [(std, lc), (reduce_grammar(std), reduce_grammar(lc))]


def test_standard_and_left_corner_forms_have_equal_tree_counts_at_every_size(fig2):
    start = time.perf_counter()
    for tag, max_size in [(random_tag(seed), 25) for seed in range(300)] + [(fig2, 30)]:
        for std, lc in _plain_forms(tag):
            # No rule shape repeats, so each tree has one derivation.
            assert not std.index.repeated_shape and not lc.index.repeated_shape
            assert _size_counts(std, max_size) == _size_counts(lc, max_size)
    (std, lc), _ = _plain_forms(fig2)
    assert _size_counts(std, 30)[30] == _size_counts(lc, 30)[30] == 8_268_629_520
    # The counter against enumeration.  A tree's height never exceeds
    # its size, so enumerating to height h finds every tree of at most h
    # nodes.  At height 6, ten of seeds 0-49 have over 100,000 trees.
    for tag, height in [(fig2, 6)] + [(random_tag(seed), 4) for seed in range(50)]:
        for grammar in (g for pair in _plain_forms(tag) for g in pair):
            sizes = Counter(tree_size(tree) for tree in enumerate_trees(grammar, height))
            assert [sizes[n] for n in range(height + 1)] == _size_counts(grammar, height)
    assert time.perf_counter() - start < 10.0


def _python_calls(tag):
    """The Python function calls `to_fbrtg(tag)` makes: a count of work
    that, unlike a wall time, is the same on every run."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        to_fbrtg(tag)
    finally:
        sys.setprofile(None)
    return calls


def _best_times(tags, rounds):
    """Best translation time of each TAG.  Each round times every TAG
    once, so a drift in host speed reaches all of them alike instead of
    skewing the ones timed during it."""
    best = [float("inf")] * len(tags)
    gc.disable()
    try:
        for _ in range(rounds):
            for i, tag in enumerate(tags):
                start = time.perf_counter()
                to_fbrtg(tag)
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_criterion_8_size_bound_and_linear_time(fig2):
    for seed in range(50):
        tag = random_tag(seed)
        lc, std = erase_features(lc_fbrtg(tag)), erase_features(to_fbrtg(tag))
        assert len(lc.rules) <= 2 * len(std.rules), f"seed {seed}"
    assert len(erase_features(to_fbrtg(fig2)).rules) == 13
    assert len(erase_features(lc_fbrtg(fig2)).rules) == 23 <= 2 * 13

    text = bundled_grammar("fig2").read_text()
    tags = [parse_tag(replicate_text(text, factor)) for factor in (1, 10, 100)]
    # Linear work: each of the 90 copies added from x10 to x100 costs
    # exactly what each of the 9 added from x1 to x10 does.
    one, ten, hundred = map(_python_calls, tags)
    assert hundred - ten == 10 * (ten - one), (one, ten, hundred)
    # Calls cannot see superlinear work inside C code, so keep a wide
    # wall-time guard, which a quadratic step (100x from x10 to x100) fails.
    at_ten, at_hundred = _best_times(tags[1:], 5)
    assert at_hundred < 30 * at_ten, (at_ten, at_hundred)


# ------------------------------------------------------------ unification
# The suite's one copy of the unification laws.  They draw from
# `terms.term_strategy` and `terms.subst_strategy`, except
# `mgu_is_most_general`: its ground oracle tries every assignment of
# GROUND_IMAGES, built from the atoms and attributes of `small_terms`.

SMALL_ATOMS = ["a", "b"]
SMALL_VARS = ["x", "y"]
GROUND_IMAGES = (
    Atom("a"),
    Atom("b"),
    Avm((("f", Atom("a")),)),
    Avm((("g", Atom("b")),)),
    Avm((("f", Atom("a")), ("g", Atom("b")))),
)


def small_terms():
    leaves = st.one_of(
        st.builds(Atom, st.sampled_from(SMALL_ATOMS)),
        st.builds(Var, st.sampled_from(SMALL_VARS)),
        st.just(TOP),
    )

    def extend(children):
        return st.builds(
            Avm,
            st.lists(
                st.tuples(st.sampled_from(["f", "g"]), children),
                max_size=2,
                unique_by=lambda kv: kv[0],
            ),
        )

    return st.recursive(leaves, extend, max_leaves=4)


def _equality_unifiers(a, b):
    """Every ground theta over the small term pool with apply(theta, a)
    == apply(theta, b).  Top-valued images are excluded: instantiating a
    variable to [] would erase the attributes recorded around it."""
    names = sorted(variables(a) | variables(b))
    found = []
    for images in product(GROUND_IMAGES, repeat=len(names)):
        theta = Substitution(dict(zip(names, images)))
        if apply(theta, a) == apply(theta, b):
            found.append(theta)
    return found


def _variable_paths(term, path=()):
    if isinstance(term, Var):
        yield path, term.name
    elif isinstance(term, Avm):
        for key, value in term.entries:
            yield from _variable_paths(value, path + (key,))


def _at(term, path):
    for key in path:
        term = dict(term.entries).get(key)
    return term


def test_criterion_9_unification_property_suite():
    budget = settings(max_examples=1000)

    @budget
    @given(term_strategy(), term_strategy())
    def mgu_is_a_stable_idempotent_unifier(a, b):
        result = unify(a, b)
        if result is None:
            return
        term, sigma = result
        assert is_idempotent(sigma)
        assert apply(sigma, term) == term
        again = unify(apply(sigma, a), apply(sigma, b))
        assert again is not None
        assert again[0] == term and again[1].is_identity()

    @budget
    @given(small_terms(), small_terms())
    def mgu_is_most_general(a, b):
        unifiers = _equality_unifiers(a, b)
        result = unify(a, b)
        if unifiers:
            assert result is not None, "oracle found a unifier but unify failed"
            _, sigma = result
            for theta in unifiers:
                for name in variables(a) | variables(b):
                    assert apply(theta, Var(name)) == apply(theta, apply(sigma, Var(name)))

    @budget
    @given(term_strategy(), term_strategy())
    @example(
        Avm((("f", Var("x")), ("g", Var("x")))),
        Avm((("f", Avm((("f", Atom("a")),))), ("g", Avm((("g", Atom("b")),))))),
    )
    def variables_denote_the_unified_term_at_their_paths(a, b):
        result = unify(a, b)
        if result is None:
            return
        term, sigma = result
        for side in (a, b):
            for path, name in _variable_paths(side):
                assert apply(sigma, Var(name)) == _at(term, path), (name, path)

    @budget
    @given(term_strategy(), term_strategy())
    def unification_is_symmetric_up_to_renaming(a, b):
        left = unify(a, b)
        right = unify(b, a)
        assert (left is None) == (right is None)
        if left is not None:
            assert alpha_equal(left[0], right[0])

    @budget
    @given(term_strategy(), term_strategy(), term_strategy())
    def unifier_substitutions_are_idempotent(a, b, probe):
        result = unify(a, b)
        if result is None:
            return
        _, sigma = result
        assert is_idempotent(sigma)
        once = apply(sigma, probe)
        assert apply(sigma, once) == once

    @budget
    @given(subst_strategy(), subst_strategy(), term_strategy())
    def composition_agrees_with_sequential_application(outer, inner, term):
        assert apply(compose(outer, inner), term) == apply(outer, apply(inner, term))

    mgu_is_a_stable_idempotent_unifier()
    mgu_is_most_general()
    variables_denote_the_unified_term_at_their_paths()
    unification_is_symmetric_up_to_renaming()
    unifier_substitutions_are_idempotent()
    composition_agrees_with_sequential_application()


def test_term_view_matches_an_independent_substitution():
    """`apply` and `freshen` run on the node kernel; `substitute` walks
    the terms themselves."""

    @settings(max_examples=1000)
    @given(subst_strategy(), term_strategy(), st.sampled_from(["1", "2.1"]))
    def agree(sigma, term, prefix):
        assert apply(sigma, term) == substitute(term, sigma.bindings)
        renaming = {name: Var(f"{prefix}.{name}") for name in variables(term)}
        assert freshen(term, prefix) == substitute(term, renaming)

    agree()


@settings(max_examples=1000)
@given(term_strategy())
def test_str_of_a_term_is_its_format_feature(term):
    assert str(term) == format_feature(term)
