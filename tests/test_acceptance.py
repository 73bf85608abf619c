"""End-to-end acceptance checks.

One test per shipped guarantee: golden transcripts for the four
translation pipelines, membership checking with its agreement replay,
the rejection suite, the inverse roundtrip, a randomized enumeration
oracle, size and wall-time bounds, the unification property suite, and
a randomized differential between the standard and left-corner forms.
Each test enforces its own runtime or tolerance budget, so `pytest -v`
yields one pass/fail line per criterion.
"""

import gc
import random
import time
from itertools import product, repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
    unify_all,
    variables,
)
from tagrtg.leftcorner import lc_image, lc_inverse
from tagrtg.rtg import (
    FbRtg,
    FbRule,
    Nonterminal,
    _derivations,
    accepts,
    accepts_detailed,
    enumerate_trees,
    erase_features,
    reduce_grammar,
)
from tagrtg.rtg_io import parse_rtg
from tagrtg.tag import ElemTree, NodeKind, Tag, TreeNode, bundled_grammar
from tagrtg.translate import lc_fbrtg, to_fbrtg
from tagrtg.trees import DerivTree, parse_tree
from terms import alpha_equal, is_idempotent, substitute

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


def _random_flat_constraint(rng):
    """() or a single flat AVM over {f, g} with atoms {a, b} and ?x/?y."""
    if rng.random() < 0.3:
        return ()
    attrs = rng.sample(["f", "g"], rng.randint(1, 2))
    values = [rng.choice([Atom("a"), Atom("b"), Var("x"), Var("y")]) for _ in attrs]
    return (Avm(tuple(sorted(zip(attrs, values)))),)


def random_feature_grammar(seed):
    rng = random.Random(seed)
    nts = tuple(Nonterminal(f"X{i}") for i in range(rng.randint(1, 4)))
    rules, terminals = [], []
    for i in range(rng.randint(1, 6)):
        rank = rng.choices([0, 1, 2], weights=[5, 4, 1])[0]
        terminals.append((f"t{i}", rank))
        rules.append(
            FbRule(
                rng.choice(nts),
                _random_flat_constraint(rng),
                f"t{i}",
                tuple((rng.choice(nts), _random_flat_constraint(rng)) for _ in range(rank)),
            )
        )
    return FbRtg(
        axiom=nts[0],
        nonterminals=nts,
        terminals=tuple(sorted(terminals)),
        rules=tuple(rules),
        form="standard",
        sites=(),
    )


def _constraint_variables(feat):
    names = set()
    for conjunct in feat:
        names |= variables(conjunct)
    return names


def _ground_instances(rule):
    """All instantiations of the rule's variables with atoms a/b."""
    names = sorted(
        _constraint_variables(rule.lhs_feat).union(
            *[_constraint_variables(feat) for _, feat in rule.rhs], set()
        )
    )
    for combo in product((Atom("a"), Atom("b")), repeat=len(names)):
        theta = Substitution(dict(zip(names, combo)))

        def ground(feat):
            folded = unify_all([apply(theta, c) for c in feat])
            return None if folded is None else folded[0]

        lhs = ground(rule.lhs_feat)
        if lhs is None:
            continue
        slots = []
        for nt, feat in rule.rhs:
            g = ground(feat)
            if g is None:
                break
            slots.append((nt, g))
        else:
            yield rule.lhs, lhs, rule.terminal, tuple(slots)


def product_construction_language(grammar, depth):
    """Brute-force oracle: expand states (nonterminal, ground term) and
    collect every tree of height <= depth bottom-up."""
    instances = [gi for rule in grammar.rules for gi in _ground_instances(rule)]
    memo = {}

    def language(nt, feat, d):
        key = (nt, feat, d)
        if key in memo:
            return memo[key]
        out = set()
        if d >= 1:
            for lhs, lhs_ground, terminal, slots in instances:
                if lhs != nt or unify(feat, lhs_ground) is None:
                    continue
                child_sets = [language(child, child_feat, d - 1) for child, child_feat in slots]
                for combo in product(*child_sets):
                    out.add(DerivTree(terminal, combo))
        memo[key] = out
        return out

    return language(grammar.axiom, TOP, depth)


def test_criterion_7_enumeration_matches_product_oracle():
    start = time.perf_counter()
    sizes = []
    for seed in range(50):
        grammar = random_feature_grammar(seed)
        enumerated = set(enumerate_trees(grammar, 4))
        oracle = product_construction_language(grammar, 4)
        assert enumerated == oracle, (
            f"seed {seed}: {len(enumerated)} enumerated vs {len(oracle)} oracle trees"
        )
        sizes.append(len(enumerated))
    elapsed = time.perf_counter() - start
    # the seeded corpus itself is part of the contract
    assert sum(sizes) == 1814 and max(sizes) == 676
    assert sum(1 for s in sizes if s) == 34
    assert elapsed < 60.0


def _random_small_avm(rng):
    if rng.random() < 0.4:
        return TOP
    attrs = rng.sample(["f", "g"], rng.randint(1, 2))
    values = [rng.choice([Atom("a"), Atom("b"), Var("x")]) for _ in attrs]
    return Avm(tuple(sorted(zip(attrs, values))))


def random_tag(seed):
    """Small TAGs in the same size envelope as the random grammars."""
    rng = random.Random(seed)
    labels = ["A", "B", "C", "D"][: rng.randint(1, 4)]
    trees = []
    for i in range(rng.randint(1, 6)):
        auxiliary = rng.random() < 0.4
        label = rng.choice(labels)
        kids = []
        for _ in range(rng.randint(0, 2)):
            child = rng.choice(labels)
            if rng.random() < 0.5:
                kids.append(TreeNode(child, NodeKind.SUBSTITUTION, _random_small_avm(rng), TOP, ()))
            else:
                kids.append(
                    TreeNode(child, NodeKind.ADJUNCTION,
                             _random_small_avm(rng), _random_small_avm(rng), ())
                )
        kids.append(TreeNode(f"w{i}", NodeKind.ANCHOR, TOP, TOP, ()))
        if auxiliary:
            kids.append(TreeNode(label, NodeKind.FOOT, TOP, _random_small_avm(rng), ()))
            root = TreeNode(label, NodeKind.ADJUNCTION,
                            _random_small_avm(rng), _random_small_avm(rng), tuple(kids))
        else:
            active = rng.random() < 0.7
            root = TreeNode(
                label,
                NodeKind.ADJUNCTION if active else NodeKind.INTERNAL,
                _random_small_avm(rng) if active else TOP,
                _random_small_avm(rng),
                tuple(kids),
            )
        trees.append(ElemTree(f"g{i}", auxiliary, root))
    return Tag(labels[0], tuple(trees))


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
    whole derivation, then drop repeats with a set of emitted trees."""
    by_lhs = grammar.index.by_lhs

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


AMBIGUOUS_RTG = """\
rtg 1 standard
axiom: X;
nonterminals: X, Y;
terminals: a/0, b/0, f/1;
sites {
}
rules {
  X -> f(X);
  X -> f(Y);
  Y -> f(X);
  Y -> f(Y);
  X -> a;
  Y -> b;
}
"""


def test_enumeration_order_matches_rebuilding_each_derivation():
    grammars = []
    for seed in range(50):
        tag = random_tag(seed)
        for full in (to_fbrtg(tag), lc_fbrtg(tag)):
            grammars += [reduce_grammar(full), reduce_grammar(erase_features(full))]
    for grammar in grammars:
        assert list(enumerate_trees(grammar, 4)) == _rebuilt_enumeration(grammar, 4)
    ambiguous = parse_rtg(AMBIGUOUS_RTG)
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


def _replicate(tag, factor):
    trees = tuple(
        ElemTree(f"{tree.name}_{copy}", tree.auxiliary, tree.root)
        for copy in range(factor)
        for tree in tag.trees
    )
    return Tag(tag.start, trees)


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
        tag.validate()
        lc, std = erase_features(lc_fbrtg(tag)), erase_features(to_fbrtg(tag))
        assert len(lc.rules) <= 2 * len(std.rules), f"seed {seed}"
    assert len(erase_features(to_fbrtg(fig2)).rules) == 13
    assert len(erase_features(lc_fbrtg(fig2)).rules) == 23 <= 2 * 13

    factors = (1, 10, 100)
    times = _best_times([_replicate(fig2, factor) for factor in factors], 100)
    points = [(7 * factor, t) for factor, t in zip(factors, times)]
    # relative-error weighted least squares: every scale counts equally,
    # so superlinear growth shows up at either end
    weighted = [(n, t, 1 / (t * t)) for n, t in points]
    sw = sum(w for *_, w in weighted)
    swn = sum(n * w for n, _, w in weighted)
    swnn = sum(n * n * w for n, _, w in weighted)
    swt = sum(t * w for _, t, w in weighted)
    swnt = sum(n * t * w for n, t, w in weighted)
    det = swnn * sw - swn * swn
    slope = (swnt * sw - swn * swt) / det
    intercept = (swnn * swt - swn * swnt) / det
    residuals = [abs(t - slope * n - intercept) / t for n, t in points]
    assert max(residuals) <= 0.20, f"{points} -> residuals {residuals}"


# ------------------------------------------------------------ unification

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


def small_substitutions():
    return st.builds(
        Substitution,
        st.dictionaries(st.sampled_from(SMALL_VARS + ["z"]), small_terms(), max_size=3),
    )


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
    budget = settings(max_examples=1000, derandomize=True, deadline=None)

    @budget
    @given(small_terms(), small_terms())
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
    @given(small_terms(), small_terms())
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
    @given(small_terms(), small_terms())
    def unification_is_symmetric_up_to_renaming(a, b):
        left = unify(a, b)
        right = unify(b, a)
        assert (left is None) == (right is None)
        if left is not None:
            assert alpha_equal(left[0], right[0])

    @budget
    @given(small_terms(), small_terms(), small_terms())
    def unifier_substitutions_are_idempotent(a, b, probe):
        result = unify(a, b)
        if result is None:
            return
        _, sigma = result
        assert is_idempotent(sigma)
        once = apply(sigma, probe)
        assert apply(sigma, once) == once

    @budget
    @given(small_substitutions(), small_substitutions(), small_terms())
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

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(small_substitutions(), small_terms(), st.sampled_from(["1", "2.1"]))
    def agree(sigma, term, prefix):
        assert apply(sigma, term) == substitute(term, sigma.bindings)
        renaming = {name: Var(f"{prefix}.{name}") for name in variables(term)}
        assert freshen(term, prefix) == substitute(term, renaming)

    agree()


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(small_terms())
def test_str_of_a_term_is_its_format_feature(term):
    assert str(term) == format_feature(term)
