"""Derivation relation, enumeration, checking and reduction.

Language counts for the fixture grammars were worked out by hand: the
feature language has 63 trees overall (7 subjects, 9 objects, one verb
chain), 35 of height at most 4 and 2 of height at most 3, while the
plain skeleton has 192 trees of height at most 4.
"""

import copy
import dataclasses
import pickle
import tracemalloc
from pathlib import Path

import pytest

from inputs import ambiguous_grammar, random_tag, replicate_text
from oracles import tree_height
from tagrtg.features import (
    TOP,
    Atom,
    Avm,
    Node,
    Substitution,
    Var,
    _factory,
    bindings,
    fold,
    format_feature,
    instantiate,
    parse_feature,
    read_back,
    unify_nodes,
)
from tagrtg.cli import main
from tagrtg.leftcorner import lc_image, lc_inverse
from tagrtg.rtg import (
    EPS_ADJOIN,
    AlphabetError,
    FbRtg,
    FbRule,
    GrammarError,
    Nonterminal,
    NonterminalMismatch,
    accepts,
    accepts_detailed,
    derive_step,
    enumerate_trees,
    erase_features,
    reduce_grammar,
)
from tagrtg.rtg_io import format_rtg, load_rtg, parse_rtg
from tagrtg.tag import bundled_grammar, load_tag, parse_tag
from tagrtg.translate import lc_fbrtg, to_fbrtg
from tagrtg.trees import DerivTree, ValueTree, parse_tree

GOOD = parse_tree("caught(cats(the(one of(e_A))), has(e_A), fish(a(e_A)))")
BAD = parse_tree("caught(cats(one of(the(e_A))), has(e_A), fish(a(e_A)))")
GOLDEN_EXAMPLE2 = Path(__file__).parent / "golden" / "example2.rtg"


# ------------------------------------------------------------ derive_step


def _node(text):
    return instantiate(parse_feature(text), None, {})


def test_derive_step_freshens_with_the_position():
    rule = FbRule("NP_A", (parse_feature("[top: ?v, bot: ?v]"),), "e_A", ())
    leaf = _node("[top: [agr: ?ε.x], bot: [agr: 3sg, const: +]]")
    trail = []
    slots = derive_step(rule, leaf, "1.1.1.1", trail)
    sigma = bindings(trail)
    assert slots == ()
    assert sigma.bindings.get("ε.x") == Atom("3sg")
    # v is both top and bottom, so it denotes their unification.
    assert sigma.bindings.get("1.1.1.1.v") == parse_feature("[agr: 3sg, const: +]")

    # Quotes and backslashes in attribute and variable names.
    rule = FbRule("X", (parse_feature("""[a'b: ?v"\\, c"d\\: ?w']"""),), "f", ())
    trail = []
    assert derive_step(rule, _node("""[a'b: 3sg, c"d\\: [e\\'f: +]]"""), "2.1", trail) == ()
    assert str(bindings(trail)) == """{2.1.v"\\ = 3sg, 2.1.w' = [e\\'f: +]}"""

    # A constraint 450 AVMs deep; its innermost variable reaches the slot.
    deep, leaf = Var("v"), Atom("3sg")
    for _ in range(450):
        deep, leaf = Avm((("a", deep),)), Node({"a": leaf})
    rule = FbRule("X", (deep,), "f", (("Y", (Var("v"),)),))
    trail = []
    (slot,) = derive_step(rule, leaf, "1", trail)
    assert read_back(slot) == Atom("3sg")
    assert bindings(trail).bindings.get("1.v") == Atom("3sg")


def _reference_fire(rule, leaf, prefix, trail):
    """`rule.fire` spelled out: instantiate each conjunct under `prefix`,
    then unify the left-hand conjuncts left to right, the left-hand node
    with the leaf, and each slot's conjuncts left to right."""
    names = {}
    lhs, *feats = [
        [instantiate(c, prefix, names) for c in feat]
        for feat in (rule.lhs_feat, *(feat for _, feat in rule.rhs))
    ]

    def join(nodes):
        root = None
        for node in nodes:
            if root is None:
                root = node
            elif not unify_nodes(root, node, trail):
                return False
        return root

    lhs = join(lhs)
    if lhs is False:
        return None
    if lhs is not None and leaf is not None and not unify_nodes(lhs, leaf, trail):
        return None
    slots = []
    for nodes in feats:
        node = join(nodes)
        if node is False:
            return None
        slots.append(node)
    return tuple(slots)


def _map_leaves(term, var, atom):
    if isinstance(term, Var):
        return var(term)
    if isinstance(term, Atom):
        return atom(term)
    return Avm((key, _map_leaves(value, var, atom)) for key, value in term.entries)


def _variable_nodes(roots):
    """Every variable node reachable from `roots` through forwardings and
    arcs, by name; trail entries may be roots."""
    seen, found, stack = set(), {}, list(roots)
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # an arc a unification added
            node = node[0]
        if type(node) is not Node or id(node) in seen:
            continue
        seen.add(id(node))
        if node.arcs is None:
            found.setdefault(node.name, set()).add(id(node))
        else:
            stack.extend(node.arcs.values())
        stack.append(node.ref)
    return found


# Two conjuncts that bind a variable to a variable: which one is bound
# shows the order of each unification's arguments.
ORDER = FbRule(
    "X",
    (parse_feature("[f: ?a]"), parse_feature("[f: ?b]")),
    "f",
    (("Y", (parse_feature("[g: ?a]"), parse_feature("[g: ?c]"))),),
)


def test_compiled_fire_matches_instantiating_each_conjunct():
    corpus = [ORDER]
    for tag in [load_tag(bundled_grammar("fig2"))] + [random_tag(seed) for seed in range(300)]:
        for form in (to_fbrtg, lc_fbrtg):
            try:
                grammar = form(tag)
            except GrammarError:
                continue
            corpus += grammar.rules + reduce_grammar(grammar).rules
    rules = shared = fired = clashed = 0
    for rule in corpus:
        # Leaves: top, a ground instance of the left-hand side, and one
        # that clashes with it.
        lhs = fold(rule.lhs_feat, {}, [])
        lhs = TOP if lhs is None or lhs is False else read_back(lhs)
        ground = _map_leaves(lhs, lambda v: Atom(v.name), lambda a: a)
        clash = _map_leaves(lhs, lambda v: Atom(v.name), lambda a: Atom(a.name + "!"))
        if clash == ground:
            clash = Atom("!")
        for leaf in (None, ground, clash):
            runs = []
            for fire in (rule.fire, lambda *args: _reference_fire(rule, *args)):
                node = None if leaf is None else instantiate(leaf, None, {})
                trail = []
                slots = fire(node, "1.2", trail)
                read = None if slots is None else [format_feature(read_back(s)) for s in slots]
                runs.append((read, str(bindings(trail)), (node, *(slots or ()), *trail)))
            (got, got_env, roots), (expected, expected_env, _) = runs
            assert got == expected and got_env == expected_env
            fired += got is not None and leaf is not None
            clashed += got is None
            # One node per variable, across every position of the rule.
            for name, nodes in _variable_nodes(roots).items():
                assert len(nodes) == 1 or not name.startswith("1.2."), name
        # Each call builds fresh nodes; only atoms are shared.
        first, again = rule.fire(None, "1.2", []), rule.fire(None, "1.2", [])
        if first is not None:
            for node, old in zip(again, first):
                assert (node is old) == (type(node) is not Node)
        occurrences = [
            name
            for feat in (rule.lhs_feat, *(feat for _, feat in rule.rhs))
            for term in feat
            for name in _occurrences(term)
        ]
        shared += len(occurrences) - len(set(occurrences))
        rules += 1
    assert rules > 5000 and shared > 6000
    assert fired > 5000 and clashed > 5000


def _occurrences(term):
    """The name of each variable occurrence in `term`."""
    stack = [term]
    while stack:
        term = stack.pop()
        if isinstance(term, Var):
            yield term.name
        elif isinstance(term, Avm):
            stack.extend(value for _, value in term.entries)


def test_derive_step_fails_on_clash():
    rule = FbRule("NP_A", (parse_feature("[bot: [const: -]]"),), "the", ())
    assert derive_step(rule, _node("[bot: [const: +]]"), "1", []) is None


def test_derive_step_without_constraints_skips_the_kernel(monkeypatch):
    bound = FbRule("NP_A", (parse_feature("[top: 3sg]"),), "e_A", ())
    free = FbRule("NP_S", (), "cats", (("NP_A", ()),))
    leaf = _node("[top: ?x]")
    trail = []
    assert derive_step(bound, leaf, "1", trail) == ()
    mark = len(trail)
    monkeypatch.setattr("tagrtg.features.unify_nodes", _unexpected)
    assert derive_step(free, leaf, "1.1", trail) == (None,)
    assert len(trail) == mark > 0
    # One top slot node per slot, and nothing on an empty trail.
    trail = []
    assert derive_step(FbRule("S_S", (), "f", (("A", ()),) * 3), leaf, "", trail) == (None,) * 3
    assert trail == []


def test_rules_of_one_shape_share_one_compile():
    # An attribute no other rule uses keeps the shape new to the cache.
    sg, pl = (
        FbRule("X", (), "f", (("Y", (parse_feature(f"[shared_agr: {agr}]"),)),))
        for agr in ("3sg", "3pl")
    )
    misses = _factory.cache_info().misses
    (slot_sg,), (slot_pl,) = derive_step(sg, None, "", []), derive_step(pl, None, "", [])
    assert _factory.cache_info().misses == misses + 1
    assert read_back(slot_sg) == parse_feature("[shared_agr: 3sg]")
    assert read_back(slot_pl) == parse_feature("[shared_agr: 3pl]")
    # fig2 x20 has one empty-adjunction rule per nonterminal, all alike.
    fig2_x20 = parse_tag(replicate_text(bundled_grammar("fig2").read_text(), 20))
    epsilon = [r for r in to_fbrtg(fig2_x20).rules if r.terminal == EPS_ADJOIN]
    misses = _factory.cache_info().misses
    for rule in epsilon:
        derive_step(rule, None, "", [])
    assert len(epsilon) > 1 and _factory.cache_info().misses <= misses + 1


def test_loading_a_grammar_again_compiles_nothing():
    path = Path(__file__).parent / "golden" / "example2.rtg"
    trees = list(enumerate_trees(load_rtg(path), 4))
    misses = _factory.cache_info().misses
    assert list(enumerate_trees(load_rtg(path), 4)) == trees
    assert _factory.cache_info().misses == misses


def _unexpected(*args, **kwargs):
    raise AssertionError("called although nothing asked for it")


def _rule_for(grammar, terminal):
    return next(r for r in grammar.rules if r.terminal == terminal)


def test_derive_step_cannot_close_the_verb_slot(feature_grammar):
    trail = []
    slots = derive_step(_rule_for(feature_grammar, "caught"), None, "ε", trail)
    eps = next(
        r for r in feature_grammar.rules
        if r.terminal == "e_A" and r.lhs == "VP_A"
    )
    # The verb slot wants ind on top and ppart below, so the empty
    # adjunction cannot close it.
    assert derive_step(eps, slots[1], "2", trail) is None


# -------------------------------------------------------------- checking


def test_accepts_the_agreeing_tree(feature_grammar):
    assert accepts(feature_grammar, GOOD)


def test_trace_is_leftmost_and_binds_agreement(feature_grammar):
    result = accepts_detailed(feature_grammar, GOOD)
    assert result.accepted
    assert [s.position for s in result.steps] == [
        "ε", "1", "1.1", "1.1.1", "1.1.1.1", "2", "2.1", "3", "3.1", "3.1.1",
    ]
    fifth = result.steps[4]
    assert fifth.index == 5
    assert fifth.position == "1.1.1.1"
    assert fifth.rule.terminal == "e_A"
    assert fifth.delta.bindings.get("ε.x") == Atom("3sg")
    assert "ε.x = 3sg" in str(fifth.delta)


def test_steps_and_environments_hash(feature_grammar):
    result = accepts_detailed(feature_grammar, GOOD)
    assert len(set(result.steps)) == len(result.steps) == 10
    assert {result.env: None}
    bindings = [("x", Atom("3sg")), ("t", Avm([("agr", Var("x"))])), ("y", Var("t"))]
    forward, backward = Substitution(dict(bindings)), Substitution(dict(bindings[::-1]))
    assert forward == backward and hash(forward) == hash(backward)


def test_rejects_swapped_determiners_with_diagnostics(feature_grammar):
    result = accepts_detailed(feature_grammar, BAD)
    assert not result.accepted
    assert result.failure_position == "1.1.1"
    assert "cannot apply" in result.failure


# Two root rules of one shape: the first gets deeper before it fails.
_TWO_ROOT_RULES = FbRtg(
    "S",
    ("S", "A", "B", "C"),
    (("f", 1), ("g", 1), ("h", 0)),
    (
        FbRule("S", (), "f", (("A", (parse_feature("[v: a]"),)),)),
        FbRule("S", (), "f", (("C", ()),)),
        FbRule(
            "A", (parse_feature("[v: ?x]"),), "g", (("B", (parse_feature("[u: ?x, w: ?z]"),)),)
        ),
        FbRule("B", (parse_feature("[u: b]"),), "h", ()),
    ),
)


def test_the_verdict_reads_nothing_back(feature_grammar, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("tagrtg.rtg.bindings", _unexpected)
        patch.setattr("tagrtg.rtg.format_feature", _unexpected)
        patch.setattr("tagrtg.rtg.read_back", _unexpected)
        with monkeypatch.context() as addresses:
            # Only a rejection names a position; a search builds none.
            addresses.setattr("tagrtg.rtg.child_position", _unexpected)
            good = accepts_detailed(feature_grammar, GOOD)
        bad = accepts_detailed(feature_grammar, BAD)
        abandoned = accepts_detailed(_TWO_ROOT_RULES, parse_tree("f(g(h))"))
        assert (good.accepted, good.failure_position) == (True, None)
        assert (bad.accepted, bad.failure_position) == (False, "1.1.1")
        assert (abandoned.accepted, abandoned.failure_position) == (False, "1.1")
    # Read after later checks on the same grammar, env before steps here
    # and steps before env on `good`, each twice.
    later = accepts_detailed(feature_grammar, GOOD)
    env, steps = later.env, later.steps
    assert [s.position for s in steps] == [
        "ε", "1", "1.1", "1.1.1", "1.1.1.1", "2", "2.1", "3", "3.1", "3.1.1",
    ]
    assert env.bindings.get("ε.x") == Atom("3sg") and len(env.bindings) == 11
    for _ in range(2):
        assert good.steps == steps and good.env == env
        assert [str(s) for s in good.steps] == [str(s) for s in steps]
        assert str(good.env) == str(env)
        assert good.failure is None
        assert (bad.steps, bad.env.is_identity()) == ((), True)
        assert bad.failure == (
            "cannot apply NP_A [top: ?t, bot: [agr: ?x, const: -]] -> "
            "the(NP_A [top: ?t, bot: [agr: ?x, const: +, def: +]]): "
            "constraint clash with [top: [agr: ?ε.x], bot: [agr: 3sg, const: +]]"
        )
        # The deepest clash lies under the first root rule, whose bindings
        # the search undid before it tried the second.
        assert abandoned.failure == (
            "cannot apply B [u: b] -> h: constraint clash with [u: a, w: ?1.z]"
        )
    with pytest.raises(AttributeError):
        good.accepted = False


def test_an_accepted_verdict_walks_no_tree(feature_grammar, plain_grammar, monkeypatch):
    # Every node took a rule whose terminal and rank the index declares,
    # so acceptance needs no walk of its own to check the alphabet.
    chain = parse_tree(f"caught(cats({'the(' * 1000}e_A{')' * 1000}), e_A, fish(e_A))")
    monkeypatch.setattr(ValueTree, "nodes", _unexpected)
    monkeypatch.setattr(DerivTree, "positions", _unexpected)
    assert accepts_detailed(feature_grammar, GOOD).accepted
    assert accepts_detailed(plain_grammar, chain).accepted


def test_a_verdict_takes_memory_linear_in_the_depth():
    # The search keeps no address per open leaf: those would make the
    # peak grow with the square of the depth, about 16 MiB here.
    grammar = reduce_grammar(erase_features(to_fbrtg(load_tag(bundled_grammar("fig2")))))
    depth = 4000
    tree = parse_tree(f"caught(cats({'the(' * depth}e_A{')' * depth}), e_A, fish(e_A))")
    tracemalloc.start()
    try:
        assert accepts_detailed(grammar, tree).accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_plain_grammar_accepts_both_skeletons(plain_grammar, feature_grammar):
    assert accepts(plain_grammar, GOOD)
    assert accepts(plain_grammar, BAD)
    assert erase_features(feature_grammar).rules == plain_grammar.rules
    assert accepts(erase_features(feature_grammar), BAD)


def test_check_rejects_foreign_alphabet(feature_grammar):
    with pytest.raises(AlphabetError):
        accepts(feature_grammar, parse_tree("caught(cats(e_A), has(e_A), swam(e_A))"))
    with pytest.raises(AlphabetError):
        accepts(feature_grammar, parse_tree("caught(cats(e_A), has(e_A))"))
    # The search gives up at 1.1 on a feature clash, before it reaches the
    # bad node; the error still names that node, the first in preorder.
    with pytest.raises(AlphabetError, match=r"^unknown terminal 'zz' at 3$"):
        accepts(feature_grammar, parse_tree("caught(cats(a(e_A)), has(e_A), zz)"))
    with pytest.raises(
        AlphabetError, match=r"^terminal 'fish' at 3 has rank 1, found 0 children$"
    ):
        accepts(feature_grammar, parse_tree("caught(cats(a(e_A)), has(e_A), fish)"))


# ----------------------------------------------------------- enumeration


def test_feature_language_counts(feature_grammar):
    assert sum(1 for _ in enumerate_trees(feature_grammar, 3)) == 2
    assert sum(1 for _ in enumerate_trees(feature_grammar, 4)) == 35
    assert sum(1 for _ in enumerate_trees(feature_grammar, 5)) == 63
    # The feature constraints bound determiner stacking, so the language
    # is finite and the count stays put from height 5 on.
    assert sum(1 for _ in enumerate_trees(feature_grammar, 7)) == 63


def test_plain_language_counts(plain_grammar):
    assert sum(1 for _ in enumerate_trees(plain_grammar, 3)) == 8
    assert sum(1 for _ in enumerate_trees(plain_grammar, 4)) == 192


def test_depth_three_trees_exactly(feature_grammar):
    trees = {str(t) for t in enumerate_trees(feature_grammar, 3)}
    assert trees == {
        "caught(fish(e_A), has(e_A), cats(e_A))",
        "caught(fish(e_A), has(e_A), fish(e_A))",
    }


def test_enumeration_deduplicates_across_rule_choices():
    x = "X_S"
    a = "A_A"
    b = "B_A"
    grammar = FbRtg(
        axiom=x,
        nonterminals=(x, a, b),
        terminals=(("a", 1), ("e_A", 0)),
        rules=(
            FbRule(x, (), "a", ((a, ()),)),
            FbRule(x, (), "a", ((b, ()),)),
            FbRule(a, (), "e_A", ()),
            FbRule(b, (), "e_A", ()),
        ),
    )
    # Two distinct runs assemble the same tree; it comes out once.
    assert [str(t) for t in enumerate_trees(grammar, 2)] == ["a(e_A)"]


def test_enumeration_deduplicates_trees_of_any_depth():
    # The two leaf rules share a shape, so each emitted tree is hashed
    # into the set of trees seen so far, 600 levels deep at most.
    x = Nonterminal("X")
    leaf = FbRule(x, (), "a", ())
    grammar = FbRtg(x, (x,), (("a", 0), ("f", 1)), (FbRule(x, (), "f", ((x, ()),)), leaf, leaf))
    trees = list(enumerate_trees(grammar, 600))
    assert len(trees) == len(set(trees)) == 600


def test_enumeration_tries_no_rule_that_cannot_finish():
    # The axiom A_S's only rule has an A_S slot, so no derivation of the
    # unreduced grammar finishes; without the filter, height 4 alone
    # took over 500,000 rule attempts.
    grammar = erase_features(to_fbrtg(random_tag(46)))
    assert grammar.rules and reduce_grammar(grammar).rules == ()
    stats = {}
    assert list(enumerate_trees(grammar, 5, stats)) == []
    assert stats["steps"] == 0


def test_enumeration_is_deterministic(feature_grammar):
    first = [str(t) for t in enumerate_trees(feature_grammar, 4)]
    second = [str(t) for t in enumerate_trees(feature_grammar, 4)]
    assert first == second
    assert len(set(first)) == len(first)


def test_enumeration_records_stats(feature_grammar):
    stats = {}
    list(enumerate_trees(feature_grammar, 3, stats=stats))
    assert stats["steps"] > 0
    assert stats["failures"] > 0


def test_enumerator_and_checker_agree(feature_grammar, plain_grammar):
    """Every plain skeleton is in the feature language iff the checker
    says so; the two implementations verify each other."""
    feature_set = {str(t) for t in enumerate_trees(feature_grammar, 4)}
    for tree in enumerate_trees(plain_grammar, 4):
        assert (str(tree) in feature_set) == accepts(feature_grammar, tree)


def test_good_tree_is_enumerated(feature_grammar):
    assert str(GOOD) in {str(t) for t in enumerate_trees(feature_grammar, 5)}


def binary_grammar():
    """X -> f(X, X) | a"""
    x = Nonterminal("X")
    return FbRtg(
        axiom=x,
        nonterminals=(x,),
        terminals=(("a", 0), ("f", 2)),
        rules=(FbRule(x, (), "f", ((x, ()), (x, ()))), FbRule(x, (), "a", ())),
    )


def balanced_tree(height):
    tree = DerivTree("a")
    for _ in range(height - 1):
        tree = DerivTree("f", (tree, tree))
    return tree


def test_long_derivations_of_shallow_trees():
    # 1,023 rewrites, one per node, but only ten levels deep: the engine
    # keeps its own stack instead of recursing once per rewrite.
    grammar, tree = binary_grammar(), balanced_tree(10)
    result = accepts_detailed(grammar, tree)
    assert result.accepted
    assert len(result.steps) == 1023
    first = next(enumerate_trees(grammar, 10))
    assert len(list(first.positions())) == 1023
    assert first == tree


# ------------------------------------------------------------- reduction

A_A = "A_A"
A_S = "A_S"
B_A = "B_A"
B_S = "B_S"
C_S = "C_S"
D_A = "D_A"
S_S = "S_S"
X_A = "X_A"
X_S = "X_S"


def _toy_grammar():
    def feat(text):
        return (parse_feature(text),)
    rules = (
        FbRule(X_S, (), "f", ((A_A, ()), (B_A, ()))),
        FbRule(X_S, (), "m", ((B_A, feat("[top: [q: one], bot: [q: two]]")),)),
        FbRule(A_A, feat("[top: ?t]"), "n", ((B_A, feat("[top: ?t, bot: [q: one]]")),)),
        FbRule(A_A, (), "g", ((A_A, ()),)),
        FbRule(A_A, (), "k", ((D_A, ()),)),
        FbRule(A_A, feat("[top: ?v, bot: ?v]"), "e_A", ()),
        FbRule(B_A, feat("[top: ?v, bot: ?v]"), "e_A", ()),
        FbRule(C_S, (), "h", ()),
    )
    return FbRtg(
        axiom=X_S,
        nonterminals=(X_S, A_A, A_S, B_A, B_S, C_S, D_A),
        terminals=(("f", 2), ("m", 1), ("n", 1), ("g", 1), ("k", 1), ("e_A", 0), ("h", 0)),
        rules=rules,
    )


def test_erasure_keeps_the_first_of_equal_skeletons():
    x, y = Nonterminal("X"), Nonterminal("Y")
    rules = (
        FbRule(x, (parse_feature("[f: a]"),), "t", ((y, (parse_feature("[g: b]"),)),)),
        FbRule(y, (), "u", ()),
        FbRule(x, (parse_feature("[f: c]"),), "t", ((y, ()),)),
    )
    grammar = FbRtg(x, (x, y), (("t", 1), ("u", 0)), rules)
    assert erase_features(grammar).rules == (
        FbRule(x, (), "t", ((y, ()),)),
        FbRule(y, (), "u", ()),
    )


def test_reduce_eliminates_forced_empty_slots():
    reduced = reduce_grammar(_toy_grammar())
    by_terminal = {r.terminal: r for r in reduced.rules}
    # B can only vanish, so f loses its second slot.
    assert by_terminal["f"].rhs == ((A_A, ()),)
    assert dict(reduced.terminals)["f"] == 1
    # m forces its slot's top against its bottom, which clashes.
    assert "m" not in by_terminal
    # n keeps its left-hand side but inherits the forced binding.
    assert by_terminal["n"].rhs == ()
    assert by_terminal["n"].lhs_feat == (parse_feature("[top: [q: one]]"),)


def _slot_grammar(*epsilon_tops):
    """S_S -> s(X_A [top: [f: b]]), closed by one e_A rule per given top."""
    rules = (FbRule(S_S, (), "s", ((X_A, (parse_feature("[top: [f: b]]"),)),)),) + tuple(
        FbRule(X_A, (parse_feature(f"[top: {top}]"),), "e_A", ()) for top in epsilon_tops
    )
    return FbRtg(
        axiom=S_S,
        nonterminals=(S_S, X_A),
        terminals=(("s", 1), ("e_A", 0)),
        rules=rules,
    )


def test_reduce_fires_the_grammars_own_empty_rule():
    # X_A's only rule wants [f: a] where the slot offers [f: b], so the
    # grammar derives nothing, and neither may its reduction.
    grammar = _slot_grammar("[f: a]")
    assert list(enumerate_trees(grammar, 3)) == []
    assert reduce_grammar(grammar).rules == ()


def test_reduce_keeps_a_slot_with_two_empty_rules():
    grammar = _slot_grammar("[f: a]", "[f: b]")
    reduced = reduce_grammar(grammar)
    assert dict(reduced.terminals)["s"] == 1
    assert [r.rhs for r in reduced.rules if r.terminal == "s"] == [grammar.rules[0].rhs]
    assert accepts(reduced, parse_tree("s(e_A)"))


# S_A and A_A only derive e_A.  The left-corner rule for t has no root
# slot, so reduction drops only the A_A slot there, whose site is the
# third, not the second; it keeps the standard form's S_A root slot, so
# both forms keep the same sites and the maps between them still hold.
ROOT_SLOT_TAG = """\
start: S;
initial t { (S kind=adj (B kind=subst) (A kind=adj (word "a"))) }
initial u { (B (word "b")) }
"""


def test_reduce_drops_the_site_kinds_of_the_slots_it_drops():
    tag = parse_tag(ROOT_SLOT_TAG)
    for build, rank in ((to_fbrtg, 2), (lc_fbrtg, 1)):
        reduced = reduce_grammar(build(tag))
        assert dict(reduced.terminals)["t"] == rank
        assert reduced.index.sites["t"].slot_kinds == ("adj", "subst")


def test_lc_inverse_maps_reduced_lc_trees_onto_the_reduced_standard_form():
    tag = parse_tag(ROOT_SLOT_TAG)
    standard, lc = reduce_grammar(to_fbrtg(tag)), reduce_grammar(lc_fbrtg(tag))
    tree = parse_tree("e_S(t(u))")
    assert accepts(lc, tree)
    inverse = lc_inverse(lc, tree)
    assert inverse == parse_tree("t(e_A, u)")
    assert accepts(standard, inverse)
    assert lc_image(standard, inverse) == tree


def test_reduce_prunes_and_orders():
    reduced = reduce_grammar(_toy_grammar())
    terminals = [r.terminal for r in reduced.rules]
    # k needs the ruleless D, h hangs off the unreachable C.
    assert "k" not in terminals
    assert "h" not in terminals
    assert terminals == ["f", "n", "g", "e_A"]
    # A survives with its adjunction flavor, so its declared
    # substitution partner stays; B and C disappear entirely.
    assert reduced.nonterminals == (X_S, A_A, A_S)
    assert reduced.terminals == (("e_A", 0), ("f", 1), ("g", 1), ("n", 0))


def test_reduce_is_idempotent():
    reduced = reduce_grammar(_toy_grammar())
    assert reduce_grammar(reduced) == reduced


def test_reduce_keeps_already_reduced_grammar(feature_grammar):
    assert reduce_grammar(feature_grammar) == feature_grammar


def test_reduce_preserves_bounded_language():
    toy = _toy_grammar()
    reduced = reduce_grammar(toy)
    # Forced empty slots disappear from the trees, which also makes them
    # shallower.  Erase those subtrees from the original language and
    # compare at matching heights; one extra level of depth on the
    # original side covers every erased leaf.
    def strip(tree):
        kept = tuple(strip(c) for c in tree.children)
        if tree.label == "f":
            kept = kept[:1]
        if tree.label in ("n", "m"):
            kept = ()
        return DerivTree(tree.label, kept)
    stripped = {strip(t) for t in enumerate_trees(toy, 6)}
    original = {str(t) for t in stripped if tree_height(t) <= 5}
    assert {str(t) for t in enumerate_trees(reduced, 5)} == original


def test_validate_catches_mismatches(feature_grammar):
    # A grammar validates itself when it is built, so no bad one ever
    # reaches the index, `accepts` or enumeration.
    with pytest.raises(NonterminalMismatch):
        FbRtg(
            axiom="Z_S",
            nonterminals=feature_grammar.nonterminals,
            terminals=feature_grammar.terminals,
            rules=feature_grammar.rules,
        )
    with pytest.raises(AlphabetError):
        FbRtg(
            axiom=feature_grammar.axiom,
            nonterminals=feature_grammar.nonterminals,
            terminals=tuple((t, r + 1 if t == "has" else r) for t, r in feature_grammar.terminals),
            rules=feature_grammar.rules,
        )
    feature_grammar.validate()


@pytest.mark.parametrize(
    "fields, error, message",
    [
        (lambda g: {"nonterminals": g.nonterminals + (g.axiom,)}, NonterminalMismatch,
         "duplicate nonterminal declaration"),
        (lambda g: {"sites": g.sites + g.sites[:1]}, AlphabetError, "duplicate site entry"),
        # `format_rtg` would write a version line that `parse_rtg` rejects.
        (lambda g: {"form": "LC"}, GrammarError, "unknown rule form 'LC'"),
    ],
    ids=["nonterminal", "site", "form"],
)
def test_grammars_reject_what_rtg_files_reject(feature_grammar, fields, error, message):
    with pytest.raises(GrammarError) as err:
        dataclasses.replace(feature_grammar, **fields(feature_grammar))
    assert (type(err.value), str(err.value)) == (error, message)


def test_rule_rendering(feature_grammar):
    assert [str(r) for r in feature_grammar.rules[:3]] == [
        "S_S -> caught(NP_S [top: [agr: ?x]], VP_A [top: [agr: ?x, mode: ind], bot: [mode: ppart]], NP_S)",
        "NP_S [top: ?t] -> cats(NP_A [top: ?t, bot: [agr: 3pl]])",
        "NP_S [top: ?t] -> fish(NP_A [top: ?t])",
    ]
    assert str(feature_grammar.rules[6]) == "NP_A [top: ?v, bot: ?v] -> e_A"


def test_reduce_handles_long_nonterminal_chains():
    # N0 -> f(N1), ..., N2998 -> f(N2999), N2999 -> a
    chain = tuple(Nonterminal(f"N{i}") for i in range(3000))
    rules = tuple(FbRule(nt, (), "f", ((below, ()),)) for nt, below in zip(chain, chain[1:]))
    grammar = FbRtg(
        axiom=chain[0],
        nonterminals=chain,
        terminals=(("a", 0), ("f", 1)),
        rules=rules + (FbRule(chain[-1], (), "a", ()),),
    )
    assert reduce_grammar(grammar) == grammar
    assert reduce_grammar(dataclasses.replace(grammar, rules=rules)).rules == ()


# ---------------------------------------------------------------- index


def test_index_is_invisible_to_equality_repr_and_format(feature_grammar):
    grammar = dataclasses.replace(feature_grammar)
    before = repr(grammar)
    assert accepts(grammar, GOOD)
    assert grammar.index.ranks["caught"] == 3
    assert repr(grammar) == before
    assert grammar == dataclasses.replace(grammar) == feature_grammar
    assert hash(grammar) == hash(feature_grammar)
    assert parse_rtg(format_rtg(grammar)) == grammar


def test_replaced_rules_get_a_fresh_index():
    grammar = ambiguous_grammar()
    tree = parse_tree("f(f(a))")
    original = list(enumerate_trees(grammar, 3))
    original_trace = [str(s) for s in accepts_detailed(grammar, tree).steps]
    reversed_rules = tuple(reversed(grammar.rules))
    replaced = dataclasses.replace(grammar, rules=reversed_rules)
    direct = FbRtg(
        axiom=grammar.axiom,
        nonterminals=grammar.nonterminals,
        terminals=grammar.terminals,
        rules=reversed_rules,
    )
    assert list(enumerate_trees(replaced, 3)) == list(enumerate_trees(direct, 3)) != original
    trace = [str(s) for s in accepts_detailed(replaced, tree).steps]
    assert trace == [str(s) for s in accepts_detailed(direct, tree).steps] != original_trace


@pytest.mark.parametrize("features", [True, False], ids=["features", "erased"])
def test_a_grammar_that_has_fired_pickles_and_copies(features):
    grammar = to_fbrtg(load_tag(bundled_grammar("fig2")))
    grammar = reduce_grammar(grammar if features else erase_features(grammar))
    unused = len(pickle.dumps(grammar))
    trees = list(enumerate_trees(grammar, 3))
    assert trees and accepts_detailed(grammar, trees[-1]).steps
    # The index is rebuilt from the fields, so neither carries it along.
    assert len(pickle.dumps(grammar)) == unused
    for again in (pickle.loads(pickle.dumps(grammar)), copy.copy(grammar)):
        assert again == grammar and "index" not in vars(again)
        assert list(enumerate_trees(again, 3)) == trees
        assert again.index is not grammar.index


def test_a_grammar_is_validated_once_when_it_is_built(monkeypatch, feature_grammar):
    calls = []
    validate = FbRtg.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(FbRtg, "validate", counted)
    grammar = parse_rtg(GOLDEN_EXAMPLE2.read_text(encoding="utf-8"))
    assert len(calls) == 1
    calls.clear()
    assert grammar.index.ranks["caught"] == 3
    assert calls == []
    assert main(["check", str(GOLDEN_EXAMPLE2), str(GOOD)]) == 0
    assert len(calls) == 1
    with pytest.raises(NonterminalMismatch):
        dataclasses.replace(feature_grammar, axiom="Z_S")
    assert copy.copy(feature_grammar) == feature_grammar
    assert pickle.loads(pickle.dumps(feature_grammar)) == feature_grammar
