"""Feature term unification tests.

Expected values in the example-based tests are hand-derived and frozen.
The exhaustive ground-pair check compares against an independent
record-merge oracle written here; the property suites check the
algebraic contract on generated terms.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tagrtg.features import (
    IDENTITY,
    TOP,
    Atom,
    Avm,
    FeatureSyntaxError,
    Substitution,
    Var,
    apply,
    compose,
    format_feature,
    freshen,
    instantiate,
    is_top,
    parse_feature,
    read_back,
    undo,
    unify,
    unify_all,
    unify_nodes,
    variables,
)
from terms import alpha_equal, is_idempotent


def avm(**kwargs):
    return Avm(tuple(kwargs.items()))


# ---------------------------------------------------------------- frozen


def test_top_unifies_with_anything():
    term, sigma = unify(TOP, avm(agr=Atom("3pl")))
    assert term == avm(agr=Atom("3pl"))
    assert sigma.is_identity()


def test_top_never_binds_a_variable():
    term, sigma = unify(Var("x"), TOP)
    assert term == Var("x")
    assert sigma.is_identity()


def test_variable_binds_to_atom_inside_avm():
    a = avm(agr=Var("x"), const=Atom("-"))
    b = avm(agr=Atom("3sg"), const=Atom("-"))
    term, sigma = unify(a, b)
    assert term == avm(agr=Atom("3sg"), const=Atom("-"))
    assert sigma.bindings == {"x": Atom("3sg")}


def test_open_records_merge_disjoint_attributes():
    term, sigma = unify(avm(agr=Atom("3sg")), avm(const=Atom("+")))
    assert term == avm(agr=Atom("3sg"), const=Atom("+"))
    assert sigma.is_identity()


def test_shared_variable_propagates():
    term, sigma = unify(avm(agr=Var("x"), num=Var("x")), avm(agr=Atom("3sg")))
    assert term == avm(agr=Atom("3sg"), num=Atom("3sg"))
    assert sigma.bindings == {"x": Atom("3sg")}


def test_atom_clash_fails():
    assert unify(Atom("3sg"), Atom("3pl")) is None


def test_atom_against_nonempty_avm_fails():
    assert unify(Atom("3sg"), avm(agr=Atom("3pl"))) is None


def test_occurs_check_rejects_cyclic_binding():
    assert unify(Var("x"), avm(agr=Var("x"))) is None


def test_nested_clash_fails():
    a = avm(top=avm(agr=Atom("3sg")))
    b = avm(top=avm(agr=Atom("3pl")))
    assert unify(a, b) is None


def test_unify_all_folds_left():
    conjuncts = [avm(top=Var("t")), avm(top=avm(agr=Var("x")))]
    term, sigma = unify_all(conjuncts)
    assert term == avm(top=avm(agr=Var("x")))
    assert sigma.bindings == {"t": avm(agr=Var("x"))}


def test_unify_all_empty_is_top():
    term, sigma = unify_all([])
    assert is_top(term)
    assert sigma.is_identity()


def test_unify_all_detects_late_clash():
    conjuncts = [avm(m=Var("t")), avm(m=Atom("ind")), avm(m=Atom("ppart"))]
    assert unify_all(conjuncts) is None


def test_binding_sees_attributes_added_after_it():
    conjuncts = [parse_feature(t) for t in ("[top: ?t]", "[top: [g: b]]", "[top: [f: b]]")]
    term, sigma = unify_all(conjuncts)
    assert term == parse_feature("[top: [g: b, f: b]]")
    assert sigma.get("t") == parse_feature("[g: b, f: b]")


def test_shared_variable_denotes_the_unification_of_its_paths():
    term, sigma = unify(parse_feature("[p: ?t, q: ?t]"), parse_feature("[p: [g: b], q: [f: b]]"))
    both = parse_feature("[g: b, f: b]")
    assert term.get("p") == term.get("q") == both
    assert sigma.get("t") == both


def test_occurs_check_rejects_cycles_through_shared_nodes():
    # y is [k: ?z] and x is [k: ?y]; x = y would make an infinite term.
    a = parse_feature("[f: ?y, g: ?x, h: ?x]")
    b = parse_feature("[f: [k: ?z], g: [k: ?y], h: ?y]")
    assert unify(a, b) is None
    assert unify(b, a) is None


def test_undo_restores_the_nodes():
    names = {}
    a = instantiate(parse_feature("[top: ?t, bot: [agr: ?x]]"), "1", names)
    b = instantiate(parse_feature("[top: [agr: 3sg], bot: ?t]"), "1", names)
    trail = []
    assert unify_nodes(a, b, trail)
    assert read_back(a) == parse_feature("[top: [agr: 3sg], bot: [agr: 3sg]]")
    assert read_back(names["x"]) == Atom("3sg")
    undo(trail, 0)
    assert trail == []
    assert read_back(a) == parse_feature("[top: ?1.t, bot: [agr: ?1.x]]")
    assert read_back(b) == parse_feature("[top: [agr: 3sg], bot: ?1.t]")


def test_compose_applies_outer_to_inner_image():
    outer = Substitution({"y": Atom("3sg")})
    inner = Substitution({"x": avm(agr=Var("y"))})
    composed = compose(outer, inner)
    assert composed.bindings == {"y": Atom("3sg"), "x": avm(agr=Atom("3sg"))}


def test_compose_drops_trivial_bindings():
    outer = Substitution({"x": Var("y")})
    inner = Substitution({"y": Var("x")})
    assert compose(outer, inner).bindings == {"x": Var("y")}


def test_freshen_prefixes_every_variable():
    term = avm(top=Var("t"), bot=avm(agr=Var("x")))
    assert freshen(term, "1") == avm(top=Var("1.t"), bot=avm(agr=Var("1.x")))


def test_avm_drops_top_valued_entries():
    assert Avm((("agr", TOP),)) == TOP
    assert avm(agr=Atom("3sg"), junk=Avm(())) == avm(agr=Atom("3sg"))


def test_avm_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        Avm((("agr", Atom("3sg")), ("agr", Atom("3pl"))))
    with pytest.raises(FeatureSyntaxError):
        parse_feature("[a: x, a: y]")


def test_identity_substitution_returns_the_term_itself():
    term = avm(top=Var("t"), bot=avm(agr=Var("x")))
    assert apply(IDENTITY, term) is term


def test_apply_shares_subterms_without_bound_variables():
    term = avm(top=Var("t"), bot=avm(agr=Atom("3sg")))
    assert apply(Substitution({"y": Atom("3pl")}), term) is term
    bound = apply(Substitution({"t": Atom("3pl")}), term)
    assert bound == avm(top=Atom("3pl"), bot=avm(agr=Atom("3sg")))
    assert bound.get("bot") is term.get("bot")


def test_apply_drops_entries_bound_to_top():
    assert apply(Substitution({"x": TOP}), Avm([("a", Var("x"))])) == TOP


def test_freshen_returns_variable_free_terms_themselves():
    term = avm(agr=Atom("3sg"), det=avm(def_=Atom("+")))
    assert freshen(term, "1.2") is term


def test_compose_with_identity_keeps_the_other_side():
    sigma = Substitution({"x": Atom("a")})
    assert compose(IDENTITY, sigma) is sigma
    assert compose(sigma, IDENTITY) is sigma


def test_avm_equality_ignores_entry_order():
    a = Avm((("agr", Atom("3sg")), ("const", Atom("+"))))
    b = Avm((("const", Atom("+")), ("agr", Atom("3sg"))))
    assert a == b
    assert hash(a) == hash(b)


def test_substitution_idempotence_flag():
    assert is_idempotent(Substitution({"x": Atom("a")}))
    assert not is_idempotent(Substitution({"x": Var("y"), "y": Atom("a")}))


def test_substitution_str_is_sorted():
    s = Substitution({"y": Atom("3pl"), "x": Atom("3sg")})
    assert str(s) == "{x = 3sg, y = 3pl}"


def test_variables():
    term = avm(top=Var("t"), bot=avm(agr=Var("x")))
    assert variables(term) == {"t", "x"}


def test_alpha_equal_renames_consistently():
    a = avm(agr=Var("x"), num=Var("x"))
    b = avm(agr=Var("y"), num=Var("y"))
    c = avm(agr=Var("y"), num=Var("z"))
    assert alpha_equal(a, b)
    assert not alpha_equal(a, c)


# ---------------------------------------------------------------- syntax


@pytest.mark.parametrize(
    "text, term",
    [
        ("3sg", Atom("3sg")),
        ("+", Atom("+")),
        ("-", Atom("-")),
        ("?x", Var("x")),
        ("?1.1.x", Var("1.1.x")),
        ("[]", TOP),
        ("[agr: 3pl]", Avm((("agr", Atom("3pl")),))),
        (
            "[agr: ?x, const: -]",
            Avm((("agr", Var("x")), ("const", Atom("-")))),
        ),
        (
            "[top: [agr: ?x], bot: ?t]",
            Avm((("top", Avm((("agr", Var("x")),))), ("bot", Var("t")))),
        ),
    ],
)
def test_parse_feature(text, term):
    assert parse_feature(text) == term


@pytest.mark.parametrize(
    "text",
    ["", "?", "[agr 3sg]", "[agr: 3sg", "[agr: 3sg,]", "3sg 3pl", "[a: x, a: y]"],
)
def test_parse_feature_rejects(text):
    with pytest.raises(FeatureSyntaxError):
        parse_feature(text)


def test_format_feature_examples():
    assert format_feature(TOP) == "[]"
    assert format_feature(avm(agr=Var("x"), mode=Atom("ind"))) == "[agr: ?x, mode: ind]"


# ------------------------------------------------- exhaustive ground oracle


def merge_ground(a, b):
    """Reference record merge for variable-free terms."""
    if is_top(a):
        return b
    if is_top(b):
        return a
    if isinstance(a, Atom) or isinstance(b, Atom):
        return a if a == b else None
    out = dict(a.entries)
    for key, value in b.entries:
        if key in out:
            merged = merge_ground(out[key], value)
            if merged is None:
                return None
            out[key] = merged
        else:
            out[key] = value
    return Avm(out.items())


def ground_universe():
    atoms = [Atom("p"), Atom("q")]
    level0 = [TOP] + atoms
    def avms(values):
        for va in [None] + values:
            for vb in [None] + values:
                entries = [(k, v) for k, v in (("f", va), ("g", vb)) if v is not None]
                if entries:
                    yield Avm(entries)
    level1 = level0 + list(avms(atoms))
    return level0 + list(avms([t for t in level1 if not is_top(t)]))


def test_ground_pairs_match_merge_oracle():
    universe = ground_universe()
    for a, b in itertools.product(universe, repeat=2):
        expected = merge_ground(a, b)
        got = unify(a, b)
        if expected is None:
            assert got is None, f"{a} / {b}"
        else:
            term, sigma = got
            assert term == expected, f"{a} / {b}"
            assert sigma.is_identity()


# ------------------------------------------------------------- properties

ATTRS = ["agr", "mode", "f"]
ATOMS = ["3sg", "3pl", "ind"]
VARS = ["x", "y", "z"]


def term_strategy(with_vars=True):
    leaves = [st.builds(Atom, st.sampled_from(ATOMS)), st.just(TOP)]
    if with_vars:
        leaves.append(st.builds(Var, st.sampled_from(VARS)))
    def extend(children):
        return st.builds(
            Avm,
            st.lists(
                st.tuples(st.sampled_from(ATTRS), children),
                max_size=3,
                unique_by=lambda kv: kv[0],
            ),
        )
    return st.recursive(st.one_of(leaves), extend, max_leaves=5)


def subst_strategy():
    return st.builds(
        Substitution,
        st.dictionaries(st.sampled_from(VARS), term_strategy(), max_size=3),
    )


@given(term_strategy())
def test_unify_with_self_is_identity(t):
    result = unify(t, t)
    assert result is not None
    term, sigma = result
    assert term == t
    assert sigma.is_identity()


@given(term_strategy(), term_strategy())
def test_unify_symmetric_up_to_renaming(a, b):
    left = unify(a, b)
    right = unify(b, a)
    assert (left is None) == (right is None)
    if left is not None:
        assert alpha_equal(left[0], right[0])


@given(term_strategy(), term_strategy())
def test_unifier_is_stable_and_idempotent(a, b):
    result = unify(a, b)
    if result is None:
        return
    term, sigma = result
    assert apply(sigma, term) == term
    assert is_idempotent(sigma)


@given(term_strategy(), term_strategy())
def test_result_absorbs_both_instantiated_sides(a, b):
    result = unify(a, b)
    if result is None:
        return
    term, sigma = result
    for side in (a, b):
        again = unify(term, apply(sigma, side))
        assert again is not None
        assert again[0] == term
        assert again[1].is_identity()


@given(term_strategy(), term_strategy())
def test_residual_unification_needs_no_bindings(a, b):
    result = unify(a, b)
    if result is None:
        return
    term, sigma = result
    again = unify(apply(sigma, a), apply(sigma, b))
    assert again is not None
    assert again[0] == term
    assert again[1].is_identity()


@given(subst_strategy(), subst_strategy(), term_strategy())
def test_compose_law(outer, inner, t):
    assert apply(compose(outer, inner), t) == apply(outer, apply(inner, t))


@given(term_strategy(), term_strategy())
def test_freshen_preserves_unifiability(a, b):
    plain = unify(a, b)
    fresh = unify(freshen(a, "1"), freshen(b, "1"))
    assert (plain is None) == (fresh is None)
    if plain is not None:
        assert alpha_equal(plain[0], fresh[0])


@given(term_strategy())
def test_freshen_is_injective_renaming(t):
    fresh = freshen(t, "1.2")
    assert alpha_equal(t, fresh)
    assert variables(fresh) == {"1.2." + v for v in variables(t)}


@given(term_strategy())
def test_parse_format_round_trip(t):
    assert parse_feature(format_feature(t)) == t


@given(term_strategy())
def test_top_is_neutral(t):
    term, sigma = unify(t, TOP)
    assert term == t
    assert sigma.is_identity()
