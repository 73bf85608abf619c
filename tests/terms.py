"""Term operations the unification tests need and the library does not,
and the strategies that draw their terms and substitutions."""

from hypothesis import strategies as st

from tagrtg.features import TOP, Atom, Avm, Substitution, Var, variables

ATTRS = ["agr", "mode", "f"]
ATOMS = ["3sg", "3pl", "ind"]
VARS = ["x", "y", "z"]


def term_strategy():
    leaves = st.one_of(
        st.builds(Atom, st.sampled_from(ATOMS)),
        st.just(TOP),
        st.builds(Var, st.sampled_from(VARS)),
    )

    def extend(children):
        return st.builds(
            Avm,
            st.lists(
                st.tuples(st.sampled_from(ATTRS), children),
                max_size=3,
                unique_by=lambda kv: kv[0],
            ),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def subst_strategy():
    return st.builds(
        Substitution,
        st.dictionaries(st.sampled_from(VARS), term_strategy(), max_size=3),
    )


def alpha_equal(a, b) -> bool:
    """Structural equality up to consistent variable renaming."""
    return _canon(a, {}) == _canon(b, {})


def _canon(term, mapping):
    if isinstance(term, Var):
        if term.name not in mapping:
            mapping[term.name] = f"_{len(mapping)}"
        return Var(mapping[term.name])
    if isinstance(term, Avm):
        # Sorted traversal so entry order cannot leak into the renaming.
        return Avm((k, _canon(v, mapping)) for k, v in sorted(term.entries))
    return term


def is_idempotent(sigma: Substitution) -> bool:
    """No variable that `sigma` binds occurs in what it binds to."""
    image_vars: set[str] = set()
    for term in sigma.bindings.values():
        image_vars |= variables(term)
    return not (image_vars & set(sigma.bindings))


def substitute(term, image):
    """`term` with each variable whose name `image` maps replaced by its
    image, in one pass: the images are not searched in turn."""
    if isinstance(term, Var):
        return image.get(term.name, term)
    if isinstance(term, Avm):
        return Avm((k, substitute(v, image)) for k, v in term.entries)
    return term
