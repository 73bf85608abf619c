"""Term operations the unification tests need and the library does not."""

from tagrtg.features import Avm, Substitution, Var, variables


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
