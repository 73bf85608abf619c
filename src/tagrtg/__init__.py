"""Derivation-tree grammars for feature-based tree adjoining grammars.

The pipeline: parse a TAG (`tag`), translate it into a regular tree
grammar over its derivation trees, in the standard or the left-corner
form and with or without feature constraints (`translate`), map
derivation trees between the two forms (`leftcorner`), then enumerate,
check or reduce (`rtg`) and serialize (`rtg_io`).  `features` holds the
unification kernel and `trees` the derivation-tree type shared
throughout.

`import tagrtg` loads none of these modules.  A public name imports its
module on first access (PEP 562) and is then bound here, so later
lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

# Each module of the package and the public names it defines.
_EXPORTS = {
    "features": (
        "IDENTITY", "TOP", "Atom", "Avm", "FeatureSyntaxError", "Substitution", "Var",
        "format_feature", "parse_feature", "variables",
    ),
    # `translate` defines `lc_fbrtg` and `leftcorner` re-exports it.  The
    # name resolves through `leftcorner`, so a process that uses it has
    # that module loaded, where the benchmark's tracer
    # (perfbench/tracing.py) looks the name up.
    "leftcorner": ("MalformedLcTree", "lc_fbrtg", "lc_image", "lc_inverse"),
    "rtg": (
        "EPS_ADJOIN", "EPS_SUBST", "AlphabetError", "FbRtg", "FbRule",
        "GrammarError", "Nonterminal", "NonterminalMismatch", "SiteInfo",
        "accepts", "accepts_detailed", "enumerate_trees", "erase_features", "reduce_grammar",
    ),
    "rtg_io": ("RtgParseError", "format_rtg", "load_rtg", "parse_rtg", "save_rtg"),
    "tag": (
        "ElemTree", "NodeKind", "ParseError", "Tag", "TreeNode", "ValidationError",
        "bundled_grammar", "format_tag", "load_tag", "parse_tag", "save_tag",
    ),
    "translate": ("RootNotAdjoinable", "to_fbrtg"),
    "trees": ("DerivTree", "TreeSyntaxError", "format_tree", "parse_tree", "to_dot"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
