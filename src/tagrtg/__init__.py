"""Derivation-tree grammars for feature-based tree adjoining grammars.

The pipeline: parse a TAG (`tag`), translate it into a regular tree
grammar over its derivation trees, in the standard or the left-corner
form and with or without feature constraints (`translate`), map
derivation trees between the two forms (`leftcorner`), then enumerate,
check or reduce (`rtg`) and serialize (`rtg_io`).  `features` holds the
unification kernel and `trees` the derivation-tree type shared
throughout.
"""

from tagrtg.features import (
    IDENTITY,
    TOP,
    Atom,
    Avm,
    FeatureSyntaxError,
    Substitution,
    Var,
    format_feature,
    parse_feature,
    variables,
)
from tagrtg.leftcorner import MalformedLcTree, lc_image, lc_inverse
from tagrtg.rtg import (
    EPS_ADJOIN,
    EPS_SUBST,
    AlphabetError,
    FbRtg,
    FbRule,
    GrammarError,
    Nonterminal,
    NonterminalMismatch,
    SiteInfo,
    accepts,
    accepts_detailed,
    enumerate_trees,
    erase_features,
    reduce_grammar,
)
from tagrtg.rtg_io import RtgParseError, format_rtg, load_rtg, parse_rtg, save_rtg
from tagrtg.tag import (
    ElemTree,
    NodeKind,
    ParseError,
    Tag,
    TreeNode,
    ValidationError,
    bundled_grammar,
    format_tag,
    load_tag,
    parse_tag,
    save_tag,
)
from tagrtg.translate import RootNotAdjoinable, lc_fbrtg, to_fbrtg
from tagrtg.trees import DerivTree, TreeSyntaxError, format_tree, parse_tree, to_dot

__version__ = "0.1.0"

__all__ = [
    "IDENTITY", "TOP", "Atom", "Avm", "FeatureSyntaxError", "Substitution", "Var",
    "format_feature", "parse_feature", "variables",
    "MalformedLcTree", "RootNotAdjoinable", "lc_fbrtg", "lc_image", "lc_inverse",
    "EPS_ADJOIN", "EPS_SUBST", "AlphabetError", "FbRtg", "FbRule",
    "GrammarError", "Nonterminal", "NonterminalMismatch", "SiteInfo",
    "accepts", "accepts_detailed", "enumerate_trees", "erase_features", "reduce_grammar",
    "RtgParseError", "format_rtg", "load_rtg", "parse_rtg", "save_rtg",
    "ElemTree", "NodeKind", "ParseError", "Tag", "TreeNode", "ValidationError",
    "bundled_grammar", "format_tag", "load_tag", "parse_tag", "save_tag",
    "to_fbrtg",
    "DerivTree", "TreeSyntaxError", "format_tree", "parse_tree", "to_dot",
    "__version__",
]
