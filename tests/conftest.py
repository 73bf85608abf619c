"""Hand-built grammars shared across the suite.

The two fixture grammars below are written out rule by rule, on
purpose: they are the expected values that the translation and
reduction code must reproduce, so nothing here may call it.

The seeded random corpora and the oracles that share no code with the
library live with the benchmark, in `perfbench/inputs.py` and
`perfbench/oracles.py`; the tests import them from there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tagrtg.features import parse_feature
from tagrtg.rtg import FbRtg, FbRule, Nonterminal, SiteInfo

S_S = "S_S"
NP_S = "NP_S"
NP_A = "NP_A"
VP_S = "VP_S"
VP_A = "VP_A"
NP = Nonterminal("NP")


def c(*texts):
    """Constraint: a conjunction of feature terms."""
    return tuple(parse_feature(t) for t in texts)


FIG2_SITES = (
    ("a", SiteInfo("auxiliary", True, ("adj",))),
    ("cats", SiteInfo("initial", True, ("adj",))),
    ("caught", SiteInfo("initial", False, ("subst", "adj", "subst"))),
    ("fish", SiteInfo("initial", True, ("adj",))),
    ("has", SiteInfo("auxiliary", True, ("adj",))),
    ("one of", SiteInfo("auxiliary", True, ("adj",))),
    ("the", SiteInfo("auxiliary", True, ("adj",))),
)

FIG2_TERMINALS = (
    ("a", 1),
    ("cats", 1),
    ("caught", 3),
    ("e_A", 0),
    ("fish", 1),
    ("has", 1),
    ("one of", 1),
    ("the", 1),
)


def _reduced_feature_grammar():
    rules = (
        FbRule(
            S_S,
            (),
            "caught",
            (
                (NP_S, c("[top: [agr: ?x]]")),
                (VP_A, c("[top: [agr: ?x, mode: ind], bot: [mode: ppart]]")),
                (NP_S, ()),
            ),
        ),
        FbRule(NP_S, c("[top: ?t]"), "cats", ((NP_A, c("[top: ?t, bot: [agr: 3pl]]")),)),
        FbRule(NP_S, c("[top: ?t]"), "fish", ((NP_A, c("[top: ?t]")),)),
        FbRule(
            NP_A,
            c("[top: ?t, bot: [agr: ?x, const: -]]"),
            "the",
            ((NP_A, c("[top: ?t, bot: [agr: ?x, const: +, def: +]]")),),
        ),
        FbRule(
            NP_A,
            c("[top: ?t, bot: [agr: 3sg, const: -]]"),
            "a",
            ((NP_A, c("[top: ?t, bot: [agr: 3sg, const: +, def: -]]")),),
        ),
        FbRule(
            NP_A,
            c("[top: ?t, bot: [agr: 3pl, def: +]]"),
            "one of",
            ((NP_A, c("[top: ?t, bot: [agr: 3sg, const: +]]")),),
        ),
        FbRule(NP_A, c("[top: ?v, bot: ?v]"), "e_A", ()),
        FbRule(
            VP_A,
            c("[top: ?t, bot: [mode: ppart]]"),
            "has",
            ((VP_A, c("[top: ?t, bot: [agr: 3sg, mode: ind]]")),),
        ),
        FbRule(VP_A, c("[top: ?v, bot: ?v]"), "e_A", ()),
    )
    return FbRtg(
        axiom=S_S,
        nonterminals=(S_S, NP_S, NP_A, VP_A, VP_S),
        terminals=FIG2_TERMINALS,
        rules=rules,
        form="standard",
        sites=FIG2_SITES,
    )


def _reduced_plain_grammar():
    rules = (
        FbRule(S_S, (), "caught", ((NP_S, ()), (VP_A, ()), (NP_S, ()))),
        FbRule(NP_S, (), "cats", ((NP_A, ()),)),
        FbRule(NP_S, (), "fish", ((NP_A, ()),)),
        FbRule(NP_A, (), "the", ((NP_A, ()),)),
        FbRule(NP_A, (), "a", ((NP_A, ()),)),
        FbRule(NP_A, (), "one of", ((NP_A, ()),)),
        FbRule(NP_A, (), "e_A", ()),
        FbRule(VP_A, (), "has", ((VP_A, ()),)),
        FbRule(VP_A, (), "e_A", ()),
    )
    return FbRtg(
        axiom=S_S,
        nonterminals=(S_S, NP_S, NP_A, VP_A, VP_S),
        terminals=FIG2_TERMINALS,
        rules=rules,
        form="standard",
        sites=FIG2_SITES,
    )


@pytest.fixture(scope="session")
def feature_grammar():
    """Reduced feature grammar of the bundled fragment, frozen by hand."""
    return _reduced_feature_grammar()


@pytest.fixture(scope="session")
def plain_grammar():
    """Reduced plain grammar of the bundled fragment, frozen by hand."""
    return _reduced_plain_grammar()


@pytest.fixture(scope="session")
def fig2():
    from tagrtg.tag import bundled_grammar, load_tag

    return load_tag(bundled_grammar("fig2"))
