"""In-memory tracing of tagrtg's public functions, from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper
in every tagrtg module that holds it, including modules that imported
it by name (`tagrtg.rtg.unify`, `tagrtg.rtg.derive_step`, ...), so calls
made inside the program are seen too.  Each wrapper keeps, per function,
the call count, the time of outermost activations (recursion is not
counted twice) and the self time (duration minus traced children).
Calls into the coarse entry points are also kept as spans: name, start,
end and the index of the enclosing span.  Hot kernel functions are only
aggregated; a span per `apply` would cost more memory than the work.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import tagrtg  # noqa: F401  (loads every module install() patches)

from oracles import tree_size

# function -> (defining module, layer, keep spans)
TRACED = {
    "parse_tag": ("tagrtg.tag", "tag", True),
    "to_fbrtg": ("tagrtg.translate", "translate", True),
    "lc_fbrtg": ("tagrtg.leftcorner", "leftcorner", True),
    "lc_inverse": ("tagrtg.leftcorner", "leftcorner", True),
    "lc_image": ("tagrtg.leftcorner", "leftcorner", True),
    "reduce_grammar": ("tagrtg.rtg", "rtg.reduce", True),
    "erase_features": ("tagrtg.rtg", "rtg.reduce", True),
    "format_rtg": ("tagrtg.rtg_io", "rtg_io", True),
    "parse_rtg": ("tagrtg.rtg_io", "rtg_io", True),
    "enumerate_trees": ("tagrtg.rtg", "rtg.enumerate", True),
    "derive_step": ("tagrtg.rtg", "rtg.derive", False),
    "accepts_detailed": ("tagrtg.rtg", "rtg.check", True),
    "unify": ("tagrtg.features", "features", False),
    "unify_all": ("tagrtg.features", "features", False),
    "apply": ("tagrtg.features", "features", False),
    "compose": ("tagrtg.features", "features", False),
    "freshen": ("tagrtg.features", "features", False),
    "parse_tree": ("tagrtg.trees", "trees", False),
    "format_tree": ("tagrtg.trees", "trees", False),
}
LAYERS = (
    "tag", "translate", "leftcorner", "rtg.reduce", "rtg_io", "rtg.enumerate",
    "rtg.derive", "rtg.check", "features", "trees",
)


def _nodes(tag):
    count = 0
    for tree in tag.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
    return count


class Tracer:
    def __init__(self):
        self.reset()
        self.labels = {}
        self.enabled = False
        self._originals = []

    def reset(self):
        """Forget what was recorded; wrappers and labels stay."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.check_ms = {True: [], False: []}
        self.spans = []
        self.stack = []  # open frames, see _enter

    # ------------------------------------------------------- installing

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tagrtg"]
        for name, (home, _, _) in TRACED.items():
            original = getattr(sys.modules[home], name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._originals.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def label(self, grammar, name):
        """Name a grammar so its enumeration effort is reported apart."""
        self.labels[id(grammar)] = name

    # --------------------------------------------------------- wrappers

    def _enter(self, name, keep_span):
        """Open a frame: [traced child time, enclosing span, own span]."""
        enclosing = self.stack[-1][1] if self.stack else None
        own = None
        if keep_span:
            own = len(self.spans)
            self.spans.append([name, perf_counter(), None, enclosing])
        self.stack.append([0.0, enclosing if own is None else own, own])
        self.depth[name] += 1
        return perf_counter()

    def _leave(self, name, start, finished=True):
        elapsed = perf_counter() - start
        children, _, own = self.stack.pop()
        if self.stack:
            self.stack[-1][0] += elapsed
        self.depth[name] -= 1
        if finished:
            self.calls[name] += 1
        if self.depth[name] == 0:
            self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        if own is not None:
            self.spans[own][2] = perf_counter()
        return elapsed

    def _wrap(self, name, fn):
        if name == "enumerate_trees":
            return self._wrap_generator(name, fn)
        after = getattr(self, "_after_" + name, None)
        keep_span = TRACED[name][2]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            steps_before = tracer.calls["derive_step"]
            start = tracer._enter(name, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._leave(name, start)
            if after is not None:
                after(args, result, elapsed, steps_before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        def wrapper(grammar, max_depth, *args, **kwargs):
            if not tracer.enabled:
                yield from fn(grammar, max_depth, *args, **kwargs)
                return
            stats = kwargs.setdefault("stats", {})
            inner = fn(grammar, max_depth, *args, **kwargs)
            # One span per enumeration, from its first resume to exhaustion;
            # the time in between belongs to the consumer.
            span = len(tracer.spans)
            enclosing = tracer.stack[-1][1] if tracer.stack else None
            tracer.spans.append([name, perf_counter(), None, enclosing])
            emitted = 0
            while True:
                start = tracer._enter(name, False)
                try:
                    tree = next(inner)
                except StopIteration:
                    tracer._leave(name, start)
                    break
                tracer._leave(name, start, finished=False)
                emitted += 1
                yield tree
            tracer.spans[span][2] = perf_counter()
            tracer.counts["enumerate.trees"] += emitted
            tracer.counts["enumerate.attempts"] += stats.get("steps", 0)
            tracer.counts["enumerate.failures"] += stats.get("failures", 0)
            label = tracer.labels.get(id(grammar))
            if label is not None:
                tracer.counts[f"enumerate.attempts.{label}"] += stats.get("steps", 0)
                tracer.counts[f"enumerate.failures.{label}"] += stats.get("failures", 0)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------- counters per call

    def _after_parse_tag(self, args, result, elapsed, _):
        self.counts["tag.nodes"] += _nodes(result)

    def _after_to_fbrtg(self, args, result, elapsed, _):
        self.counts["translate.rules_out"] += len(result.rules)

    def _after_lc_fbrtg(self, args, result, elapsed, _):
        self.counts["leftcorner.rules_out"] += len(result.rules)

    def _after_reduce_grammar(self, args, result, elapsed, _):
        self.counts["reduce.rules_in"] += len(args[0].rules)
        self.counts["reduce.rules_out"] += len(result.rules)

    def _after_format_rtg(self, args, result, elapsed, _):
        self.counts["rtg_io.bytes"] += len(result.encode("utf-8"))

    def _after_parse_rtg(self, args, result, elapsed, _):
        self.counts["rtg_io.bytes"] += len(args[0].encode("utf-8"))

    def _after_derive_step(self, args, result, elapsed, _):
        if result is None:
            self.counts["derive_step.failures"] += 1

    def _after_accepts_detailed(self, args, result, elapsed, steps_before):
        self.check_ms[result.accepted].append(elapsed * 1e3)
        self.counts["check.nodes"] += tree_size(args[1])
        self.counts["check.derive_steps"] += self.calls["derive_step"] - steps_before

    # ---------------------------------------------------------- report

    def metrics(self, rounds):
        """Per-layer metrics, as totals per round of the workload."""
        per = 1.0 / rounds
        c = self.counts
        calls, total = self.calls, self.total
        layer_self = defaultdict(float)
        for name, (_, layer, _) in TRACED.items():
            layer_self[layer] += self.self_time[name]

        def ratio(num, den):
            return num / den if den else 0.0

        def saved(key):
            std, lc = c[f"enumerate.{key}.standard"], c[f"enumerate.{key}.lc"]
            return 100.0 * (1 - lc / std) if std else 0.0

        def median(values):
            return statistics.median(values) if values else 0.0

        out = {
            "tag.parse_tag_s": total["parse_tag"] * per,
            "tag.nodes": c["tag.nodes"] * per,
            "translate.to_fbrtg_s": total["to_fbrtg"] * per,
            "translate.rules_out": c["translate.rules_out"] * per,
            "leftcorner.lc_fbrtg_s": total["lc_fbrtg"] * per,
            "leftcorner.rules_out": c["leftcorner.rules_out"] * per,
            "leftcorner.lc_inverse_s": total["lc_inverse"] * per,
            "leftcorner.lc_inverse.calls": calls["lc_inverse"] * per,
            "leftcorner.lc_image_s": total["lc_image"] * per,
            "leftcorner.attempts_saved_pct": saved("attempts"),
            "leftcorner.failures_saved_pct": saved("failures"),
            "rtg.reduce_grammar_s": total["reduce_grammar"] * per,
            "rtg.reduce.rules_in": c["reduce.rules_in"] * per,
            "rtg.reduce.rules_out": c["reduce.rules_out"] * per,
            "rtg.erase_features_s": total["erase_features"] * per,
            "rtg_io.format_rtg_s": total["format_rtg"] * per,
            "rtg_io.parse_rtg_s": total["parse_rtg"] * per,
            "rtg_io.bytes": c["rtg_io.bytes"] * per,
            "rtg.enumerate_trees_s": total["enumerate_trees"] * per,
            "rtg.enumerate.attempts": c["enumerate.attempts"] * per,
            "rtg.enumerate.failures": c["enumerate.failures"] * per,
            "rtg.enumerate.trees_per_attempt": ratio(
                c["enumerate.trees"], c["enumerate.attempts"]
            ),
            "rtg.enumerate.attempts.standard": c["enumerate.attempts.standard"] * per,
            "rtg.enumerate.attempts.lc": c["enumerate.attempts.lc"] * per,
            "rtg.enumerate.failures.standard": c["enumerate.failures.standard"] * per,
            "rtg.enumerate.failures.lc": c["enumerate.failures.lc"] * per,
            "rtg.derive_step.calls": calls["derive_step"] * per,
            "rtg.derive_step.failures": c["derive_step.failures"] * per,
            "rtg.derive_step_s": total["derive_step"] * per,
            "rtg.accepts_detailed_s": total["accepts_detailed"] * per,
            "rtg.check.accept_ms_p50": median(self.check_ms[True]),
            "rtg.check.reject_ms_p50": median(self.check_ms[False]),
            "rtg.check.derive_steps_per_node": ratio(
                c["check.derive_steps"], c["check.nodes"]
            ),
            "features.unify.calls": calls["unify"] * per,
            "features.unify_s": total["unify"] * per,
            "features.apply.calls": calls["apply"] * per,
            "features.compose.calls": calls["compose"] * per,
            "features.freshen.calls": calls["freshen"] * per,
            "trees.parse_tree_s": total["parse_tree"] * per,
            "trees.format_tree_s": total["format_tree"] * per,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] * per
        return out

    def write(self, path):
        """Spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": name,
                    "layer": TRACED[name][1],
                    "start_s": start - origin,
                    "end_s": (end if end is not None else start) - origin,
                    "parent": parent,
                }) + "\n")

