"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the layers' public functions wherever coxlen's
modules look them up (every `coxlen*` module attribute bound to the same
function object, so `coxlen.reflen.enumerate_reflections` is wrapped along
with `coxlen.tits.enumerate_reflections`), and `uninstall()` puts the
originals back.  Untraced rounds never call `install()`.

Coarse layers record spans (name, start, end, parent, op id) in memory.  The
hot primitives (scalar mul/add/sign, GroupElement multiply and key, det) are
called millions of times per round, so they only count calls; GroupElement
multiply also accumulates its time, which is charged to the enclosing span
so that span self times stay right.  A layer's self time is its span time
minus its child spans and charged leaf time.

A name whose module no longer defines it is reported absent, not an error
(ROADMAP items 2 and 3 plan to delete `inertia`, `charpoly_minor_sums` and
`reflection_distances`).

Which end-to-end metric each layer metric should move, on which workload:

| layer metrics                                          | moves                  | on |
|--------------------------------------------------------|------------------------|----|
| exactfield mul/add calls, tits elem_mul/key            | wall_s, op_p90_ms      | element-solve; truncated-search |
| exactfield sign/theta, tits reduced_word/codim         | op_p50_ms              | element-solve; cli-batch |
| exactfield fields_built, field_build_s                 | setup_s, wall_s        | cli-batch (wide-order slice) |
| linalg det/minors/inertia/rank, tits gram_signature    | wall_s, op_p90_ms      | cli-batch (rank 6); flat on element-solve |
| coxeter classify/kind cache/minimal subsets            | op_p50_ms, wall_s      | cli-batch |
| reflen exact solver, min_product_length                | op_p90_ms, wall_s, peak_rss_mb | element-solve; truncated-search ladder |
| tits enumerate_reflections, reflen ladder_rungs        | wall_s                 | truncated-search |
| reflen standard_ball, bfs                              | wall_s, peak_rss_mb    | truncated-search |
| quasimorphism build_certificate/defect_window/homogenize | wall_s               | cli-batch |
| filling, warp                                          | op_p50_ms              | cli-batch |
| reports serialize/bytes_out, cli self_s/ops            | op_p50_ms              | cli-batch |
"""

from __future__ import annotations

import sys
import time
from collections import Counter

NAME, START, END, PARENT, OP, TAG, LEAF_TIME = range(7)

# (short name, module, attribute path, mode); mode is "span", "leaf" (count
# only) or "timed-leaf" (count and time)
TARGETS = (
    ("exactfield.mul", "coxlen.exactfield", "ExactScalar.__mul__", "leaf"),
    ("exactfield.add", "coxlen.exactfield", "ExactScalar.__add__", "leaf"),
    ("exactfield.sign", "coxlen.exactfield", "RealCyclotomicField.sign_of", "leaf"),
    ("exactfield.refine", "coxlen.exactfield", "RealCyclotomicField.refine_theta", "leaf"),
    ("exactfield.field", "coxlen.exactfield", "RealCyclotomicField.__new__", "span"),
    ("tits.elem_mul", "coxlen.tits", "GroupElement.__mul__", "timed-leaf"),
    ("tits.key", "coxlen.tits", "GroupElement.key", "leaf"),
    ("tits.reduced_word", "coxlen.tits", "TitsGroup.reduced_word", "span"),
    ("tits.fixed_space_codim", "coxlen.tits", "fixed_space_codim", "span"),
    ("tits.gram_signature", "coxlen.tits", "gram_signature", "span"),
    ("tits.enumerate_reflections", "coxlen.tits", "enumerate_reflections", "span"),
    ("linalg.det", "coxlen.linalg", "det", "leaf"),
    ("linalg.leading_minors", "coxlen.linalg", "leading_principal_minors", "span"),
    ("linalg.inertia", "coxlen.linalg", "inertia", "span"),
    ("linalg.matrix_rank", "coxlen.linalg", "matrix_rank", "span"),
    ("coxeter.gram_matrix", "coxlen.coxeter", "gram_matrix", "span"),
    ("coxeter.classify_group", "coxlen.coxeter", "classify_group", "span"),
    ("coxeter.classify_component", "coxlen.coxeter", "classify_component", "span"),
    ("coxeter.minimal_subsets", "coxlen.coxeter", "minimal_nonaffine_subsets", "span"),
    ("reflen.element", "coxlen.reflen", "reflen_element", "span"),
    ("reflen.exact_solver", "coxlen.reflen", "exact_reflection_length", "span"),
    ("reflen.min_product_length", "coxlen.reflen", "min_product_length", "span"),
    ("reflen.standard_ball", "coxlen.reflen", "standard_ball", "span"),
    ("reflen.bfs", "coxlen.reflen", "reflection_distances", "span"),
    ("quasimorphism.build_certificate", "coxlen.quasimorphism", "build_certificate", "span"),
    ("quasimorphism.defect_window", "coxlen.quasimorphism", "defect_window", "span"),
    ("quasimorphism.homogenize", "coxlen.quasimorphism", "homogenize", "span"),
    ("filling.congruence_search", "coxlen.filling", "congruence_search", "span"),
    ("filling.short_elements", "coxlen.filling", "compute_short_elements", "span"),
    ("warp.profile", "coxlen.warp", "warp_profile", "span"),
    ("warp.grid_checks", "coxlen.warp", "grid_checks", "span"),
    ("reports.json", "coxlen.reports", "json_report", "span"),
    ("reports.csv", "coxlen.reports", "csv_report", "span"),
    ("cli.main", "coxlen.cli", "main", "span"),
)


def _tag_result(name, args, kwargs, result):
    """What a span keeps of its call, for the metrics below."""
    if name == "coxeter.classify_component":
        return len(args[1]) if len(args) > 1 else len(kwargs["subset"])
    if name in ("tits.enumerate_reflections", "reflen.standard_ball",
                "filling.short_elements"):
        return len(result)
    if name == "reflen.exact_solver":
        return result is not None
    if name == "reflen.bfs":
        targets = args[2] if len(args) > 2 else kwargs["targets"]
        dist = result[0]
        return len(dist), sum(1 for t in targets if t in dist)
    if name in ("reports.json", "reports.csv"):
        return len(result)
    if name == "exactfield.field":
        return id(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.leaf_time = Counter()
        self.op = "setup"
        self.patches = []
        self.absent = set()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op, None, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[TAG] = "raised"
                raise
            finally:
                span[END] = clock()
                stack.pop()
            span[TAG] = _tag_result(name, args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn, timed):
        counts, spans, stack, leaf_time = self.counts, self.spans, self.stack, self.leaf_time
        clock = time.perf_counter
        if not timed:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def timed_wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                leaf_time[name] += dt
                if stack:
                    spans[stack[-1]][LEAF_TIME] += dt
        return timed_wrapper

    def _wrap(self, name, fn, mode):
        if mode == "span":
            return self._span(name, fn)
        return self._leaf(name, fn, mode == "timed-leaf")

    # -- install / uninstall --------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "coxlen" or n.startswith("coxlen."))]
        for name, module_name, path, mode in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.add(name)
                continue
            raw = vars(owner)[attr]
            if owner_name:
                self._install_method(name, owner, attr, raw, mode)
            else:
                wrapped = self._wrap(name, raw, mode)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._patch(m, key, wrapped)

    def _install_method(self, name, cls, attr, raw, mode):
        if isinstance(raw, property):
            self._patch(cls, attr, property(self._wrap(name, raw.fget, mode)))
        elif isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__, mode)))
        else:
            wrapped = self._wrap(name, raw, mode)
            # aliases such as __rmul__ = __mul__ count as the same layer call
            for key, value in list(vars(cls).items()):
                if value is raw:
                    self._patch(cls, key, wrapped)

    def _patch(self, owner, key, value):
        self.patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self.patches):
            setattr(owner, key, value)
        self.patches.clear()

    # -- metrics ----------------------------------------------------------------

    def metrics(self):
        """{metric: value or None when absent}, for one traced round."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]

        def outermost(idx):
            name = spans[idx][NAME]
            p = spans[idx][PARENT]
            while p is not None:
                if spans[p][NAME] == name:
                    return False
                p = spans[p][PARENT]
            return True

        incl = Counter()
        self_t = Counter()
        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[NAME], []).append(s)
            self_t[s[NAME]] += s[END] - s[START] - child[i] - s[LEAF_TIME]
            if outermost(i):
                incl[s[NAME]] += s[END] - s[START]

        def tagged(name):
            return by_name.get(name, [])

        def calls(name):
            return len(tagged(name))

        # a field call built a field when it returned an instance not seen
        # before, or raised (the theta-isolation failure)
        seen, built, build_s = set(), 0, 0.0
        for s in tagged("exactfield.field"):
            if s[TAG] == "raised" or s[TAG] not in seen:
                built += 1
                build_s += s[END] - s[START]
                seen.add(s[TAG])

        # a kind-cache lookup (component of size <= 5) missed when it built
        # a Gram matrix below it
        missed = set()
        for s in tagged("coxeter.gram_matrix"):
            p = s[PARENT]
            while p is not None:
                if spans[p][NAME] == "coxeter.classify_component":
                    missed.add(p)
                p = spans[p][PARENT]
        lookups = [i for i, s in enumerate(spans)
                   if s[NAME] == "coxeter.classify_component"
                   and isinstance(s[TAG], int) and s[TAG] <= 5]
        hits = sum(1 for i in lookups if i not in missed)

        solver = tagged("reflen.exact_solver")
        bfs = [s[TAG] for s in tagged("reflen.bfs") if isinstance(s[TAG], tuple)]
        bfs_nodes = sum(n for n, _ in bfs)
        rungs = sum(1 for s in tagged("reflen.min_product_length")
                    if s[PARENT] is not None and spans[s[PARENT]][NAME] == "reflen.element")
        reports = tagged("reports.json") + tagged("reports.csv")

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "exactfield.mul_calls": (self.counts["exactfield.mul"], "exactfield.mul"),
            "exactfield.add_calls": (self.counts["exactfield.add"], "exactfield.add"),
            "exactfield.sign_calls": (self.counts["exactfield.sign"], "exactfield.sign"),
            "exactfield.theta_refinements": (self.counts["exactfield.refine"], "exactfield.refine"),
            "exactfield.fields_built": (built, "exactfield.field"),
            "exactfield.field_build_s": (build_s, "exactfield.field"),
            "tits.elem_mul_calls": (self.counts["tits.elem_mul"], "tits.elem_mul"),
            "tits.key_calls": (self.counts["tits.key"], "tits.key"),
            "tits.elem_mul_self_s": (self.leaf_time["tits.elem_mul"], "tits.elem_mul"),
            "tits.reduced_word_s": (incl["tits.reduced_word"], "tits.reduced_word"),
            "tits.fixed_space_codim_s": (incl["tits.fixed_space_codim"], "tits.fixed_space_codim"),
            "tits.gram_signature_s": (incl["tits.gram_signature"], "tits.gram_signature"),
            "tits.enumerate_reflections_calls": (calls("tits.enumerate_reflections"),
                                                 "tits.enumerate_reflections"),
            "tits.enumerate_reflections_s": (incl["tits.enumerate_reflections"],
                                             "tits.enumerate_reflections"),
            "tits.reflections_enumerated": (
                sum(s[TAG] for s in tagged("tits.enumerate_reflections")
                    if isinstance(s[TAG], int)), "tits.enumerate_reflections"),
            "linalg.det_calls": (self.counts["linalg.det"], "linalg.det"),
            "linalg.leading_minors_s": (incl["linalg.leading_minors"], "linalg.leading_minors"),
            "linalg.inertia_s": (incl["linalg.inertia"], "linalg.inertia"),
            "linalg.matrix_rank_s": (incl["linalg.matrix_rank"], "linalg.matrix_rank"),
            "coxeter.classify_group_s": (incl["coxeter.classify_group"], "coxeter.classify_group"),
            "coxeter.classify_component_calls": (calls("coxeter.classify_component"),
                                                 "coxeter.classify_component"),
            "coxeter.kind_cache_lookups": (len(lookups), "coxeter.classify_component"),
            "coxeter.kind_cache_hit_ratio": (ratio(hits, len(lookups)),
                                             "coxeter.classify_component"),
            "coxeter.minimal_subsets_s": (incl["coxeter.minimal_subsets"], "coxeter.minimal_subsets"),
            "reflen.exact_solver_calls": (len(solver), "reflen.exact_solver"),
            "reflen.exact_solver_s": (incl["reflen.exact_solver"], "reflen.exact_solver"),
            "reflen.solver_exact_ratio": (ratio(sum(1 for s in solver if s[TAG] is True),
                                                len(solver)), "reflen.exact_solver"),
            "reflen.min_product_length_calls": (calls("reflen.min_product_length"),
                                                "reflen.min_product_length"),
            "reflen.min_product_length_s": (incl["reflen.min_product_length"],
                                            "reflen.min_product_length"),
            "reflen.ladder_rungs": (rungs, "reflen.min_product_length"),
            "reflen.standard_ball_s": (incl["reflen.standard_ball"], "reflen.standard_ball"),
            "reflen.ball_elements": (
                sum(s[TAG] for s in tagged("reflen.standard_ball") if isinstance(s[TAG], int)),
                "reflen.standard_ball"),
            "reflen.bfs_s": (incl["reflen.bfs"], "reflen.bfs"),
            "reflen.bfs_nodes": (bfs_nodes, "reflen.bfs"),
            "reflen.bfs_useful_ratio": (ratio(sum(t for _, t in bfs), bfs_nodes), "reflen.bfs"),
            "quasimorphism.build_certificate_s": (incl["quasimorphism.build_certificate"],
                                                  "quasimorphism.build_certificate"),
            "quasimorphism.defect_window_calls": (calls("quasimorphism.defect_window"),
                                                  "quasimorphism.defect_window"),
            "quasimorphism.defect_window_s": (incl["quasimorphism.defect_window"],
                                              "quasimorphism.defect_window"),
            "quasimorphism.homogenize_calls": (calls("quasimorphism.homogenize"),
                                               "quasimorphism.homogenize"),
            "quasimorphism.homogenize_s": (incl["quasimorphism.homogenize"],
                                           "quasimorphism.homogenize"),
            "filling.congruence_search_s": (incl["filling.congruence_search"],
                                            "filling.congruence_search"),
            "filling.short_elements": (
                sum(s[TAG] for s in tagged("filling.short_elements") if isinstance(s[TAG], int)),
                "filling.short_elements"),
            "warp.profile_s": (incl["warp.profile"], "warp.profile"),
            "warp.grid_checks_s": (incl["warp.grid_checks"], "warp.grid_checks"),
            "reports.serialize_s": (incl["reports.json"] + incl["reports.csv"], "reports.json"),
            "reports.bytes_out": (sum(s[TAG] for s in reports if isinstance(s[TAG], int)),
                                  "reports.json"),
            "cli.self_s": (self_t["cli.main"], "cli.main"),
            "cli.ops": (calls("cli.main"), "cli.main"),
        }
        return {metric: (None if source in self.absent else value)
                for metric, (value, source) in values.items()}

    def dump_spans(self, path):
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": [s[:5] for s in self.spans]}, fh)
