"""Spans around calls into each `ssd` module, and the per-layer metrics.

The traced worker rebinds every public function of the package's modules to
a wrapper, in every module namespace that holds it (so names imported into
other modules, such as `criteria.pair_sumsq_matrix`, are traced at their
real call sites).  `Field.__init__` is wrapped on the class.  A wrapper
records a span (name, start, end, parent span, operation id, sizes) in
memory.  Functions called once per pair or per cell are only counted.
Nothing under the package's source is changed; the untraced worker never
installs the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

# Fields with more elements than this take the scalar arithmetic path.
TABLE_FIELD_MAX = 25

MODULES = ("gf", "poly_labels", "design_core", "criteria", "bounds",
           "constructions", "oracle", "report", "cli")

# Called once per column pair, per cell or per search candidate: counted,
# because a span each would cost more than the work it measures.
COUNTED = {
    "design_core.cell_table", "design_core.pair_a2_from_sumsq",
    "design_core.classify_columns", "design_core.classify_pair",
    "criteria.pair_dependency_stats", "criteria.projected_a2",
    "poly_labels.eval_label", "poly_labels.scale_form", "poly_labels.add_forms",
    "poly_labels.unit_form", "poly_labels.forms_dependent",
    "oracle.pair_table", "oracle.pair_a2_from_table",
}


def _elementary_sum(levels, jmax):
    """Number of GWLP terms for j = 1..jmax: sum_j e_j(s_1 - 1, ..., s_m - 1)."""
    e = [1] + [0] * jmax
    for s in levels:
        for j in range(jmax, 0, -1):
            e[j] += e[j - 1] * (s - 1)
    return sum(e[1:])


def _bind(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


# name -> callable(arguments) -> sizes recorded on the span
ANNOTATE = {
    "gf.Field": lambda a: {"s": a["order"]},
    "poly_labels.eval_label_column":
        lambda a: {"s": a["field"].order, "cells": len(a["points"])},
    "design_core.read_design": lambda a: {"bytes": os.path.getsize(a["path"])},
    # one-hot B (N x L, float64), Gram B^T B (L x L, float64), and its int64
    # rounded copy and elementwise square
    "design_core.pair_sumsq_matrix":
        lambda a: {"bytes": 8 * (a["D"].N * sum(a["D"].levels)
                                 + 3 * sum(a["D"].levels) ** 2)},
    "criteria.aggregate_stats": lambda a: {"pairs": a["D"].m * (a["D"].m - 1) // 2},
    "criteria.gwlp": lambda a: {"terms": _elementary_sum(a["D"].levels, a["jmax"])},
}


class Tracer:
    """In-memory span and call-count recorder for one traced process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id, sizes]
        self.counts = Counter()
        self.stack = []
        self.op = None

    def spanning(self, name, fn):
        annotate = ANNOTATE.get(name)
        arguments = _bind(fn) if annotate else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sizes = annotate(arguments(args, kwargs)) if annotate else None
            rec = [name, perf_counter(), None,
                   self.stack[-1] if self.stack else -1, self.op, sizes]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
        return wrapper

    def counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package):
        """Rebind the public functions of every module of `package`."""
        mods = {short: importlib.import_module(f"{package.__name__}.{short}")
                for short in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED or inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self.counting(name, obj)
                else:
                    wrapped[id(obj)] = self.spanning(name, obj)
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        field_cls = mods["gf"].Field
        field_cls.__init__ = self.spanning("gf.Field", field_cls.__init__)


# -- per-layer metrics (computed by the launcher) -------------------------------

def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("jmax_used"):
        return "j"
    return "count"


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def check_nesting(spans):
    """Problems with the span tree: a child outside its parent, or negative self."""
    problems = []
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) never closed")
        elif parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or p[4] != op:
                problems.append(f"span {i} ({name}) escapes its parent {p[0]}")
    if problems:
        return problems
    return [f"span {i} has negative self time"
            for i, t in enumerate(self_times(spans)) if t < 0]


def _outermost(spans, names):
    """Spans named in `names` none of whose ancestors is also in `names`."""
    keep = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            keep.append(i)
    return keep


def layer_metrics(spans, counts, passes, disclosures, overhead_ratio):
    """Per-pass layer metrics from the traced passes, plus the output disclosures."""
    selfs = self_times(spans)
    per = 1.0 / passes

    def total(*names):
        return per * sum(spans[i][2] - spans[i][1] for i in _outermost(spans, set(names)))

    def self_of(pred):
        return per * sum(t for (name, *_), t in zip(spans, selfs) if pred(name))

    def calls(name):
        return per * sum(1 for span in spans if span[0] == name)

    def sized(name, key, pred=lambda sizes: True):
        return [(span[2] - span[1], span[5][key]) for span in spans
                if span[0] == name and pred(span[5])]

    def ratio(num, den):
        return num / den if den else 0.0

    large = sized("poly_labels.eval_label_column", "cells", lambda z: z["s"] > TABLE_FIELD_MAX)
    small = sized("poly_labels.eval_label_column", "cells", lambda z: z["s"] <= TABLE_FIELD_MAX)
    eval_s = per * sum(t for t, _ in large + small)
    cells = per * sum(c for _, c in large + small)
    agg = sized("criteria.aggregate_stats", "pairs")
    pairs = per * sum(p for _, p in agg)
    oracle_s = total("oracle.exhaustive_min_a2")

    m = {
        "gf.field_build_s": total("gf.Field"),
        "gf.fields_built": calls("gf.Field"),
        "poly_labels.label_gen_s": total("poly_labels.h_set", "poly_labels.l_set",
                                         "poly_labels.q1_star", "poly_labels.q1",
                                         "poly_labels.qh_substitution",
                                         "poly_labels.qh_star", "poly_labels.qh"),
        "poly_labels.eval_s.large_field": per * sum(t for t, _ in large),
        "poly_labels.eval_s.small_field": per * sum(t for t, _ in small),
        "poly_labels.cells_evaluated": cells,
        "poly_labels.cells_per_s": ratio(cells, eval_s),
        "design_core.realize_s": total("design_core.realize"),
        "design_core.branch_s": total("design_core.branch_fraction"),
        "design_core.replace_s": total("design_core.replace_column"),
        "design_core.text_write_s": total("design_core.write_design",
                                          "design_core.design_to_text"),
        "design_core.text_read_s": total("design_core.read_design",
                                         "design_core.design_from_text"),
        "design_core.text_bytes": per * sum(b for _, b in sized("design_core.read_design",
                                                                "bytes")),
        "design_core.gram_s": total("design_core.pair_sumsq_matrix"),
        "design_core.gram_calls": calls("design_core.pair_sumsq_matrix"),
        "design_core.gram_bytes_computed": per * sum(
            b for _, b in sized("design_core.pair_sumsq_matrix", "bytes")),
        "design_core.coincidence_s": total("design_core.coincidences"),
        "design_core.coincidence_calls": calls("design_core.coincidences"),
        "design_core.cell_table_calls": per * counts.get("design_core.cell_table", 0),
        "criteria.aggregate_self_s": self_of(lambda n: n == "criteria.aggregate_stats"),
        "criteria.pairs": pairs,
        "criteria.pairs_per_s": ratio(pairs, per * sum(t for t, _ in agg)),
        "criteria.histogram_s": total("criteria.projected_a2_histogram"),
        "criteria.power_moment_s": total("criteria.power_moment"),
        "criteria.power_moment_calls": calls("criteria.power_moment"),
        "criteria.gwlp_s": total("criteria.gwlp"),
        "criteria.gwlp_terms": per * sum(t for _, t in sized("criteria.gwlp", "terms")),
        "bounds.certify_s": total("bounds.certify"),
        "bounds.certify_calls": calls("bounds.certify"),
        "constructions.catalog_build_s": total("constructions.catalog"),
        "constructions.verify_row_s": total("constructions.verify_design",
                                            "constructions.verify_appendix"),
        "constructions.rows_verified": calls("constructions.verify_design")
        + calls("constructions.verify_appendix"),
        "oracle.search_s": oracle_s,
        "report.build_self_s": self_of(lambda n: n == "report.build_report"),
        "report.serialize_s": total("report.report_to_json", "report.report_to_text"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for short in MODULES:
        m[f"{short}.self_s"] = self_of(lambda n, p=short + ".": n.startswith(p))

    # disclosures read from the program's own outputs
    evals = [d for d in disclosures if "jmax_used" in d]
    m["criteria.gwlp_jmax_used"] = ratio(sum(d["jmax_used"] for d in evals), len(evals))
    m["criteria.gwlp_jmax_lowered"] = per * sum(
        1 for d in evals if d["jmax_used"] < d["jmax_requested"])
    searches = [d for d in disclosures if "evaluations" in d]
    evaluations = sum(d["evaluations"] for d in searches)
    m["oracle.evaluations"] = per * evaluations
    m["oracle.evals_per_s"] = ratio(per * evaluations, oracle_s)
    m["oracle.budget_used_ratio"] = max(
        (d["evaluations"] / d["budget"] for d in searches), default=0.0)
    m["oracle.certified_ratio"] = ratio(sum(d["certified"] for d in searches),
                                        len(searches))
    return m
