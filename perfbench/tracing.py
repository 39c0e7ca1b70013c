"""Span tracing for the benchmark's traced run, installed from outside the
package: each traced function is replaced, in every macweyl module that
holds it, by a wrapper that records a span (name, start, end, parent, job
id); methods are replaced on their class.  Nothing under src/ changes.

Spans live in flat arrays until the pass ends; report() turns them into
per-layer calls, self time (span minus its traced children) and counters,
and hands the raw spans back so run.py can write them out.
"""

import time
from array import array
from collections import Counter, defaultdict

# (span name, module, attribute).  A name that a module no longer defines is
# skipped, and its metrics read 0.  Spans that no metric names on its own
# still count: they move their time out of the caller's self time and into
# their module's total, so that cli.self_s is argparse and rendering only.
TRACED = (
    ("ring.bipoly_mul", "ring", "BiPolynomial.__mul__"),
    ("ring.bipoly_mul", "ring", "BiPolynomial.__rmul__"),
    ("ring.bipoly_divide", "ring", "BiPolynomial.divide_exact_binomial"),
    ("ring.qpoly_mul", "ring", "QPolynomial.__mul__"),
    ("ring.qpoly_mul", "ring", "QPolynomial.__rmul__"),
    ("ring.qpoly_add", "ring", "QPolynomial.__add__"),
    ("ring.qpoly_add", "ring", "QPolynomial.__radd__"),
    ("ring.limit", "ring", "rf_eval_v0"),
    ("ring.limit", "ring", "rf_limit_v_infinity"),
    ("qcomb.q_binomial", "qcomb", "q_binomial"),
    ("qcomb.q_multinomial", "qcomb", "q_multinomial"),
    ("qcomb.series", "qcomb", "euler_product_truncated"),
    ("qcomb.series", "qcomb", "wedge_lhs_truncated"),
    ("walks.enumerate", "walks", "enumerate_walks"),
    ("walks.traverse", "walks", "traverse"),
    ("walks.surviving", "walks", "surviving"),
    ("walks.qb_filter", "walks", "qb_filter"),
    ("walks.walk_record", "walks", "walk_record"),
    ("ramyip.sum", "ramyip", "ramyip_sum"),
    ("ramyip.specialize", "ramyip", "specialize"),
    ("cform.E_spec", "cform", "E_spec"),
    ("cform.recurrence", "cform", "c_rec"),
    ("cform.recurrence", "cform", "cdag_rec"),
    ("cform.closed", "cform", "c_closed"),
    ("cform.closed", "cform", "cdag_closed"),
    ("cform.ctable", "cform", "ctable"),
    ("weylchar.char", "weylchar", "ch_D"),
    ("weylchar.char", "weylchar", "ch_W"),
    ("weylchar.char", "weylchar", "ch_W_sigma"),
    ("weylchar.char", "weylchar", "pbw_character_specialized"),
    ("weylchar.basis", "weylchar", "enumerate_basis"),
    ("weylchar.limit", "weylchar", "limit_char"),
    ("weylchar.limit", "weylchar", "approximant"),
    ("weylchar.section4", "weylchar", "verify_section4"),
    ("fusion.build_rep", "fusion", "build_rep"),
    ("fusion.character", "fusion", "fusion_character"),
    ("fusion.reduce", "fusion", "_WeightSpace.add"),
    ("verify.run_suites", "verify", "run_suites"),
    ("verify.classify", "verify", "classify"),
    ("verify.compare", "verify", "compare"),
    ("cli.run", "cli", "run"),
)

MODULES = ("ring", "qcomb", "walks", "ramyip", "cform", "weylchar", "fusion", "verify", "cli")


def _term_pairs(counter):
    def hook(tracer, args, result):
        other = getattr(args[1], "terms", None)
        tracer.counts[counter] += len(args[0].terms) * (len(other) if other is not None else 1)
    return hook


def _survival(tracer, args, result):
    tracer.counts["walks.survival_tested"] += 1
    tracer.counts["walks.survived"] += bool(result)


def _monomials(tracer, args, result):
    # enumerate_basis("twisted_pos") recurses; count only the outermost call.
    stack = tracer.stack
    if not stack or tracer.span_name[stack[-1]] != tracer.name_id("weylchar.basis"):
        tracer.counts["weylchar.basis.monomials"] += len(result)


def _rows(tracer, args, result):
    tracer.counts["fusion.rows_found"] += bool(result)


HOOKS = {
    "ring.bipoly_mul": _term_pairs("ring.bipoly_mul.term_pairs"),
    "ring.qpoly_mul": _term_pairs("ring.qpoly_mul.term_pairs"),
    "walks.surviving": _survival,
    "weylchar.basis": _monomials,
    "fusion.reduce": _rows,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, hook=None):
        nid = self.name_id(name)
        span_name, parent, job = self.span_name, self.parent, self.job
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every TRACED function wherever a macweyl module holds it."""
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for span, mod_name, attr in TRACED:
            mod = by_name.get(mod_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(span, original, HOOKS.get(span))
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def report(self):
        """Per-span-name calls and self seconds, counters, and the raw spans."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "spans": {
                "names": list(self.names),
                "span_name": self.span_name.tobytes(),
                "parent": self.parent.tobytes(),
                "job": self.job.tobytes(),
                "start": self.start.tobytes(),
                "end": self.end.tobytes(),
            },
        }
