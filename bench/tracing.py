"""Per-layer tracing of thincert from outside its source tree.

``Tracer.install`` replaces public functions and methods with wrappers that
record a span (name, parent, op, start, end) and count calls; ``uninstall``
puts the originals back.  A function is replaced in every thincert module
that binds it, because ``from .linalg import kernel_basis`` gives
``thincert.certify`` a binding of its own.  Spans stay in memory until the
run writes them out.  A layer's self time is its span time minus the time
of its direct child spans.

Exact counts come from the same wrappers: calls per span name, field
operations (``FieldSpec.add/sub/mul/inv``, only when ``count_field_ops``,
because a wrapper per scalar operation slows the run far more than the
spans do), and ``Eliminator`` instances, captured at construction and read
after each op for pivot fill, provenance and coefficient size.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

#: span name -> (module, attribute) of every function or method it wraps
SPANS = {
    "files.parse_matrix": [("files", "parse_matrix")],
    "files.parse_stream_row": [("files", "parse_stream_row")],
    "elimination.feed": [("elimination", "Eliminator.feed")],
    "elimination.reduced_pivots": [("elimination", "Eliminator.reduced_pivots")],
    "elimination.solution": [("elimination", "Eliminator.solution")],
    "linalg.rank": [("linalg", "rank")],
    "linalg.kernel_basis": [("linalg", "kernel_basis")],
    "linalg.solve": [("linalg", "solve")],
    "linalg.unsolvable_core": [("linalg", "unsolvable_core")],
    "linalg.transpose": [("linalg", "SparseMatrix.transpose")],
    "linalg.submatrix": [("linalg", "SparseMatrix.submatrix")],
    "linalg.column": [("linalg", "SparseMatrix.column")],
    "linalg.verify": [("linalg", "SparseMatrix.mul_vector"),
                      ("linalg", "SparseMatrix.combine_rows"),
                      ("linalg", "UnsolvabilityCertificate.checked")],
    "certify.checked": [("certify", "Sdr.checked"), ("certify", "Dependence.checked"),
                        ("certify", "Bijection.checked"), ("bigraph", "Matching.checked"),
                        ("strings", "WitnessPair.checked")],
    "certify.certify_columns": [("certify", "certify_columns")],
    "certify.diagonalize": [("certify", "diagonalize")],
    "bigraph.support_graph": [("bigraph", "support_graph")],
    "bigraph.max_matching": [("bigraph", "max_matching")],
    "bigraph.hall_violator": [("bigraph", "hall_violator")],
    "bigraph.deficiency_string": [("bigraph", "deficiency_string")],
    "bigraph.merge": [("bigraph", "cantor_bernstein_merge")],
    "strings.lemma_witness": [("strings", "lemma_witness")],
    "strings.is_saturated": [("strings", "is_saturated")],
    "strings.mu_finite": [("strings", "mu_finite")],
    "stream.push": [("stream", "StreamState.push")],
    "stream.verify_core": [("stream", "StreamState._verify_core")],
}

FIELD_OPS = ("add", "sub", "mul", "inv")

FAILURE_TYPES = ("RecursionError", "AssertionError", "check", "other")

#: (metric, unit, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("files.parse_matrix.self_ms", "ms", "op_p50_ms_norm on every matrix workload"),
    ("files.parse_stream_row.self_ms", "ms", "op_p50_ms_norm on gfp_stream, where parsing is the largest share"),
    ("field.add.calls", "count", "ops_per_s_norm on q_solve; unchanged on gfp_certify"),
    ("field.sub.calls", "count", "ops_per_s_norm on q_solve (D4); unchanged on gfp_certify"),
    ("field.mul.calls", "count", "ops_per_s_norm on q_solve (D4); unchanged on gfp_certify"),
    ("field.inv.calls", "count", "ops_per_s_norm on q_solve (D4); unchanged on gfp_certify"),
    ("elimination.max_coeff_bits", "bits", "ops_per_s_norm on q_solve (D4)"),
    ("elimination.feed.calls", "count", "op_p50_ms_norm on gfp_certify and q_solve (D3)"),
    ("elimination.feed.self_ms", "ms", "op_p50_ms_norm on gfp_certify and q_solve (D3)"),
    ("elimination.reduced_pivots.self_ms", "ms", "op_p50_ms_norm on gfp_certify and q_solve"),
    ("elimination.solution.self_ms", "ms", "op_p50_ms_norm on gfp_certify and q_solve"),
    ("elimination.instances_per_op", "1/op", "op_p50_ms_norm on gfp_certify (D3 removes eliminations)"),
    ("elimination.fill_ratio", "ratio", "op_p50_ms_norm on gfp_certify and q_solve"),
    ("elimination.provenance_entries", "count", "op_p50_ms_norm on gfp_certify (D3); must stay nonzero on gfp_stream"),
    ("linalg.rank.self_ms", "ms", "op_p50_ms_norm on q_solve"),
    ("linalg.kernel_basis.self_ms", "ms", "op_p50_ms_norm on gfp_certify and q_solve"),
    ("linalg.solve.self_ms", "ms", "op_p50_ms_norm on q_solve and gfp_certify"),
    ("linalg.unsolvable_core.self_ms", "ms", "op_p50_ms_norm on q_solve"),
    ("linalg.transpose.self_ms", "ms", "op_p90_ms_norm on gfp_certify (diagonalize)"),
    ("linalg.submatrix.self_ms", "ms", "op_p50_ms_norm on q_solve and graph_witness"),
    ("linalg.verify.self_ms", "ms", "op_p50_ms_norm everywhere: the cost of trust"),
    ("linalg.verify.calls", "count", "never below the certificates returned"),
    ("certify.checked.self_ms", "ms", "op_p50_ms_norm everywhere: the cost of trust"),
    ("certify.checked.calls", "count", "never below the certificates returned"),
    ("certify.certify_columns.self_ms", "ms", "op_p90_ms_norm on gfp_certify"),
    ("certify.diagonalize.self_ms", "ms", "op_p90_ms_norm on gfp_certify, where diagonalize is the tail op"),
    ("certify.kernel_calls_per_op", "1/op", "op_p90_ms_norm on gfp_certify (D3)"),
    ("bigraph.support_graph.self_ms", "ms", "op_p50_ms_norm on graph_witness"),
    ("bigraph.max_matching.self_ms", "ms", "op_p50_ms_norm on graph_witness (F2)"),
    ("bigraph.max_matching.calls", "count", "op_p50_ms_norm on graph_witness and gfp_certify"),
    ("bigraph.hall_violator.self_ms", "ms", "op_p50_ms_norm on graph_witness"),
    ("bigraph.deficiency_string.self_ms", "ms", "op_p50_ms_norm on graph_witness"),
    ("bigraph.staircase_failures", "count", "staircase probes that raised RecursionError (F2); 0 once matching stops recursing"),
    ("bigraph.merge.self_ms", "ms", "op_p90_ms_norm on gfp_certify (D3 keeps it as a validator)"),
    ("strings.lemma_witness.self_ms", "ms", "ops_per_s_norm on graph_witness"),
    ("strings.solve_calls_per_col", "1/col", "ops_per_s_norm on graph_witness (D3: three solves per column)"),
    ("strings.is_saturated.self_ms", "ms", "ops_per_s_norm on graph_witness"),
    ("strings.mu_finite.self_ms", "ms", "ops_per_s_norm on graph_witness"),
    ("stream.push.self_ms", "ms", "ops_per_s_norm on gfp_stream"),
    ("stream.verify_core.self_ms", "ms", "ops_per_s_norm on gfp_stream"),
    ("stream.verify_core.calls", "count", "one per latched stream: the stream's cost of trust"),
    ("stream.provenance_entries_end", "count", "peak_rss_mb on gfp_stream (D3 drops it after the latch)"),
    ("trace.fail_frac", "ratio", "failed ops / ops in the traced pass"),
    ("trace.overhead_frac", "ratio", "traced / untraced op time on the same ops, minus one"),
    ("trace.unattributed_ms", "ms", "op time covered by no layer span"),
] + [(f"trace.failures.{t}", "count", "failed ops of this type in the traced pass")
     for t in FAILURE_TYPES]


def _coeff_bits(v) -> int:
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    return int(v).bit_length()


class Tracer:
    def __init__(self, tc, count_field_ops: bool):
        self.tc = tc
        self.count_field_ops = count_field_ops
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.eliminators: list = []
        self.fed: dict[int, int] = defaultdict(int)
        self.op_id = 0
        self._next = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            counts[calls] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, t0, t1))
        return wrapper

    def op(self, fn):
        """Run ``fn`` as one op under a root span."""
        self.op_id += 1
        return self._span("op", fn)()

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "thincert" and not mod_name.startswith("thincert."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        tc = self.tc
        for name, targets in SPANS.items():
            for mod_name, path in targets:
                mod = sys.modules[f"thincert.{mod_name}"]
                if "." not in path:
                    fn = getattr(mod, path)
                    self._rebind(fn, self._span(name, fn))
                    continue
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._span(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._span(name, raw))

        elim_cls = tc.elimination.Eliminator
        init, feed = elim_cls.__dict__["__init__"], elim_cls.feed
        eliminators, fed, counts = self.eliminators, self.fed, self.counts

        def capture(elim, *args, **kwargs):
            init(elim, *args, **kwargs)
            eliminators.append(elim)
            counts["elimination.instances"] += 1

        def count_fed(elim, cells, rhs):
            fed[id(elim)] += sum(1 for v in cells.values() if v != 0)
            return feed(elim, cells, rhs)

        self._set(elim_cls, "__init__", capture)
        self._set(elim_cls, "feed", count_fed)

        if self.count_field_ops:
            for op_name in FIELD_OPS:
                self._set(tc.FieldSpec, op_name, self._counter(f"field.{op_name}.calls",
                                                               tc.FieldSpec.__dict__[op_name]))

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(spec, *args):
            counts[key] += 1
            return fn(spec, *args)
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- exact counters read from captured eliminators -------------------

    @staticmethod
    def provenance(elim) -> int:
        return sum(len(r.combo) for r in elim.pivots.values())

    def harvest(self) -> None:
        """Fold the eliminators captured since the last call into the counts."""
        c = self.counts
        for elim in self.eliminators:
            c["elimination.pivot_nnz"] += sum(len(r.cells) for r in elim.pivots.values())
            c["elimination.fed_nnz"] += self.fed.get(id(elim), 0)
            c["elimination.provenance_entries"] += self.provenance(elim)
            bits = 0
            for r in elim.pivots.values():
                for v in r.cells.values():
                    bits = max(bits, _coeff_bits(v))
                for v in r.combo.values():
                    bits = max(bits, _coeff_bits(v))
            c["elimination.max_coeff_bits"] = max(c["elimination.max_coeff_bits"], bits)
        self.eliminators.clear()
        self.fed.clear()

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time in ms per span name, and the count of lemma-witness
        solves and columns (spans with a ``strings.lemma_witness`` ancestor)."""
        child: dict[int, int] = defaultdict(int)
        parent_of: dict[int, tuple[int, str]] = {}
        for sid, parent, _, name, t0, t1 in self.spans:
            child[parent] += t1 - t0
            parent_of[sid] = (parent, name)
        self_ms: dict[str, float] = defaultdict(float)
        in_lemma: Counter = Counter()
        for sid, parent, _, name, t0, t1 in self.spans:
            self_ms[name] += (t1 - t0 - child.get(sid, 0)) / 1e6
            if name in ("linalg.solve", "linalg.column"):
                p = parent
                while p:
                    p, pname = parent_of[p]
                    if pname == "strings.lemma_witness":
                        in_lemma[name] += 1
                        break
        return dict(self_ms), dict(in_lemma)
