#!/usr/bin/env python3
"""thincert benchmark: seeded certified workloads, timed end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload gfp_certify --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.WHY``): gfp_certify, q_solve, gfp_stream,
graph_witness.  One client sends requests in a closed loop from this single
process: each op (parse the rendered input, make one library call; or parse
and push one stream row) starts when the previous one has been checked.
The client cycles through the shuffled seeded inputs until the ops have
taken ``--seconds`` of wall time.  Every answer
is checked against the planted truth with the benchmark's own arithmetic
(``checks.py``), outside the timed calls; a sample of inputs is also
cross-checked against sympy's DomainMatrix rank after timing ends.

The machine may be shared, and its speed then drifts by up to twofold over
tens of seconds.  Every time in the end-to-end metrics is therefore
normalized against a fixed reference computation sampled between ops (see
``reference.py``): seconds on a machine where the reference takes
``reference.NOMINAL_S``.  The raw wall-clock figures are printed alongside.

``--trace 0`` prints the end-to-end metrics:
  ops_per_s_norm  ops that returned a verified answer, per normalized
                  second of op time (failed ops count in the time)
  op_p50_ms_norm  median normalized latency of those ops
  op_p90_ms_norm  90th percentile normalized latency of those ops
  peak_rss_mb     peak resident memory of this process while timing
  setup_s         median over five fresh processes of the normalized time
                  from process start to inputs ready: interpreter start,
                  import of thincert, generation of the inputs
and, on the human-readable lines, the same as raw ops_per_s, op_p50_ms,
op_p90_ms and setup_s, plus fail_frac and failures by type.

``--trace 1`` makes one pass over the inputs (the first TRACED_STREAMS of a
stream workload) untraced, one traced with spans, and two traced with
field-operation counters as well, and prints the per-layer metrics of
``tracing.LAYER_METRICS``: totals over one pass unless named per op or per
column, self times normalized like the end-to-end times.  Self times come
from the pass without field counters, field counts from the first counted
pass; the two counted passes must agree on every count, and the first two
traced passes on every count but the field ones.
Spans of the first traced pass are written to .bench_out/.

The staircase graphs of graph_witness are deeper than the recursion limit
that thincert's recursive matching (ROADMAP F2) can reach.  They are not in
the timed loop, whose ops must all succeed; each runs once per run, after
timing, as a probe.  Its RecursionErrors are the known defect: they are
printed, and reported as ``bigraph.staircase_failures`` when traced.  Once
the matching stops recursing, the probes' answers are checked like any other.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  ``correct`` is false if any op raised or its answer failed its
check, a probe raised anything but RecursionError or gave a wrong answer, a
sympy cross-check disagreed, fewer than ten verified ops lay beyond p90, or
(traced) counts did not repeat or fewer checks ran than certificates were
returned.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
from reference import INTERVAL_S, NOMINAL_S, Reference
from tracing import FAILURE_TYPES, LAYER_METRICS, SPANS, Tracer
from workloads import GENERATORS, P, WHY, GraphOp, MatrixOp, Stream, WitnessOp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
#: reference samples each set-up process takes after its inputs are ready
SETUP_REF_SAMPLES = 5
#: the p90 latency needs at least this many verified ops above it
MIN_BEYOND_P90 = 10
#: a traced pass over all streams would take a minute with field counters on
TRACED_STREAMS = 2


def import_thincert():
    if not os.path.isfile(os.path.join(SRC, "thincert", "__init__.py")):
        sys.exit(f"bench: thincert sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import thincert
    if os.path.dirname(os.path.dirname(os.path.abspath(thincert.__file__))) != SRC:
        sys.exit(f"bench: imported thincert from {thincert.__file__}, not {SRC}")
    return thincert


# --------------------------------------------------------------------------
# one op per workload kind: everything inside is timed

def matrix_call(tc, op: MatrixOp):
    m = tc.parse_matrix(op.planted.text)
    kind = op.kind
    if kind == "certify":
        return tc.certify_columns(m)
    if kind == "certify_violator":
        return tc.certify_columns(m, via_violator=True)
    if kind == "diagonalize":
        return tc.diagonalize(m)
    if kind == "kernel":
        return tc.kernel_basis(m)
    if kind == "rank":
        return tc.rank(m)
    b = tc.Vector.from_pairs(m.spec, m.num_rows, op.rhs.items())
    if kind in ("solve", "solve_refute"):
        return tc.solve(m, b)
    return tc.unsolvable_core(m, b, minimize=kind == "core_min")


def graph_call(tc, op: GraphOp):
    g = tc.support_graph(tc.parse_matrix(op.text))
    violator = tc.hall_violator(g)
    if violator is None:
        return None
    s = tc.deficiency_string(g, violator)
    return violator, s, tc.is_saturated(g, s), tc.mu_finite(g, s)


def witness_call(tc, op: WitnessOp):
    m = tc.parse_matrix(op.planted.text)
    s = tc.SaturatedString(tuple(tc.Vertex(side, i) for side, i in op.string))
    try:
        return tc.lemma_witness(m, s)
    except tc.DependentColumnsError as exc:   # a certified outcome, not a failure
        return exc


def push_call(tc, state, spec, line: str):
    pairs, rhs = tc.parse_stream_row(line, spec)
    return state.push(pairs, rhs).status


# --------------------------------------------------------------------------

class Runner:
    """Closed-loop client: runs ops one at a time, times and checks each,
    and samples the reference between ops."""

    def __init__(self, tc, pool: list, tracer: Tracer | None = None):
        self.tc = tc
        self.pool = pool
        self.tracer = tracer
        self.ref = Reference()
        self.ref.sample()
        self.ops: list[list] = []        # [seconds, reference index, verified]
        self.busy = 0.0
        self.failures: Counter = Counter()
        self.raised: Counter = Counter()  # raises that are not an allowed failure
        self.errors: list[str] = []
        self.certificates = 0
        self.attempted_units = 0
        self._since_ref = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def verified(self) -> int:
        return sum(1 for op in self.ops if op[2])

    @property
    def wrong(self) -> int:
        return self.failures["check"]

    def _note(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def problems(self) -> list[str]:
        """What makes this runner's pass incorrect."""
        out = []
        if self.wrong:
            out.append(f"{self.wrong} answers failed the independent check")
        if self.raised:
            out.append(f"ops raised: {dict(self.raised)}")
        return out

    def _timed(self, fn):
        """Run one op; returns (result or None if it raised, its record).
        A raise is counted by type and makes the run incorrect."""
        t0 = time.perf_counter()
        try:
            result = self.tracer.op(fn) if self.tracer else fn()
            raised = None
        except Exception as exc:  # counted by type; the run goes on
            result, raised = None, exc
        dt = time.perf_counter() - t0
        record = [dt, len(self.ref.samples) - 1, False]
        self.ops.append(record)
        self.busy += dt
        self._since_ref += dt
        if self._since_ref >= INTERVAL_S:
            self.ref.sample()
            self._since_ref = 0.0
        if raised is not None:
            self.failures[type(raised).__name__] += 1
            self.raised[type(raised).__name__] += 1
            self._note(f"{type(raised).__name__}: {str(raised)[:200]}")
            return None, None
        return result, record

    def _judge(self, error: str | None, record: list, certificates: int) -> bool:
        if error is not None:
            self.failures["check"] += 1
            self._note(f"check: {error}")
            return False
        record[2] = True
        self.certificates += certificates
        return True

    def normalized(self) -> tuple[list[float], list[float]]:
        """Normalized seconds of every op, and of the verified ones."""
        every, verified = [], []
        for dt, k, ok in self.ops:
            v = dt * self.ref.scale(k)
            every.append(v)
            if ok:
                verified.append(v)
        return every, verified

    def pass_scale(self) -> float:
        return NOMINAL_S / statistics.median(self.ref.samples)

    def run_pass(self) -> None:
        for unit in self.pool:
            self.run_unit(unit)

    def run_for(self, seconds: float) -> None:
        """Cycle through the pool until the ops have taken ``seconds``.  The
        pool is shuffled, so a partial last pass is a fair sample of it."""
        while self.busy < seconds:
            self.run_unit(self.pool[self.attempted_units % len(self.pool)])

    def run_unit(self, unit) -> None:
        tc = self.tc
        self.attempted_units += 1
        if isinstance(unit, Stream):
            self._stream(unit)
        elif isinstance(unit, MatrixOp):
            res, rec = self._timed(lambda: matrix_call(tc, unit))
            if rec:
                certs = 0 if unit.kind == "rank" else len(res) if unit.kind == "kernel" else 1
                self._judge(checks.matrix_op(unit, res), rec, certs)
        elif isinstance(unit, GraphOp):
            res, rec = self._timed(lambda: graph_call(tc, unit))
            if rec:
                err = "no Hall violator on a wide graph" if res is None else checks.graph_op(unit, res)
                self._judge(err, rec, 1)
        else:
            res, rec = self._timed(lambda: witness_call(tc, unit))
            if rec:
                self._judge(checks.witness_op(unit, res), rec, 1)
        if self.tracer:
            self.tracer.harvest()

    def _stream(self, stream: Stream) -> None:
        tc = self.tc
        spec = tc.FieldSpec.gf(P)
        state = tc.StreamState(spec)
        own = self.tracer.eliminators[-1] if self.tracer else None
        latched = None
        for k, line in enumerate(stream.lines):
            status, rec = self._timed(lambda: push_call(tc, state, spec, line))
            if rec is None:
                return          # the state after a failed push is unknown
            err = checks.stream_status(stream, k, status, latched)
            if err is None and k == stream.latch:
                err = checks.stream_core(stream, status.core)
                latched = status
            if not self._judge(err, rec, 1 if k == stream.latch else 0):
                return
        if own is not None:
            self.tracer.counts["stream.provenance_entries_end"] += Tracer.provenance(own)


# --------------------------------------------------------------------------
# probes, context and cross-checks (never timed)

def is_probe(unit) -> bool:
    return isinstance(unit, GraphOp) and unit.kind == "staircase"


def run_probes(tc, probes: list) -> tuple[int, list[str]]:
    """Run each staircase once: (how many raised RecursionError, problems)."""
    recursion, problems = 0, []
    for op in probes:
        try:
            res = graph_call(tc, op)
        except RecursionError:          # the known defect, F2
            recursion += 1
            continue
        except Exception as exc:
            problems.append(f"staircase probe raised {type(exc).__name__}: {str(exc)[:200]}")
            continue
        err = "no Hall violator on a wide graph" if res is None else checks.graph_op(op, res)
        if err:
            problems.append(f"staircase probe: {err}")
    return recursion, problems


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cross_check_samples(pool: list) -> list[tuple]:
    """(modulus or None, rows, nrows, ncols, planted rank) for a few inputs."""
    out = []
    for unit in pool:
        if isinstance(unit, MatrixOp):
            pm = unit.planted
            out.append((pm.arith.p, pm.rows, pm.nrows, pm.ncols, pm.rank))
        elif isinstance(unit, Stream):
            rows = [r for r, _ in unit.rows[:unit.latch]]
            out.append((P, rows, len(rows), unit.ncols, unit.ncols))
        elif isinstance(unit, WitnessOp):
            cols = {j for side, j in unit.string if side == "c"}
            rows = [{j: v for j, v in r.items() if j in cols} for r in unit.planted.rows]
            want = len(cols) - (unit.dependent is not None)
            out.append((2, rows, len(rows), unit.planted.ncols, want))
        if len(out) == 2:
            break
    return out


def sympy_cross_check(pool: list) -> str | None:
    """None if sympy agrees with every sampled planted rank, else the reason."""
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix
    for p, rows, nrows, ncols, want in cross_check_samples(pool):
        dom = QQ if p is None else GF(p)
        conv = (lambda v: QQ(v.numerator, v.denominator)) if p is None else dom
        dm = DomainMatrix({i: {j: conv(v) for j, v in row.items()}
                           for i, row in enumerate(rows) if row}, (nrows, ncols), dom)
        got = dm.rank()
        if got != want:
            return f"sympy rank {got}, planted rank {want}"
    return None


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to inputs ready, as
    (normalized, raw).  Each fresh process samples the reference itself once
    its inputs are ready, because it may run on another core than this one."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                              "--workload", workload, "--seed", str(seed)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"setup process failed: {out.stderr.strip()[-300:]}")
        ready, ref_s = map(float, out.stdout.split()[-2:])
        raw.append(ready - t0)
        norm.append(raw[-1] * NOMINAL_S / ref_s)
    return statistics.median(norm), statistics.median(raw)


# --------------------------------------------------------------------------

def e2e_metrics(runner: Runner, setup: tuple[float, float], rss_mb: float) -> tuple[dict, dict]:
    """(end-to-end metrics, the same figures raw), each name -> (value, unit)."""
    every, ok = runner.normalized()
    raw_ok = [dt for dt, _, good in runner.ops if good]
    norm = {
        "ops_per_s_norm": (len(ok) / sum(every), "1/s"),
        "op_p50_ms_norm": (statistics.median(ok) * 1e3, "ms"),
        "op_p90_ms_norm": (statistics.quantiles(ok, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup[0], "s"),
    }
    raw = {
        "ops_per_s": (len(raw_ok) / runner.busy, "1/s"),
        "op_p50_ms": (statistics.median(raw_ok) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(raw_ok, n=10)[8] * 1e3, "ms"),
        "setup_s_raw": (setup[1], "s"),
    }
    return norm, raw


def layer_metrics(ref: Runner, spans: Runner, counted: Runner, staircase_failures: int) -> dict:
    ta, tb = spans.tracer, counted.tracer
    self_ms, in_lemma = ta.self_times()
    scale = spans.pass_scale()
    c = ta.counts
    ops = spans.attempted
    vals = {f"{name}.self_ms": self_ms.get(name, 0.0) * scale for name in SPANS}
    vals.update({k: c[k] for k in ("elimination.feed.calls", "elimination.max_coeff_bits",
                                   "elimination.provenance_entries", "linalg.verify.calls",
                                   "certify.checked.calls", "bigraph.max_matching.calls",
                                   "stream.verify_core.calls", "stream.provenance_entries_end")})
    vals.update({k: tb.counts[k] for k in ("field.add.calls", "field.sub.calls",
                                           "field.mul.calls", "field.inv.calls")})
    fed = c["elimination.fed_nnz"]
    vals["elimination.fill_ratio"] = c["elimination.pivot_nnz"] / fed if fed else 0.0
    vals["elimination.instances_per_op"] = c["elimination.instances"] / ops
    vals["certify.kernel_calls_per_op"] = c["linalg.kernel_basis.calls"] / ops
    cols = in_lemma.get("linalg.column", 0)
    vals["strings.solve_calls_per_col"] = in_lemma.get("linalg.solve", 0) / cols if cols else 0.0
    vals["bigraph.staircase_failures"] = staircase_failures
    vals["trace.fail_frac"] = (ops - spans.verified) / ops
    vals["trace.overhead_frac"] = sum(spans.normalized()[0]) / sum(ref.normalized()[0]) - 1
    vals["trace.unattributed_ms"] = self_ms.get("op", 0.0) * scale
    named = set(FAILURE_TYPES)
    for t in FAILURE_TYPES:
        vals[f"trace.failures.{t}"] = spans.failures[t]
    vals["trace.failures.other"] = sum(n for t, n in spans.failures.items() if t not in named)
    return {name: (vals[name], unit) for name, unit, _ in LAYER_METRICS}


def write_spans(tracer: Tracer, workload: str, seed: int) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans_{workload}_{seed}.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["span", "parent", "op", "name", "start_ns", "end_ns"])
        w.writerows(tracer.spans)
    return os.path.relpath(path, ROOT)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    tc = import_thincert()
    pool = GENERATORS[args.workload](args.seed)
    probes = [u for u in pool if is_probe(u)]
    pool = [u for u in pool if not is_probe(u)]
    if args.setup_only:
        ready = time.time()
        ref = Reference()
        for _ in range(SETUP_REF_SAMPLES):
            ref.sample()
        print(repr(ready), repr(statistics.median(ref.samples)))
        return 0

    problems: list[str] = []          # anything here makes the run incorrect
    context = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "client": "one process, closed loop, no threads",
    }

    if args.trace == 0:
        runner = Runner(tc, pool)
        runner.run_for(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        staircase_failures, probe_problems = run_probes(tc, probes)
        main_run = runner
        metrics, raw = e2e_metrics(runner, measure_setup(args.workload, args.seed), rss_mb)
        p90 = metrics["op_p90_ms_norm"][0] / 1e3
        _, ok = runner.normalized()
        beyond = sum(1 for x in ok if x > p90)
        if beyond < MIN_BEYOND_P90:
            problems.append(f"only {beyond} verified ops beyond p90; run longer")
        context.update(passes=runner.attempted_units / len(pool), samples=len(ok), beyond_p90=beyond,
                       reference_samples=len(runner.ref.samples),
                       reference_median_s=statistics.median(runner.ref.samples))
    else:
        traced = pool[:TRACED_STREAMS] if isinstance(pool[0], Stream) else pool
        ref = Runner(tc, traced)
        ref.run_pass()
        runs = [ref]
        for count_field_ops in (False, True, True):
            tracer = Tracer(tc, count_field_ops)
            tracer.install()
            try:
                run = Runner(tc, traced, tracer)
                run.run_pass()
            finally:
                tracer.uninstall()
            runs.append(run)
        main_run, raw = runs[1], {}
        staircase_failures, probe_problems = run_probes(tc, probes)
        metrics = layer_metrics(*runs[:3], staircase_failures)
        a, b, c = (run.tracer for run in runs[1:])
        for x, y, field in ((a, b, False), (b, c, True)):
            diff = sorted(k for k in set(x.counts) | set(y.counts)
                          if (field or not k.startswith("field.")) and x.counts[k] != y.counts[k])
            if diff:
                problems.append(f"counts differ between traced passes: {diff[:8]}")
        trust = sum(a.counts[k] for k in ("linalg.verify.calls", "certify.checked.calls",
                                          "stream.verify_core.calls"))
        if trust < main_run.certificates:
            problems.append(f"{trust} verification calls for {main_run.certificates} certificates")
        context.update(spans_file=write_spans(a, args.workload, args.seed),
                       traced_ops=main_run.attempted, certificates=main_run.certificates,
                       verification_calls=trust,
                       layer_map={name: moves for name, _, moves in LAYER_METRICS})
        for run in runs[:1] + runs[2:]:
            problems += [f"{p} in another trace pass" for p in run.problems()]

    problems += probe_problems
    context.update(staircase_probes=len(probes), staircase_recursion_errors=staircase_failures)

    try:
        disagreement = sympy_cross_check(pool)
    except ImportError:
        context["sympy_cross_check"] = "skipped: sympy is not installed"
    else:
        context["sympy_cross_check"] = disagreement or "agrees"
        if disagreement:
            problems.append(f"sympy cross-check: {disagreement}")
    problems += main_run.problems()

    attempted = main_run.attempted
    failed = attempted - main_run.verified
    context.update(fail_frac=failed / attempted, failures_by_type=dict(main_run.failures),
                   first_errors=main_run.errors, problems=problems)
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} ratio   "
          f"({failed} of {attempted}: {dict(main_run.failures) or 'none'})")
    if probes:
        print(f"{'staircase_probes':40s} {len(probes):14d} count   "
              f"({staircase_failures} raised RecursionError: F2, outside the timed ops)")
    if "beyond_p90" in context:
        print(f"{'samples':40s} {context['samples']:14d} count   "
              f"({context['beyond_p90']} beyond p90)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
