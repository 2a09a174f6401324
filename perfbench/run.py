"""Benchmark of the shiftadd package: designing plans and deploying one.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Workloads.  Each is a closed loop with one client: an operation starts only
when the previous one has returned.

  table1  the paper's Table-1 cell: a Gaussian 16x1024 target, a codebook
          that designs itself on the target, fixed s=1 stages up to 16 bits.
          One operation goes from target matrix to serialized plan
          (make_codebook, decompose, cost_of, serialize).  The greedy fit
          of whole stages (wiring.fit_stage) dominates.
  table2  the paper's Table-2 cell: a uniform 10x1024 target, a codebook
          designed on a Gaussian auxiliary matrix, one adaptive stage at
          16 bits.  Same operation as table1, but the per-column adaptive
          loop runs instead of fit_stage and codebook design is a larger
          share, so a fit tuned for table1 can lose here.
  deploy  a 16x256 table1-style plan is designed during set-up.  One
          operation brings it into service: deserialize the bytes, verify
          it by its distortion from the exact reconstruction, then serve a
          stream of 16-bit fixed-point vectors (m * 2**-15) one at a time
          through engine.apply.  No fitting runs in the timed part.

Targets cycle through a pool of two per-seed matrices, so a run designs a
matrix again and can check that the plan repeats.  Correctness gates, each
failure counted against its operation: the float-tracked fit error meets the
bit width; the plan's identity digest and adds/entry equal those recorded in
``expected.json`` for the seed (or, for other seeds, every design of one
matrix gives the same digest); the plan survives a serialize/deserialize
round trip; on deploy, the exact error meets the bit width, every apply
output equals the exact reconstruction times the input bit for bit, and the
engine's counters equal ``cost_of``.  Any failure makes the exit code 1.

Output: lines starting with ``#`` are a readable report (the machine record,
every figure by name with its unit, and with ``--trace 1`` each layer's
self time and share).  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  End-to-end times
are scaled to a nominal host speed (see REFERENCE_NOMINAL_S); per-layer
times are raw medians per operation, 0 for a layer the workload does not
exercise.  A traced run alternates untraced and traced operations, reports
tracing overhead as the difference of their medians, and writes its spans to
``.bench_out/trace-<workload>-<seed>.json``.  ``--smoke`` shrinks every
workload to 8x64 at 8 bits; ``perfbench/selfcheck.py`` runs it.
"""

import os
import sys
import time

# Time figures are scaled to a nominal host speed.  On a shared 2-vCPU VM
# (Xeon, 2.1 GHz) a fixed pure-Python loop took from 0.051 s to 0.103 s
# within four minutes, and unscaled medians of 30-second runs spread by 26%.
# So each timed operation is bracketed by a fixed pure-Python reference loop
# and its time multiplied by REFERENCE_NOMINAL_S / (mean of the two reference
# times).  The report also prints raw wall-clock figures.
REFERENCE_ITERS = 300_000
REFERENCE_NOMINAL_S = 0.045


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes: a probe of the host's speed."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_ITERS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_IDS = {"table1": 1, "table2": 2, "deploy": 3}
SETUP_REPEATS = 3
VECTOR_EXP = -15  # inputs are 16-bit signed fixed point: m * 2**-15


@dataclass(frozen=True)
class Config:
    shape: tuple[int, int]
    bits: int
    pool: int = 2      # distinct targets, designed in turn (table1/table2)
    vectors: int = 0   # vectors served per deploy operation


CONFIGS = {
    "full": {"table1": Config((16, 1024), 16),
             "table2": Config((10, 1024), 16),
             "deploy": Config((16, 256), 16, vectors=32)},
    "smoke": {"table1": Config((8, 64), 8),
              "table2": Config((8, 64), 8),
              "deploy": Config((8, 64), 8, vectors=4)},
}

# Spans each workload must record; one that never fires is reported missing.
DESIGN_SPANS = {"codebooks.make_codebook", "wiring.decompose",
                "wiring.fit_stage", "pow2matrix.advance_effective",
                "plan.cost_of", "plan.serialize", "plan.deserialize"}
EXPECTED_SPANS = {
    "table1": DESIGN_SPANS,
    "table2": DESIGN_SPANS,
    "deploy": DESIGN_SPANS | {"plan.distortion", "plan.reconstruct_exact",
                              "engine.apply"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: expected.json default_seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny 8x64 at 8 bits configuration")
    p.add_argument("--inject", choices=("apply", "digest"),
                   help="corrupt one apply output or one plan digest, to "
                        "show the gates count it")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def tail(values):
    """(value, percentile, n): the highest of p50/p90/p99/p99.9 with at
    least ten samples beyond it, or the maximum when not even p50 has."""
    v = sorted(values)
    n = len(v)
    for pct in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(n * pct / 100.0)  # nearest-rank percentile
        if n - rank >= 10:
            return v[rank - 1], pct, n
    return v[-1], 100.0, n


def plan_digest(plan) -> str:
    """sha256 of a plan's identity: shape, codebook and stages.  Metadata is
    left out because it holds float diagnostics that may gain timings."""
    doc = {"rows": plan.n_rows, "cols": plan.n_cols,
           "codebook": plan.codebook.to_dict(),
           "stages": [s.to_records() for s in plan.stages]}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, scipy) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "machine": platform.machine(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


class Clock:
    """Wall time of one operation, split into segments by reference probes.

    Each segment is scaled by the probes on either side of it, so a long
    operation can be probed in the middle as well as at its ends."""

    def __init__(self):
        self.refs = [reference_s()]
        self.segments: list[float] = []
        self._start = time.perf_counter()

    def probe(self) -> None:
        self.segments.append(time.perf_counter() - self._start)
        self.refs.append(reference_s())
        self._start = time.perf_counter()

    def scale(self, segment: int) -> float:
        return 2 * REFERENCE_NOMINAL_S / (self.refs[segment]
                                          + self.refs[segment + 1])

    def raw(self) -> float:
        return sum(self.segments)

    def scaled(self) -> float:
        return sum(t * self.scale(k) for k, t in enumerate(self.segments))


class Checks:
    """Operations attempted and the first failed gate of each."""

    def __init__(self):
        self.attempted: set[str] = set()
        self.failed: dict[str, str] = {}

    def check(self, op: str, ok: bool, message: str) -> None:
        self.attempted.add(op)
        if not ok and op not in self.failed:
            self.failed[op] = message
            print(f"FAILED {op}: {message}", file=sys.stderr)


class Bench:
    def __init__(self, args, sa, np, expected):
        self.args = args
        self.sa = sa
        self.np = np
        self.name = args.workload
        self.size = "smoke" if args.smoke else "full"
        self.cfg = CONFIGS[self.size][self.name]
        self.seed = args.seed
        self.checks = Checks()
        recorded = expected["plans"][self.size][self.name]
        self.recorded = recorded.get(str(self.seed))
        self.seen: dict[int, str] = {}
        self.tracer = None
        if args.trace:
            from tracer import Tracer
            self.tracer = Tracer()
        self.times: dict[tuple[str, bool], list[float]] = {}  # scaled
        self.raw: dict[tuple[str, bool], list[float]] = {}

    # -- timing and tracing ------------------------------------------------

    @contextlib.contextmanager
    def timed(self, kind: str, op: str, traced: bool):
        """Time one operation of ``kind`` on a Clock; record spans when
        ``traced``.  Each starts from a collected heap, so a cyclic-GC pass
        owed to earlier work does not land in it (one 16x1024 plan load took
        0.12 s or 0.17 s depending on that)."""
        gc.collect()
        if traced:
            self.tracer.op = op
            self.tracer.install()
        clock = Clock()
        try:
            yield clock
        finally:
            clock.probe()
            if traced:
                self.tracer.uninstall()
                self.tracer.op = None
            self.record(kind, traced, clock.raw(), clock.scaled())

    def record(self, kind: str, traced: bool, raw: float,
               scaled: float) -> None:
        self.raw.setdefault((kind, traced), []).append(raw)
        self.times.setdefault((kind, traced), []).append(scaled)

    def samples(self, kind: str, raw: bool = False) -> list[float]:
        return (self.raw if raw else self.times).get((kind, False), [])

    def loop(self):
        """Yield (index, traced) until ``--seconds`` have passed, with at
        least three untraced operations; traced runs alternate."""
        min_ops = 4 if self.tracer else 3
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < self.args.seconds:
            yield i, self.tracer is not None and i % 2 == 1
            i += 1

    # -- inputs and design -------------------------------------------------

    def target(self, index: int):
        """(target, auxiliary codebook seed) number ``index`` of this seed."""
        rng = self.np.random.default_rng(
            [self.seed, WORKLOAD_IDS[self.name], index])
        if self.name == "table2":
            return rng.random(self.cfg.shape), int(rng.integers(2 ** 62))
        return rng.standard_normal(self.cfg.shape), None

    def design(self, target, aux_seed):
        sa = self.sa
        n, k = target.shape
        if self.name == "table2":
            cb = sa.make_codebook("self-designing", n, k, seed=aux_seed,
                                  aux="gaussian")
            schedule = sa.StageSchedule.adaptive(self.cfg.bits, max_stages=96)
        else:
            cb = sa.make_codebook("self-designing", n, k, target=target,
                                  aux="target")
            schedule = sa.StageSchedule.fixed([1], target_bits=self.cfg.bits,
                                              max_stages=96)
        plan = sa.decompose(target, cb, schedule)
        cost = sa.cost_of(plan)
        return plan, cost, sa.serialize(plan)

    def check_design(self, op: str, index: int, plan, cost) -> str:
        """Gate a freshly designed plan; return its identity digest."""
        fit = plan.metadata.get("fit_rel_error", float("inf"))
        self.checks.check(op, fit <= self.sa.threshold(self.cfg.bits),
                          f"fit_rel_error {fit!r} misses {self.cfg.bits} bits")
        if self.name == "table2":
            self.checks.check(op, plan.n_stages == 1,
                              f"adaptive plan has {plan.n_stages} stages")
        digest = plan_digest(plan)
        if self.args.inject == "digest" and op == "op:0":
            digest = ("0" if digest[0] != "0" else "1") + digest[1:]
        if self.recorded is not None:
            want_digest, want_ape = self.recorded[index]
            self.checks.check(op, digest == want_digest,
                              f"plan digest {digest} != recorded "
                              f"{want_digest}")
            self.checks.check(op, cost.adds_per_entry == want_ape,
                              f"adds/entry {cost.adds_per_entry} != "
                              f"recorded {want_ape}")
        else:
            first = self.seen.setdefault(index, digest)
            self.checks.check(op, digest == first,
                              f"plan digest {digest} differs from an "
                              f"earlier design of the same target {first}")
        return digest

    # -- workloads ---------------------------------------------------------

    def load(self, i: int, traced: bool, data: bytes):
        """Time one deserialization of ``data``; return the plan."""
        with self.timed("load", f"load:{i}", traced):
            return self.sa.deserialize(data)

    def time_imports(self) -> None:
        """Time a fresh interpreter importing numpy, scipy and the package,
        several times: the part of set-up one process cannot repeat."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for r in range(SETUP_REPEATS):
            with self.timed("import", f"import:{r}", False):
                subprocess.run([sys.executable, "-c",
                                "import numpy, scipy, shiftadd"],
                               env=env, check=True, timeout=120)

    def setup(self, body):
        """Run the set-up ``body`` several times; return the last result.
        A traced run traces every other set-up, as it does operations."""
        result = None
        for r in range(SETUP_REPEATS):
            with self.timed("setup", f"setup:{r}",
                            self.tracer is not None and r % 2 == 1):
                result = body(r)
        return result

    def run_design(self) -> dict:
        pool = self.setup(lambda r: [self.target(j)
                                     for j in range(self.cfg.pool)])
        sa = self.sa
        costs: dict[int, float] = {}
        digests = {}
        for i, traced in self.loop():
            j = i % self.cfg.pool
            op = f"op:{i}"
            with self.timed("op", op, traced):
                plan, cost, data = self.design(*pool[j])
            digest = self.check_design(op, j, plan, cost)
            costs.setdefault(j, cost.adds_per_entry)
            digests.setdefault(j, digest)
            loaded = self.load(i, traced, data)
            self.checks.check(op, plan_digest(loaded) == digest,
                              "deserialized plan differs from the design")
        self.rss_mb = peak_rss_mb()
        ape = statistics.fmean(costs.values())
        return {"adds_per_entry": ape,
                "plans": [[digests[j], costs[j]] for j in sorted(digests)],
                "stages": plan.n_stages, "plan_bytes": len(data)}

    def run_deploy(self) -> dict:
        sa, np, cfg = self.sa, self.np, self.cfg

        def body(r):
            target, _ = self.target(0)
            rng = np.random.default_rng([self.seed, WORKLOAD_IDS[self.name],
                                         1000])
            ms = rng.integers(-2 ** 15, 2 ** 15,
                              size=(cfg.vectors, cfg.shape[1])).tolist()
            plan, cost, data = self.design(target, None)
            digest = self.check_design(f"setup:{r}", 0, plan, cost)
            return target, ms, cost, data, digest

        target, ms, cost, data, digest = self.setup(body)
        xs = [[sa.Dyadic(m, VECTOR_EXP) for m in row] for row in ms]
        thr = sa.threshold(cfg.bits)
        outputs = []  # (op, vector index, output)
        apply_times, apply_raw = [], []
        for i, traced in self.loop():
            op = f"op:{i}"
            with self.timed("op", op, traced) as clock:
                begun = time.perf_counter()
                plan = sa.deserialize(data)
                loaded = time.perf_counter()
                report = sa.distortion(plan, target)
                verified = time.perf_counter()
                clock.probe()
                served = []
                for v, x in enumerate(xs):
                    start = time.perf_counter()
                    y, ops = sa.apply(plan, x)
                    served.append(time.perf_counter() - start)
                    if self.args.inject == "apply" and i == 0 and v == 0:
                        y = [y[0] + sa.Dyadic(1, -100)] + y[1:]
                    key = f"apply:{i}:{v}"
                    self.checks.check(
                        key, (ops.additions, ops.shifts, ops.sign_changes)
                        == (cost.additions, cost.shifts, cost.sign_changes),
                        f"engine counters {ops} != cost_of {cost}")
                    outputs.append((key, v, y))
            if not traced:
                apply_raw += served
                apply_times += [t * clock.scale(1) for t in served]
            self.record("verify", traced, verified - loaded,
                        (verified - loaded) * clock.scale(0))
            self.record("serve", traced, clock.segments[1],
                        clock.segments[1] * clock.scale(1))
            self.load(i, traced, data)
            self.checks.check(op, report.rel_error <= thr,
                              f"distortion {report.rel_error!r} misses "
                              f"{cfg.bits} bits")
            self.checks.check(op, plan_digest(plan) == digest,
                              "deserialized plan differs from the design")
        self.rss_mb = peak_rss_mb()
        self.check_exact(plan, target, ms, outputs,
                         [f"op:{i}" for i in range(i + 1)])
        return {"adds_per_entry": cost.adds_per_entry,
                "plans": [[digest, cost.adds_per_entry]],
                "stages": plan.n_stages, "plan_bytes": len(data),
                "apply_times": apply_times, "apply_raw": apply_raw}

    def check_exact(self, plan, target, ms, outputs, ops) -> None:
        """Untimed: exact error of the plan and bit-exact engine outputs,
        both against ``reconstruct_exact``."""
        from shiftadd.plan import reconstruct_exact
        sa = self.sa
        cols = reconstruct_exact(plan)
        e0 = min((e for col in cols for m, e in col if m), default=0)
        rows = [[col[n][0] << (col[n][1] - e0) for col in cols]
                for n in range(plan.n_rows)]
        scale = Fraction(2) ** e0
        err = norm = Fraction(0)
        for n, row in enumerate(rows):
            for r, t in zip(row, target[n].tolist()):
                err += (r * scale - Fraction(t)) ** 2
                norm += Fraction(t) ** 2
        ok = err * 3 * 4 ** (self.cfg.bits - 1) <= norm
        for op in ops:
            self.checks.check(op, ok, f"exact error {float(err / norm)!r} "
                                      f"misses {self.cfg.bits} bits")
        want = [[sa.Dyadic(sum(r * m for r, m in zip(row, mv)),
                           e0 + VECTOR_EXP) for row in rows] for mv in ms]
        for key, v, y in outputs:
            self.checks.check(key, list(y) == want[v],
                              "apply output differs from the exact "
                              "reconstruction times x")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tr) -> dict:
    figures = [
        ("codebooks.make_codebook_s", "s",
         tr.seconds("codebooks.make_codebook")),
        ("codebooks.make_codebook_calls", "count",
         tr.calls("codebooks.make_codebook")),
        ("wiring.decompose_s", "s", tr.seconds("wiring.decompose")),
        ("wiring.decompose_self_s", "s",
         tr.seconds("wiring.decompose", self_time=True)),
        ("wiring.fit_stage_s", "s", tr.seconds("wiring.fit_stage")),
        ("wiring.fit_stage_calls", "count", tr.calls("wiring.fit_stage")),
        ("wiring.stages", "count", tr.count("wiring.decompose")),
        ("pow2matrix.advance_effective_s", "s",
         tr.seconds("pow2matrix.advance_effective")),
        ("pow2matrix.advance_effective_calls", "count",
         tr.calls("pow2matrix.advance_effective")),
        ("plan.cost_of_s", "s", tr.seconds("plan.cost_of")),
        ("plan.serialize_s", "s", tr.seconds("plan.serialize")),
        ("plan.plan_bytes", "bytes", tr.count("plan.serialize")),
        ("plan.deserialize_s", "s", tr.seconds("plan.deserialize")),
        ("plan.reconstruct_exact_s", "s",
         tr.seconds("plan.reconstruct_exact")),
        ("plan.distortion_self_s", "s",
         tr.seconds("plan.distortion", self_time=True)),
        ("engine.apply_s", "s", tr.seconds("engine.apply")),
        ("engine.additions", "count", tr.count("engine.apply")),
        ("engine.ns_per_add", "ns", tr.ns_per_count("engine.apply")),
    ]
    return {name: {"value": value, "unit": unit}
            for name, unit, value in figures}


def report_trace(bench, env) -> list[str]:
    """Print each layer's share; return the expected spans never fired."""
    tr = bench.tracer
    say("layer                          op kind  calls/op   total_s/op"
        "    self_s/op   share")
    from tracer import SPANS
    traced = {kind: statistics.median(v)   # raw, as span times are
              for (kind, on), v in bench.raw.items() if on}
    for name in SPANS:
        per = tr.per_op(name)
        if not per:
            state = ("MISSING" if name in EXPECTED_SPANS[bench.name]
                     else "not exercised on this workload")
            say(f"{name:30s} {state}")
            continue
        kind = tr.kind(name)
        total = tr.seconds(name)
        own = tr.seconds(name, self_time=True)
        base = traced.get(kind)
        share = f"{total / base:7.1%} of {kind}" if base else ""
        say(f"{name:30s} {kind:7s} {tr.calls(name):9g} {total:12.6f} "
            f"{own:12.6f}   {share}")
    on, off = bench.times.get(("op", True)), bench.samples("op")
    if on and off:
        on = statistics.median(on)
        untraced = statistics.median(off)
        say(f"trace overhead_s = {on - untraced:.6f} s per op (traced p50 "
            f"{on:.6f} s, untraced p50 {untraced:.6f} s)")
    spans_file = OUT_DIR / f"trace-{bench.name}-{bench.seed}.json"
    OUT_DIR.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps({
        "workload": bench.name, "seed": bench.seed, "size": bench.size,
        "environment": env, "span_fields": ["name", "start_s", "end_s",
                                            "parent", "op", "count"],
        "spans": tr.records(T_START)}))
    say(f"spans written to {spans_file.relative_to(ROOT)}")
    return sorted(EXPECTED_SPANS[bench.name] - tr.fired())


def attributions(bench, layers) -> None:
    """Print whether the attributions the benchmark predicts hold."""
    value = {k: v["value"] for k, v in layers.items()}
    traced = {kind: statistics.median(v)   # raw, as span times are
              for (kind, on), v in bench.raw.items() if on}
    claims = []
    if bench.name in ("table1", "table2"):
        share = value["wiring.fit_stage_s"] / traced["op"]
        want = bench.name == "table1"
        claims.append((f"wiring.fit_stage_s is {'' if want else 'not '}the "
                       f"majority of design_s ({share:.1%})",
                       (share > 0.5) == want))
    else:
        share = value["plan.reconstruct_exact_s"] / traced["verify"]
        claims.append((f"plan.reconstruct_exact_s is the majority of "
                       f"verify_s ({share:.1%})", share > 0.5))
        share = value["engine.apply_s"] / traced["serve"]
        claims.append((f"engine.apply_s accounts for the apply latency "
                       f"({share:.1%} of the serving time)", share > 0.9))
    for text, ok in claims:
        say(f"attribution {'confirmed' if ok else 'WRONG'}: {text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "shiftadd" / "__init__.py").is_file():
        print(f"error: no shiftadd package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import shiftadd as sa
    if Path(sa.__file__).resolve().parent != (src / "shiftadd").resolve():
        print(f"error: imported shiftadd from {sa.__file__}", file=sys.stderr)
        return 2
    t_imported = time.perf_counter()

    expected = json.loads((HERE / "expected.json").read_text())
    if args.seed is None:
        args.seed = expected["default_seed"]
    env = environment(np, scipy)
    bench = Bench(args, sa, np, expected)
    size = "x".join(map(str, bench.cfg.shape))
    say(f"workload {bench.name} ({bench.size}: {size} at {bench.cfg.bits} "
        f"bits), seed {args.seed}"
        f"{'' if bench.recorded else ' (no recorded digests: repeat check)'}"
        f", {args.seconds:g} s, trace {args.trace}")

    bench.time_imports()
    run = bench.run_deploy if bench.name == "deploy" else bench.run_design
    result = run()
    env["loadavg_1m_end"] = os.getloadavg()[0]
    say("environment " + json.dumps(env, sort_keys=True))

    import_s = statistics.median(bench.samples("import"))
    setup = import_s + statistics.median(bench.samples("setup"))
    ops = bench.samples("op")
    op_tail, pct, n_ops = tail(ops)
    e2e = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "plan_load_s": (statistics.median(bench.samples("load")), "s"),
        "adds_per_entry": (result["adds_per_entry"], "adds"),
        "peak_rss_mb": (bench.rss_mb, "MB"),
    }
    checks = bench.checks
    attempted, failed = len(checks.attempted), len(checks.failed)

    def timing(name, kind, what=""):
        scaled = statistics.median(bench.samples(kind))
        raw = statistics.median(bench.samples(kind, raw=True))
        say(f"metric {name} = {scaled:.6f} s{what} (raw {raw:.6f} s, "
            f"n={len(bench.samples(kind))})")

    say(f"metric setup_s = {setup:.6f} s (median of {SETUP_REPEATS} fresh "
        f"imports {import_s:.6f} s + median of {SETUP_REPEATS} set-ups; "
        f"this process imported in {t_imported - T_START:.6f} s raw)")
    if bench.name == "deploy":
        timing("op_p50_s", "op", f" per load-verify-serve operation of "
                                 f"{bench.cfg.vectors} vectors")
        timing("plan_load_s", "load")
        timing("verify_s", "verify")
        for label, key in (("", "apply_times"), ("raw ", "apply_raw")):
            at = result[key]
            a_tail, a_pct, a_n = tail(at)
            say(f"metric {label}apply_vectors_per_s = {len(at) / sum(at):.3f}"
                f" 1/s")
            say(f"metric {label}apply_p50_ms = "
                f"{statistics.median(at) * 1e3:.4f} ms")
            say(f"metric {label}apply_tail_ms = {a_tail * 1e3:.4f} ms "
                f"(p{a_pct:g}, n={a_n})")
    else:
        timing("design_s", "op", " (op_p50_s)")
        timing("plan_load_s", "load")
    note = "; a maximum: no percentile has 10 samples beyond it"
    say(f"metric op_tail_s = {op_tail:.6f} s (p{pct:g}, n={n_ops}; raw "
        f"{tail(bench.samples('op', raw=True))[0]:.6f} s"
        f"{note if pct == 100 else ''})")
    say(f"metric adds_per_entry = {result['adds_per_entry']!r} adds "
        f"({result['stages']} stages, {result['plan_bytes']} plan bytes)")
    say(f"metric peak_rss_mb = {bench.rss_mb:.3f} MB")
    say(f"metric failed_frac = {failed / attempted:.6f} ratio "
        f"({failed} of {attempted} operations)")
    say("plans " + json.dumps({str(args.seed): result["plans"]}))

    if args.trace:
        missing = report_trace(bench, env)
        if missing:
            say(f"MISSING spans (expected on {bench.name}, never fired): "
                + ", ".join(missing))
            return 3
        metrics = per_layer(bench.tracer)
        attributions(bench, metrics)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
