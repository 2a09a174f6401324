"""Command-line surface: decompose, apply, bench, analyze, quantize.

Exit codes: 0 success, 2 usage, 3 I/O, 4 numeric failure (including an
unreachable accuracy target).  Every command is deterministic given
``--seed``; bench cells derive their generators from the root seed plus the
cell index, so tables reproduce bit for bit regardless of worker count.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, engine, matio, wiring
from .codebooks import make_codebook
from .errors import (AccuracyUnreachableError, MatrixFormatError,
                     PlanFormatError, ShiftAddError)
from .plan import (MAX_STAGES, StageSchedule, cost_of, deserialize,
                   serialize)
from .pot import binary_encode, csd_decode, csd_encode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

CLI_KINDS = {"mailman": "mailman", "two-sparse": "two-sparse",
             "self": "self-designing", "gaussian": "gaussian"}


def _usage_error(msg: str) -> SystemExit:
    print(f"usage error: {msg}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _list_of(parse, name: str):
    """An argparse type: a nonempty comma-separated list of ``parse`` items
    (argparse makes a ``ValueError`` a usage error, exit 2)."""
    def convert(text: str) -> list:
        items = [parse(p) for p in text.split(",") if p]
        if not items:
            raise ValueError(text)
        return items
    convert.__name__ = name
    return convert


def _shape(text: str) -> tuple[int, int]:
    n, _, k = text.lower().partition("x")
    return int(n), int(k)


_int_list = _list_of(int, "integer list")


def _checked(build, *values) -> StageSchedule:
    """``build(*values)``: a schedule it refuses is a usage error."""
    try:
        return build(*values)
    except ValueError as exc:
        raise _usage_error(str(exc))


def _build_schedule(args) -> StageSchedule:
    if args.adaptive and args.bits is None:
        raise _usage_error("--adaptive needs --bits")
    if args.bits is not None and args.stages is not None:
        raise _usage_error("--stages cannot be combined with --bits")
    if args.adaptive:
        return _checked(StageSchedule.adaptive, args.bits, args.max_stages)
    if args.bits is not None:
        return _checked(StageSchedule.fixed, [args.stage_sparsity], args.bits,
                        args.max_stages)
    if args.stages is None:
        raise _usage_error("one of --bits or --stages is required")
    if not 0 <= args.stages <= MAX_STAGES:  # before the list is built
        raise _usage_error(f"--stages must be in [0, {MAX_STAGES}]")
    return _checked(StageSchedule.fixed, [args.stage_sparsity] * args.stages)


def _print_summary(plan, out=None) -> None:
    out = out or sys.stdout
    report = cost_of(plan)
    rel = plan.metadata.get("fit_rel_error", float("nan"))
    bits = plan.metadata.get("fit_achieved_bits", float("nan"))
    db = 10.0 * math.log10(rel) if rel > 0 else -math.inf
    rate = analysis.code_rate(plan.n_rows, plan.n_cols)
    print(f"N {plan.n_rows}  K {plan.n_cols}  R {rate:.4f}  "
          f"stages {plan.n_stages}", file=out)
    print(f"adds/entry {report.adds_per_entry:.4f}  "
          f"additions {report.additions}  shifts {report.shifts}", file=out)
    print(f"rel_error {rel:.6e} ({db:.2f} dB)  achieved_bits {bits}",
          file=out)


def cmd_decompose(args) -> int:
    schedule = _build_schedule(args)
    target = matio.load_matrix(args.matrix)
    n, k = target.shape
    kind = CLI_KINDS[args.codebook]
    codebook = make_codebook(kind, n, k, seed=args.seed, target=target,
                             aux=args.aux,
                             stage_sparsity=args.stage_sparsity)
    plan = wiring.decompose(target, codebook, schedule,
                            metadata={"seed": args.seed})
    with open(args.out, "wb") as fh:
        fh.write(serialize(plan))
    _print_summary(plan)
    return EXIT_OK


def cmd_apply(args) -> int:
    with open(args.plan, "rb") as fh:
        plan = deserialize(fh.read())
    x = matio.load_vector(args.vector)
    y, report = engine.apply(plan, x)
    if args.out:
        matio.save_vector(args.out, y)
    else:
        for v in y:
            print(matio.vector_line(v))
    print(f"additions {report.additions}  shifts {report.shifts}  "
          f"sign_changes {report.sign_changes}  "
          f"adds/entry {report.adds_per_entry:.4f}", file=sys.stderr)
    return EXIT_OK


def cell_plans(shape, schedule, kind, target_kind, samples, seed):
    """The plans of one bench cell: sample ``i`` draws its target and
    codebook seed from ``default_rng((*seed, i))``.  A uniform target gets
    a codebook designed on a Gaussian auxiliary matrix, a Gaussian one a
    codebook designed on the target itself.  A sample that cannot reach
    its accuracy raises ``AccuracyUnreachableError`` naming the cell's
    shape, its bit width and the sample."""
    n, k = shape
    for i in range(samples):
        rng = np.random.default_rng((*seed, i))
        if target_kind == "uniform":
            target, aux = rng.random((n, k)), "gaussian"
        else:
            target, aux = rng.standard_normal((n, k)), "target"
        codebook = make_codebook(kind, n, k,
                                 seed=int(rng.integers(2 ** 62)),
                                 target=target, aux=aux)
        try:
            plan = wiring.decompose(target, codebook, schedule)
        except AccuracyUnreachableError as exc:
            raise AccuracyUnreachableError(
                f"cell {n}x{k} at {schedule.target_bits} bits, sample {i}: "
                f"{exc}") from exc
        yield plan


def _bench_cell(cell) -> dict | AccuracyUnreachableError:
    """The table row of one cell, or the error of its first sample that
    cannot reach its accuracy."""
    idx, (shape, schedule), (kind, target_kind, samples, seed) = cell
    adds, stages = [], []
    try:
        for plan in cell_plans(shape, schedule, kind, target_kind, samples,
                               (seed, idx)):
            adds.append(cost_of(plan).adds_per_entry)
            stages.append(plan.n_stages)
    except AccuracyUnreachableError as exc:
        return exc
    arr = np.asarray(adds)
    return {"shape": "%dx%d" % shape, "bits": schedule.target_bits,
            "adds_per_entry": float(arr.mean()),
            "stderr": float(arr.std(ddof=1) / math.sqrt(len(arr)))
            if len(arr) > 1 else 0.0,
            "samples": samples, "mean_stages": float(np.mean(stages))}


def cmd_bench(args) -> int:
    if args.samples < 1:
        raise _usage_error("--samples must be at least 1")
    if args.jobs < 1:
        raise _usage_error("--jobs must be at least 1")
    bits = args.bits
    schedules = [
        _checked(StageSchedule.adaptive, q, args.max_stages) if args.adaptive
        else _checked(StageSchedule.fixed, [1], q, args.max_stages)
        for q in bits]
    common = (CLI_KINDS[args.codebook], args.target, args.samples, args.seed)
    cells = [(idx, cell, common) for idx, cell in
             enumerate(itertools.product(args.shapes, schedules))]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_cell, cells))
    else:
        results = [_bench_cell(c) for c in cells]
    rows = [r for r in results if isinstance(r, dict)]
    failed = [r for r in results if not isinstance(r, dict)]

    for q in bits:
        rows.append({"shape": "baseline(binary)", "bits": q,
                     "adds_per_entry": (q - 1) / 2.0, "stderr": 0.0,
                     "samples": 0, "mean_stages": 0.0})
        rows.append({"shape": "baseline(csd)", "bits": q,
                     "adds_per_entry": math.log(4.0 ** (q - 1), 28.0) + 1.0,
                     "stderr": 0.0, "samples": 0, "mean_stages": 0.0})

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        _emit_rows(rows, args.format, out)
    finally:
        if args.out:
            out.close()
    for exc in failed:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_NUMERIC if failed else EXIT_OK


def _emit_rows(rows, fmt: str, out) -> None:
    cols = ["shape", "bits", "adds_per_entry", "stderr", "samples",
            "mean_stages"]
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
        return
    if fmt == "md":
        out.write("| " + " | ".join(cols) + " |\n")
        out.write("|" + "---|" * len(cols) + "\n")
        for r in rows:
            out.write("| " + " | ".join(_cell_text(r[c]) for c in cols)
                      + " |\n")
        return
    out.write(",".join(cols) + "\n")
    for r in rows:
        out.write(",".join(_cell_text(r[c]) for c in cols) + "\n")


def _cell_text(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _check_analyze(args) -> None:
    """Refuse an out-of-range analyze option by its name."""
    for name, values in (("--rate", [args.rate]), ("--rates", args.rates)):
        if not all(0.0 < v < math.inf for v in values):
            raise _usage_error(f"{name} must be positive and finite")
    for name, values, low in (("--K", args.K, 1), ("--N", [args.N], 2),
                              ("--points", [args.points], 1),
                              ("--stages", [args.stages], 0),
                              ("--samples", [args.samples], 1)):
        if min(values) < low:
            raise _usage_error(f"{name} must be at least {low}")


def cmd_analyze(args) -> int:
    _check_analyze(args)
    # built in memory first: arguments a model refuses leave no output
    buf = io.StringIO()
    try:
        _analyze(args, buf)
    except ValueError as exc:
        raise _usage_error(str(exc))
    if args.out:
        with open(args.out, "w") as out:
            out.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _analyze(args, out) -> None:
    if args.asymptote:
        out.write(f"{analysis.asymptotic_threshold(args.rate)!r}\n")
    elif args.fig == "cdf":
        r = np.linspace(0.0, 1.0, args.points)
        curves = []
        for k in args.K:
            n = max(2, round(math.log2(k) / args.rate))
            curves.append(analysis.angle_error_cdf(n, k, r))
        out.write("r," + ",".join(f"K{k}" for k in args.K) + "\n")
        for i, rv in enumerate(r):
            row = [f"{rv:.6g}"] + [f"{c[i]:.6g}" for c in curves]
            out.write(",".join(row) + "\n")
    elif args.fig == "lb":
        n, k = args.N, args.K[0]
        s, mean, err = analysis.simulate_decomposition(
            n, k, args.stages, "gaussian", args.seed, args.samples)
        out.write("s,lower_bound,simulated,stderr\n")
        for i, sv in enumerate(s):
            lb = analysis.distortion_lower_bound(n, k, int(sv))
            out.write(f"{sv},{lb:.6g},{mean[i]:.6g},{err[i]:.6g}\n")
    elif args.fig == "total":
        out.write("K,rate,total_error,total_error_pow_1_over_R\n")
        for rate in args.rates:
            for k in args.K:
                n = max(2, round(math.log2(k) / rate))
                eps = analysis.total_error(n, k)
                out.write(f"{k},{rate:.6g},{eps:.6g},"
                          f"{eps ** (1.0 / rate):.6g}\n")
    else:
        raise _usage_error("choose --fig {cdf,lb,total} or --asymptote")


def cmd_quantize(args) -> int:
    try:
        value = float(args.value)
    except ValueError:
        raise _usage_error(f"cannot parse value {args.value!r}")
    if args.mode == "binary":
        form = binary_encode(value, args.budget)
    else:
        form = csd_encode(value, args.budget)
    exact = csd_decode(form)
    err = value - exact.to_float()  # both dyadic; difference is exact
    print(str(form))
    print(f"value {exact.to_float()!r} ({exact.mantissa}*2^{exact.exponent})"
          f"  error {err!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shiftadd",
        description="Approximate matrices as power-of-two codebook/wiring "
                    "products and evaluate them with shifts and adds only.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="fit a plan to a matrix file")
    d.add_argument("--matrix", required=True)
    d.add_argument("--codebook", choices=sorted(CLI_KINDS), default="self")
    d.add_argument("--bits", type=int, default=None)
    d.add_argument("--stages", type=int, default=None)
    d.add_argument("--stage-sparsity", type=int, default=1)
    d.add_argument("--adaptive", action="store_true",
                   help="single wiring stage, per-column adaptive budget")
    d.add_argument("--max-stages", type=int, default=64)
    d.add_argument("--aux", choices=["auto", "target", "gaussian"],
                   default="auto")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_decompose)

    a = sub.add_parser("apply", help="run a plan on an exact vector")
    a.add_argument("--plan", required=True)
    a.add_argument("--vector", required=True)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_apply)

    b = sub.add_parser("bench", help="adds-per-entry table over shapes/bits")
    b.add_argument("--shapes", type=_list_of(_shape, "NxK list"),
                   default="16x1024")
    b.add_argument("--bits", type=_int_list, default="2,4,8,16,24")
    b.add_argument("--codebook", choices=sorted(CLI_KINDS), default="self")
    b.add_argument("--target", choices=["gaussian", "uniform"],
                   default="gaussian")
    b.add_argument("--adaptive", action="store_true")
    b.add_argument("--samples", type=int, default=20)
    b.add_argument("--max-stages", type=int, default=96)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--format", choices=["csv", "md", "json"], default="csv")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)

    an = sub.add_parser("analyze", help="error-model curves as CSV")
    an.add_argument("--fig", choices=["cdf", "lb", "total"], default=None)
    an.add_argument("--asymptote", action="store_true")
    an.add_argument("--rate", type=float, default=1.0)
    an.add_argument("--rates", type=_list_of(float, "number list"),
                    default="0.25,0.5,1,2")
    an.add_argument("--N", type=int, default=8)
    an.add_argument("--K", type=_int_list, default="256")
    an.add_argument("--points", type=int, default=201)
    an.add_argument("--stages", type=int, default=20)
    an.add_argument("--samples", type=int, default=20)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--out", default=None)
    an.set_defaults(func=cmd_analyze)

    q = sub.add_parser("quantize", help="show a scalar's digit form")
    q.add_argument("value")
    q.add_argument("--mode", choices=["binary", "csd"], default="csd")
    q.add_argument("--budget", type=int, default=2)
    q.set_defaults(func=cmd_quantize)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MatrixFormatError, PlanFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AccuracyUnreachableError, ShiftAddError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
