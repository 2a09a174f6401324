"""Command-line surface: decompose, apply, bench, analyze, quantize.

Exit codes: 0 success, 2 usage (each option's range is declared with it
in ``build_parser``), 3 I/O, 4 numeric failure (including an unreachable
accuracy target) or out of memory.  Every command is deterministic given
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
from .plan import (MAX_BITS, MAX_STAGES, StageSchedule, cost_of, deserialize,
                   serialize)
from .pot import binary_encode, csd_decode, csd_encode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

CLI_KINDS = {"mailman": "mailman", "two-sparse": "two-sparse",
             "self": "self-designing"}


def _usage_error(msg: str) -> SystemExit:
    print(f"usage error: {msg}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _number(name: str, parse, low=None, high=None):
    """An argparse type: ``parse(text)`` in ``[low, high]`` (unbounded above
    when ``high`` is None; positive and finite when ``low`` is too), else a
    usage error naming ``name``.  Unreadable text stays argparse's error."""
    def convert(text: str):
        value = parse(text)
        if low is None:
            inside, want = 0.0 < value < math.inf, "positive and finite"
        elif high is None:
            inside, want = value >= low, f"at least {low}"
        else:
            inside, want = low <= value <= high, f"in [{low}, {high}]"
        if not inside:
            raise _usage_error(f"{name} must be {want}")
        return value
    convert.__name__ = parse.__name__
    return convert


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


_size = _number("--shapes sizes", int, 1)


def _shape(text: str) -> tuple[int, int]:
    n, _, k = text.lower().partition("x")
    return _size(n), _size(k)


def _build_schedule(args) -> StageSchedule:
    if args.adaptive and args.bits is None:
        raise _usage_error("--adaptive needs --bits")
    if args.bits is not None and args.stages is not None:
        raise _usage_error("--stages cannot be combined with --bits")
    max_stages = 64 if args.max_stages is None else args.max_stages
    if args.adaptive:
        return StageSchedule.adaptive(args.bits, max_stages)
    if args.bits is not None:
        return StageSchedule.fixed([args.stage_sparsity], args.bits,
                                   max_stages)
    if args.stages is None:
        raise _usage_error("one of --bits or --stages is required")
    if args.max_stages is not None:
        raise _usage_error("--max-stages is used only with --bits")
    return StageSchedule.fixed([args.stage_sparsity] * args.stages)


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
    kind = CLI_KINDS[args.codebook]
    if kind != "self-designing":
        for option, value in (("--aux", args.aux), ("--seed", args.seed)):
            if value is not None:
                raise _usage_error(f"{option} is used only by --codebook "
                                   f"self")
    elif args.seed is not None and args.aux != "gaussian":
        raise _usage_error("--seed is used only with --aux gaussian")
    seed = 0 if args.seed is None else args.seed
    target = matio.load_matrix(args.matrix)
    n, k = target.shape
    codebook = make_codebook(kind, n, k, seed=seed, target=target,
                             aux=args.aux or "target",
                             stage_sparsity=args.stage_sparsity)
    plan = wiring.decompose(target, codebook, schedule,
                            metadata={"seed": seed})
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
    low, high = matio.VECTOR_EXP_MIN, matio.VECTOR_EXP_MAX
    far = sum(not low <= v.exponent <= high for v in y)
    if far:
        print(f"warning: {far} of {len(y)} outputs have an exponent outside "
              f"[{low}, {high}]: written exactly, they do not load back as "
              f"a vector", file=sys.stderr)
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
    schedules = [StageSchedule.adaptive(q, args.max_stages) if args.adaptive
                 else StageSchedule.fixed([1], q, args.max_stages)
                 for q in args.bits]
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

    for q in args.bits:
        rows.append({"shape": "baseline(binary)", "bits": q,
                     "adds_per_entry": (q - 1) / 2.0, "stderr": 0.0,
                     "samples": 0, "mean_stages": 0.0})
        rows.append({"shape": "baseline(csd)", "bits": q,
                     "adds_per_entry": (q - 1) * math.log(4.0, 28.0) + 1.0,
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


def cmd_analyze(args) -> int:
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
    if args.N is not None and args.fig != "lb":
        raise _usage_error("--N is used only by --fig lb")
    if args.fig == "asymptote":
        out.write(f"{analysis.asymptotic_threshold(args.rate)!r}\n")
    elif args.fig == "cdf":
        r = np.linspace(0.0, 1.0, args.points)
        curves = []
        for k in args.K:
            n = _rows_at(args.rate, k, "--rate")
            curves.append(analysis.angle_error_cdf(n, k, r))
        out.write("r," + ",".join(f"K{k}" for k in args.K) + "\n")
        for i, rv in enumerate(r):
            row = [f"{rv:.6g}"] + [f"{c[i]:.6g}" for c in curves]
            out.write(",".join(row) + "\n")
    elif args.fig == "lb":
        if len(args.K) > 1:
            raise _usage_error("--K takes one value with --fig lb")
        n, k = args.N or 8, args.K[0]
        s, mean, err = analysis.simulate_decomposition(
            n, k, args.stages, args.seed, args.samples)
        out.write("s,lower_bound,simulated,stderr\n")
        for i, sv in enumerate(s):
            lb = analysis.distortion_lower_bound(n, k, int(sv))
            out.write(f"{sv},{lb:.6g},{mean[i]:.6g},{err[i]:.6g}\n")
    else:
        out.write("K,rate,total_error,total_error_pow_1_over_R\n")
        for rate in args.rates:
            for k in args.K:
                n = _rows_at(rate, k, "--rates")
                eps = analysis.total_error(n, k)
                out.write(f"{k},{rate:.6g},{eps:.6g},"
                          f"{eps ** (1.0 / rate):.6g}\n")


def _rows_at(rate: float, k: int, name: str) -> int:
    """The row count ``round(log2(K) / rate)``, at least 2, of a figure
    that derives N from the rate; a usage error naming ``name`` when that
    count is infinite in float64."""
    n = math.log2(k) / rate
    if not math.isfinite(n):
        raise _usage_error(f"{name} is too small for --K {k}: the row "
                           "count log2(K)/rate overflows")
    return max(2, round(n))


def cmd_quantize(args) -> int:
    try:
        value = float(args.value)
    except ValueError:
        raise _usage_error(f"cannot parse value {args.value!r}")
    if args.mode == "binary" and args.budget < 1:
        raise _usage_error("--budget must be at least 1 with --mode binary")
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

    bits = _number("--bits", int, 1, MAX_BITS)
    max_stages = _number("--max-stages", int, 0, MAX_STAGES)
    samples = _number("--samples", int, 1)
    seed = _number("--seed", int, 0)

    d = sub.add_parser("decompose", help="fit a plan to a matrix file")
    d.add_argument("--matrix", required=True)
    d.add_argument("--codebook", choices=sorted(CLI_KINDS), default="self")
    d.add_argument("--bits", type=bits, default=None)
    d.add_argument("--stages", type=_number("--stages", int, 1, MAX_STAGES),
                   default=None)
    d.add_argument("--stage-sparsity", type=_number("--stage-sparsity", int,
                                                    0), default=1)
    d.add_argument("--adaptive", action="store_true",
                   help="single wiring stage, per-column adaptive budget")
    d.add_argument("--max-stages", type=max_stages, default=None,
                   help="with --bits: the most stages (default 64); with "
                        "--adaptive, each column's greedy step budget")
    d.add_argument("--aux", choices=["target", "gaussian"], default=None,
                   help="with --codebook self (default target)")
    d.add_argument("--seed", type=seed, default=None,
                   help="with --aux gaussian (default 0)")
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
    b.add_argument("--bits", type=_list_of(bits, "integer list"),
                   default="2,4,8,16,24")
    b.add_argument("--codebook", choices=sorted(CLI_KINDS), default="self")
    b.add_argument("--target", choices=["gaussian", "uniform"],
                   default="gaussian")
    b.add_argument("--adaptive", action="store_true")
    b.add_argument("--samples", type=samples, default=20)
    b.add_argument("--max-stages", type=max_stages, default=96)
    b.add_argument("--seed", type=seed, default=0)
    b.add_argument("--jobs", type=_number("--jobs", int, 1), default=1)
    b.add_argument("--format", choices=["csv", "md", "json"], default="csv")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)

    an = sub.add_parser("analyze", help="error-model curves as CSV")
    an.add_argument("--fig", choices=["cdf", "lb", "total", "asymptote"],
                    required=True)
    an.add_argument("--rate", type=_number("--rate", float), default=1.0)
    an.add_argument("--rates", type=_list_of(_number("--rates", float),
                                             "number list"),
                    default="0.25,0.5,1,2")
    an.add_argument("--N", type=_number("--N", int, 2), default=None,
                    help="rows of --fig lb (default 8)")
    an.add_argument("--K", type=_list_of(_number("--K", int, 1),
                                         "integer list"), default="256")
    an.add_argument("--points", type=_number("--points", int, 1), default=201)
    an.add_argument("--stages", type=_number("--stages", int, 0), default=20)
    an.add_argument("--samples", type=samples, default=20)
    an.add_argument("--seed", type=seed, default=0)
    an.add_argument("--out", default=None)
    an.set_defaults(func=cmd_analyze)

    q = sub.add_parser("quantize", help="show a scalar's digit form")
    q.add_argument("value")
    q.add_argument("--mode", choices=["binary", "csd"], default="csd")
    q.add_argument("--budget", type=_number("--budget", int, 0), default=2)
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
    except MemoryError as exc:  # numpy's names the size; Python's is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
