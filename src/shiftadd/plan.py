"""Decomposition plans: data model, reconstruction, cost and distortion.

A plan records a codebook descriptor and the wiring stages in design order
``W_1 ... W_L``; evaluation applies them in reverse, so the reconstructed
matrix is ``B @ W_1 @ ... @ W_L``.  Stages and stored codebook factors are
``Pow2Matrix`` integer arrays; the file keeps them as nested lists, which
``serialize`` writes straight from the arrays (``Pow2Matrix.to_json``).
``deserialize`` reads the stages straight back into arrays, one at a
time, when they are spelled as ``serialize`` writes them
(``Pow2Matrix.from_json``), and through ``json`` otherwise, as it reads
the codebook's factors.  The
factors and the stages form one chain (``DecompositionPlan.chain``) that
one builder, ``pow2matrix.schedule``, turns into steps on one store of
wires, each wire at a static binary point, and one runner,
``pow2matrix.serve``, runs while it drops the wires below the lowest
position that anything later reads: exact reconstruction by columns,
forward, and the engine by rows, last to first.
Reconstruction verifies a plan exactly: it starts every codebook from
its ``[I 0]`` selector and carries every row as a lane of one Python int
per column (SIMD within a register), so each entry of the chain costs one
big-integer operation for all rows at once.

Cost accounting walks the same chain with one convention everywhere:
combining the ``m`` terms a column selects costs ``m - 1`` additions, one
shift per nonzero.  For a wiring stage with ``1 + s`` nonzeros per column
that is ``s * K`` additions; a mailman codebook costs ``2**N - N - 1``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .codebooks import CodebookDescriptor, integer_field
from .errors import DimensionError, PlanFormatError, PlanVersionError
from .pow2matrix import UNWRITTEN, Pow2Matrix, Schedule, schedule, serve

PLAN_FORMAT = "shiftadd-plan"
PLAN_VERSION = 1

FIXED_STAGES = "fixed-stages"
ADAPTIVE_SINGLE_STAGE = "adaptive-single-stage"

# The widest bit width whose threshold is a positive float64; a wider one
# would ask for a relative error of exactly 0.
MAX_BITS = 537

# The most stages a schedule may list or run.  A 16-bit Table-1 design takes
# 28, so one at MAX_BITS would take about 940 at that rate; the bound keeps
# a mistyped count from asking for a list of billions of sparsities.
MAX_STAGES = 4096


# ---------------------------------------------------------------------------
# schedules and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageSchedule:
    """How many wiring stages to fit and how sparse each one is.

    ``fixed-stages`` runs the listed per-stage sparsities; when
    ``target_bits`` is also set the list is extended by repeating its last
    entry until the accuracy of that bit width is reached.
    ``adaptive-single-stage`` fits one wiring matrix whose per-column term
    count grows until each column meets the bit-width threshold.
    """

    mode: str = FIXED_STAGES
    sparsity: tuple[int, ...] = (1,)
    target_bits: int | None = None
    max_stages: int = 64

    def __post_init__(self):
        if self.mode not in (FIXED_STAGES, ADAPTIVE_SINGLE_STAGE):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == FIXED_STAGES and not self.sparsity:
            raise ValueError("fixed-stages schedule needs a sparsity list")
        if self.mode == ADAPTIVE_SINGLE_STAGE and self.target_bits is None:
            raise ValueError("adaptive schedule needs target_bits")
        if self.mode == ADAPTIVE_SINGLE_STAGE and self.sparsity:
            raise ValueError("adaptive schedule takes no per-stage sparsity")
        if len(self.sparsity) > MAX_STAGES:
            raise ValueError(f"per-stage sparsity lists at most {MAX_STAGES} "
                             f"stages")
        # stored as Python ints: a float would fail deep in the fit, and a
        # numpy integer would not serialize
        checked = {
            "sparsity": tuple(_integer("per-stage sparsity", s, 0)
                              for s in self.sparsity),
            "target_bits": None if self.target_bits is None else
            _integer("target_bits", self.target_bits, 1, MAX_BITS),
            "max_stages": _integer("max_stages", self.max_stages, 0,
                                   MAX_STAGES)}
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @classmethod
    def fixed(cls, sparsity, target_bits=None, max_stages=64):
        return cls(FIXED_STAGES, tuple(sparsity), target_bits, max_stages)

    @classmethod
    def adaptive(cls, target_bits, max_stages=64):
        return cls(ADAPTIVE_SINGLE_STAGE, (), target_bits, max_stages)

    def to_dict(self) -> dict:
        return {"mode": self.mode, "sparsity": list(self.sparsity),
                "target_bits": self.target_bits,
                "max_stages": self.max_stages}


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a Python int in ``[low, high]``; ``TypeError`` for a
    non-integer, ``ValueError`` out of range, both naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") \
            from None
    if value < low or (high is not None and value > high):
        raise ValueError(f"{name} must be in [{low}, "
                         f"{'inf' if high is None else high}]")
    return value


@dataclass(frozen=True)
class CostReport:
    """Operation counts of one plan application."""

    additions: int
    shifts: int
    sign_changes: int
    adds_per_entry: float
    per_stage: tuple[int, ...]

    @classmethod
    def over_chain(cls, plan: "DecompositionPlan", counts) -> "CostReport":
        """The report of the ``(additions, shifts, sign_changes)`` of each
        matrix of ``plan.chain``, in order; ``per_stage`` is the stages'
        share of the additions."""
        additions, shifts, signs = map(sum, zip(*counts))
        per_stage = tuple(c[0] for c in counts[len(plan.codebook.chain):])
        return cls(additions, shifts, signs,
                   additions / (plan.n_rows * plan.n_cols), per_stage)


@dataclass(frozen=True)
class DistortionReport:
    """Relative squared error of a reconstruction against its target."""

    rel_error: float
    per_column: tuple[float, ...]
    db: float
    achieved_bits: float


def threshold(q: int) -> float:
    """Relative squared error of q-bit signed fixed point: ``4**-(q-1) / 3``.

    One bit is the sign, the remaining ``q - 1`` carry magnitude;
    ``q = 16`` gives roughly -95 dB.  ``q`` must be an integer in ``[1,
    MAX_BITS]``.
    """
    q = _integer("q", q, 1, MAX_BITS)
    return 4.0 ** (-(q - 1)) / 3.0


def achieved_bits(rel_error: float) -> float:
    """Largest bit width whose threshold the error meets (0 if none)."""
    if not rel_error >= 0:  # also refuses NaN
        raise ValueError(f"relative error must be >= 0, got {rel_error!r}")
    if rel_error == 0.0:
        return math.inf
    if rel_error > threshold(1):
        return 0.0
    q = min(MAX_BITS, max(1, math.floor(
        1.0 - math.log(3.0 * rel_error) / math.log(4.0))))
    while threshold(q) < rel_error:
        q -= 1
    while q < MAX_BITS and threshold(q + 1) >= rel_error:
        q += 1
    return float(q)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionPlan:
    n_rows: int
    n_cols: int
    codebook: CodebookDescriptor
    stages: tuple[Pow2Matrix, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.codebook.n_rows != self.n_rows or \
                self.codebook.n_cols != self.n_cols:
            raise DimensionError("codebook shape does not match the plan")
        for idx, stage in enumerate(self.stages):
            if stage.rows != self.n_cols or stage.cols != self.n_cols:
                raise DimensionError(
                    f"stage {idx} must be {self.n_cols}x{self.n_cols}, got "
                    f"{stage.rows}x{stage.cols}")

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def chain(self) -> tuple[Pow2Matrix, ...]:
        """The plan's power-of-two matrices in design order: the codebook's
        factors (``CodebookDescriptor.chain``), then the stages.  Led by
        the codebook's ``[I 0]`` selector, their product is the
        reconstruction."""
        return self.codebook.chain + self.stages

    @functools.cached_property
    def schedule(self) -> Schedule:
        """The engine's executable form of ``chain``: each matrix summed by
        rows, last to first (``pow2matrix.schedule``), on one store of
        wires, from input wires at point 0 (a wire's ``bits`` is its
        growth over the inputs' widest integer).  Built from the stored
        arrays on first use and kept with the plan, its one cache."""
        zeros = np.zeros(self.n_cols, dtype=np.int64)
        return schedule(reversed(self.chain), zeros, zeros, "rows")


def target_digest(target: np.ndarray) -> str:
    a = np.ascontiguousarray(target, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def reconstruct_exact(plan: DecompositionPlan) -> list[list[tuple[int, int]]]:
    """Exact dyadic reconstruction, one ``(mantissa, exponent)`` per entry.

    Pushes the ``n_rows`` rows of the codebook's ``[I 0]`` selector forward
    through the plan's matrix chain (``DecompositionPlan.chain``), in
    integer arithmetic with one static binary point per column.  The rows
    travel packed: row ``i`` is lane ``i`` of one Python int per column,
    ``H_j = sum_i v_ij * 2**(w*i)``, and ``pow2matrix.serve`` runs the
    chain as ``pow2matrix.schedule`` sums it by columns from the selector's
    columns
    (point 0 and 1 bit, the others unwritten): per matrix, gather each
    entry's row, shift the entries above their column's point, negate the
    negative entries, sum each nonempty column that is not an alias, and
    drop the wires below the lowest position a later matrix reads.  Every step is linear, so it acts
    on each lane alone.  The lane width ``w`` is static: the widest bound
    the schedule gives a final column, plus a sign bit and a bias bit,
    rounded up to whole bytes.  Each column is unpacked once: a bias of
    ``2**(w-1)`` per lane makes every lane nonnegative, one ``to_bytes``
    writes them all, and ``int.from_bytes`` reads each back.  Every entry
    is returned over the one exponent the chain's per-matrix smallest
    exponents sum to, which no point is below: its mantissa is shifted left
    by the difference from its column's point.  Returned as a list of
    ``n_cols`` columns of length ``n_rows``, zeros as ``(0, 0)``.
    """
    n, chain = plan.n_rows, plan.chain
    selected = np.arange(chain[0].rows) < n
    sched = schedule(chain, np.where(selected, 0, UNWRITTEN), selected,
                     "columns")
    lane = -(-(int(sched.steps[-1].bits.max()) + 2) // 8)
    w = 8 * lane  # lane width in bits, whole bytes
    h, point = serve([1 << (w * i) for i in range(n)]
                     + [0] * (len(selected) - n), sched)
    low = sum(int(m.exp.min()) for m in chain if m.nnz)
    half, size = 1 << (w - 1), lane * n
    bias = int.from_bytes(half.to_bytes(lane, "little") * n, "little")
    out = []
    for p, d in zip(h.tolist(),
                    np.where(point == UNWRITTEN, 0, point - low).tolist()):
        data = (p + bias).to_bytes(size, "little")
        lanes = [int.from_bytes(data[b:b + lane], "little") - half
                 for b in range(0, size, lane)]
        out.append([(m << d, low) if m else (0, 0) for m in lanes])
    return out


def reconstruct(plan: DecompositionPlan) -> np.ndarray:
    """``B @ W_1 @ ... @ W_L`` evaluated exactly, then rounded once per
    entry to float64 as ``Dyadic.to_float`` rounds it, without building a
    ``Dyadic``: ``float(m)`` scaled by ``2**e`` when ``e >= 0``, else the
    correctly rounded true division ``m / 2**-e``."""
    out = np.empty((plan.n_rows, plan.n_cols))
    for k, col in enumerate(reconstruct_exact(plan)):
        out[:, k] = [math.ldexp(float(m), e) if e >= 0 else m / (1 << -e)
                     for m, e in col]
    return out


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def cost_of(plan: DecompositionPlan) -> CostReport:
    """Structural operation counts of applying the plan to one vector: each
    matrix of the chain by its ``op_counts``."""
    return CostReport.over_chain(plan, [m.op_counts() for m in plan.chain])


def distortion(plan: DecompositionPlan,
               target: np.ndarray) -> DistortionReport:
    """Relative Frobenius error of the plan's exact reconstruction against
    ``target``."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (plan.n_rows, plan.n_cols):
        raise DimensionError(
            f"target shape {target.shape} does not match plan "
            f"{(plan.n_rows, plan.n_cols)}")
    check_target(target)
    return distortion_of_matrix(reconstruct(plan), target)


def check_target(target: np.ndarray) -> float:
    """Refuse a target that cannot be scored: NaN or infinite entries, or
    a squared norm that overflows float64.  Returns that squared norm."""
    if not np.isfinite(target).all():
        raise ValueError("target holds NaN or infinite entries")
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(target * target))
    if not math.isfinite(norm_sq):
        raise ValueError("the target's squared norm overflows float64; "
                         "rescale the target by a power of two")
    return norm_sq


def distortion_of_matrix(approx: np.ndarray,
                         target: np.ndarray) -> DistortionReport:
    diff = target - approx
    err_cols = np.sum(diff * diff, axis=0)
    norm_cols = np.sum(target * target, axis=0)
    total_err = float(np.sum(err_cols))
    total_norm = float(np.sum(norm_cols))
    rel = total_err / total_norm if total_norm > 0 else \
        (0.0 if total_err == 0.0 else math.inf)
    per_col = tuple(
        (e / n) if n > 0 else (0.0 if e == 0.0 else math.inf)
        for e, n in zip(err_cols, norm_cols))
    db = 10.0 * math.log10(rel) if rel > 0 else -math.inf
    return DistortionReport(rel, per_col, db, achieved_bits(rel))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def plan_to_dict(plan: DecompositionPlan,
                 records=Pow2Matrix.to_records) -> dict:
    """The plan document; ``records`` writes each stage and stored codebook
    factor."""
    return {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "rows": plan.n_rows,
        "cols": plan.n_cols,
        "codebook": plan.codebook.to_dict(records),
        "stages": [records(s) for s in plan.stages],
        "metadata": plan.metadata,
    }


def plan_from_dict(d: dict) -> DecompositionPlan:
    """The plan of the document ``d``, as ``json.loads`` reads a plan file;
    ``d["stages"]`` holds each stage's records, or the stages themselves
    once ``deserialize`` has read them from their text."""
    try:
        fmt = d["format"]
        version = d["version"]
    except (KeyError, TypeError) as exc:
        raise PlanFormatError(f"missing plan header field: {exc}") from exc
    if fmt != PLAN_FORMAT:
        raise PlanFormatError(f"not a plan document (format {fmt!r})")
    if isinstance(version, bool) or version != PLAN_VERSION:
        raise PlanVersionError(
            f"unsupported plan version {version!r}, expected {PLAN_VERSION}")
    try:
        rows, cols = (integer_field(k, d[k]) for k in ("rows", "cols"))
        codebook = CodebookDescriptor.from_dict(d["codebook"])
        stages = tuple(rec if isinstance(rec, Pow2Matrix) else
                       Pow2Matrix.from_records(cols, rec)
                       for rec in d["stages"])
        metadata = d.get("metadata", {})
        if not isinstance(metadata, dict):
            raise PlanFormatError("plan metadata must be a JSON object")
        return DecompositionPlan(rows, cols, codebook, stages, metadata)
    except PlanFormatError:
        raise
    except Exception as exc:
        raise PlanFormatError(f"malformed plan document: {exc}") from exc


class _Text(list):
    """Pieces of JSON text already written, which ``_object`` places as
    they are."""


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _enclose(opening: str, items, closing: str) -> _Text:
    """The pieces of ``items`` (each a list of pieces), comma-separated
    between ``opening`` and ``closing``."""
    out = _Text([opening])
    for i, pieces in enumerate(items):
        if i:
            out.append(",")
        out += pieces
    out.append(closing)
    return out


def _object(fields: dict) -> _Text:
    """``fields`` as ``_json`` writes a JSON object, keys sorted, with each
    ``_Text`` value's pieces placed as they are."""
    return _enclose("{", ([_json(k), ":",
                           *(v if isinstance(v, _Text) else [_json(v)])]
                          for k, v in sorted(fields.items())), "}")


def _array(texts: list) -> _Text:
    return _enclose("[", ([t] for t in texts), "]")


def serialize(plan: DecompositionPlan) -> bytes:
    """The plan file: byte for byte ``_json(plan_to_dict(plan))``.

    Every matrix is written straight from its arrays by
    ``Pow2Matrix.to_json``; the document is a list of pieces, those texts
    among them, so one join copies each into the document's text, which
    is then encoded.
    """
    doc = plan_to_dict(plan, records=Pow2Matrix.to_json)
    cb = doc["codebook"]
    if "factors" in cb:
        cb["factors"] = _array(cb["factors"])
    doc["codebook"] = _object(cb)
    doc["stages"] = _array(doc["stages"])
    return "".join(_object(doc)).encode()


def deserialize(data: bytes | bytearray) -> DecompositionPlan:
    """The plan that ``serialize`` wrote as ``data``, UTF-8 JSON bytes.

    Any other type of ``data`` is a ``TypeError`` naming it; bytes that
    are not a valid plan document are a ``PlanFormatError`` (a
    ``PlanVersionError`` for an unknown version).  A document in
    ``serialize``'s spelling is read by ``_read``, its stages straight
    into their arrays; any other spelling of valid JSON is read by
    ``json.loads``, as are the errors of a document that is not valid
    JSON.  The cyclic garbage collector is paused while the document is
    parsed and built: ``json`` makes one acyclic list per stored entry it
    reads (about 92k for a 16x1024 Table-1 plan read by ``json.loads``),
    and each allocation threshold it crosses would start a collection that
    walks them all and frees nothing.  The collector is enabled again on
    return only if it was enabled on entry.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"a plan is read from bytes or bytearray, got "
                        f"{type(data).__name__}")
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = data.decode()
        d = _read(text)
        if d is None:
            d = json.loads(text)
        if not isinstance(d, dict):
            raise PlanFormatError("plan document must be a JSON object")
        return plan_from_dict(d)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PlanFormatError(f"malformed plan document: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


_DECODER = json.JSONDecoder()


def _read(text: str) -> dict | None:
    """The plan document ``text`` as ``json.loads`` reads it, if it is
    spelled as ``serialize`` writes it, else ``None``.

    The top-level object is read one key at a time by the json module's
    own scanner (``JSONDecoder.raw_decode``), with nothing between its
    tokens.  A ``stages`` array that follows an integer ``cols`` is read
    into a tuple of matrices by ``_stages``; if that fails, the whole array
    is read by the scanner into records, as every other value is.  Stages
    read with another ``cols`` than the document's last are not kept: the
    document is then ``None``.
    """
    if not text.startswith("{"):
        return None
    d, i, stages_cols = {}, 1, None
    try:
        while True:
            key, i = _DECODER.raw_decode(text, i)
            if not (isinstance(key, str) and text.startswith(":", i)):
                return None
            cols = d.get("cols")
            stages = _stages(text, i + 1, cols) \
                if key == "stages" and type(cols) is int else None
            if stages is None:
                d[key], i = _DECODER.raw_decode(text, i + 1)
            else:
                d[key], i = stages
                stages_cols = cols
            if text.startswith("}", i):
                break
            if not text.startswith(",", i):
                return None
            i += 1
    except json.JSONDecodeError:
        return None
    if i + 1 != len(text) or (isinstance(d.get("stages"), tuple)
                              and d["cols"] != stages_cols):
        return None
    return d


def _stages(text: str, i: int, rows: int):
    """The stages array at ``text[i]``, each matrix read by
    ``Pow2Matrix.from_json`` with ``rows`` rows, as a tuple and the index
    after the array; ``None`` if any matrix is spelled otherwise.

    In ``to_json``'s spelling a matrix ends at its first ``]]]`` (its last
    column closed by its last entry) or ``[]]`` (its last column empty),
    neither of which occurs inside it, and the array's closing bracket
    puts a ``]]]`` after the last matrix either way.  The next ``]]]`` is
    kept while it lies ahead and bounds the search for ``[]]``, so that
    each byte is searched once for each.
    """
    if text.startswith("[]", i):
        return (), i + 2
    if not text.startswith("[", i):
        return None
    mats, close = [], -1
    while True:
        i += 1
        if close < i:
            close = text.find("]]]", i)
            if close < 0:
                return None
        empty = text.find("[]]", i, close + 3)
        end = (close if empty < 0 else empty) + 3
        mat = Pow2Matrix.from_json(rows, text[i:end])
        if mat is None:
            return None
        mats.append(mat)
        if text.startswith("]", end):
            return tuple(mats), end + 1
        if not text.startswith(",", end):
            return None
        i = end
