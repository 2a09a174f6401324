"""Matrix and vector files.

Matrices travel as plain CSV (one row per line, decimal floats) or as raw
little-endian float64 with a 16-byte header ``{magic, rows, cols}``.
Vectors for the exact engine are CSV with either one decimal per line
(which must have a power-of-two denominator, e.g. ``0.375``) or two integer
columns ``mantissa,exponent``; outputs add a third, rounded decimal column.
Every entry's exponent, with the mantissa made odd, must lie in
``[VECTOR_EXP_MIN, VECTOR_EXP_MAX]``, the range of float64 values: the
engine's exact additions otherwise build integers as wide as the exponent.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from fractions import Fraction

import numpy as np

from .errors import MatrixFormatError
from .pot import Dyadic

MATRIX_MAGIC = b"SApw2mat"
VECTOR_EXP_MIN = -1074
VECTOR_EXP_MAX = 1023
_HEADER = struct.Struct("<8sII")


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    np.savetxt(path, np.asarray(matrix, dtype=np.float64),
               delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.simplefilter("ignore", UserWarning)
            mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError):
            raise
        raise MatrixFormatError(f"cannot parse matrix CSV {path}: {exc}") \
            from exc
    if mat.size == 0:
        raise MatrixFormatError(f"matrix file {path} is empty")
    return mat


def save_matrix_bin(path, matrix: np.ndarray) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MATRIX_MAGIC, mat.shape[0], mat.shape[1]))
        fh.write(mat.tobytes())


def load_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise MatrixFormatError(f"matrix file {path} is truncated")
        magic, rows, cols = _HEADER.unpack(head)
        if magic != MATRIX_MAGIC:
            raise MatrixFormatError(
                f"matrix file {path} has bad magic {magic!r}")
        if rows * cols == 0:
            raise MatrixFormatError(f"matrix file {path} is empty")
        # checked against the file size before reading: the header alone
        # could ask for an exabyte
        if 8 * rows * cols > os.fstat(fh.fileno()).st_size - _HEADER.size:
            raise MatrixFormatError(f"matrix file {path} is truncated")
        body = fh.read(8 * rows * cols)
    return np.frombuffer(body, dtype="<f8").reshape(rows, cols).copy()


def load_matrix(path) -> np.ndarray:
    """Binary when the magic matches, CSV otherwise."""
    with open(path, "rb") as fh:
        head = fh.read(len(MATRIX_MAGIC))
    if head == MATRIX_MAGIC:
        return load_matrix_bin(path)
    return load_matrix_csv(path)


def parse_exact_decimal(text: str) -> Dyadic:
    """Parse a decimal literal that is exactly a dyadic (denominator 2**k).

    A decimal exponent ``E`` is bounded before ``Fraction`` builds
    ``10**|E|``: an in-range dyadic has ``E <= VECTOR_EXP_MAX``, and
    ``5**-E`` must divide its digits.
    """
    digits, _, e10 = text.lower().partition("e")
    if e10.lstrip("+-").isdecimal() and \
            not -2 * len(digits) <= int(e10) <= VECTOR_EXP_MAX:
        raise MatrixFormatError(f"exponent of {text!r} is out of range")
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixFormatError(f"cannot parse number {text!r}") from exc
    d = f.denominator
    if d & (d - 1):
        raise MatrixFormatError(
            f"{text!r} is not exactly representable; use mantissa,exponent")
    return Dyadic.from_fraction(f)


def load_vector(path) -> list[Dyadic]:
    """Exact dyadic vector from CSV or from the raw binary matrix format
    (a one-row or one-column matrix; float64 values are exact dyadics)."""
    with open(path, "rb") as fh:
        head = fh.read(len(MATRIX_MAGIC))
    if head == MATRIX_MAGIC:
        mat = load_matrix_bin(path)
        if 1 not in mat.shape:
            raise MatrixFormatError(
                f"vector file {path} holds a {mat.shape} matrix")
        if not np.isfinite(mat).all():
            raise MatrixFormatError(
                f"vector file {path} holds NaN or infinite entries")
        return [Dyadic.from_float(float(v)) for v in mat.ravel()]
    out = []
    # undecodable bytes become U+FFFD, which no entry parses
    with open(path, errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",") if p.strip()]
            try:
                if len(parts) == 1:
                    v = parse_exact_decimal(parts[0])
                elif len(parts) >= 2:
                    v = Dyadic(int(parts[0]), int(parts[1]))
                else:
                    raise MatrixFormatError("empty record")
                if not VECTOR_EXP_MIN <= v.exponent <= VECTOR_EXP_MAX:
                    raise MatrixFormatError(
                        f"exponent {v.exponent} outside [{VECTOR_EXP_MIN}, "
                        f"{VECTOR_EXP_MAX}], the range of float64 values")
                out.append(v)
            except (ValueError, MatrixFormatError) as exc:
                raise MatrixFormatError(
                    f"{path}:{line_no}: bad vector entry {line!r}: {exc}") \
                    from exc
    if not out:
        raise MatrixFormatError(f"vector file {path} is empty")
    return out


def vector_line(v: Dyadic) -> str:
    """``mantissa,exponent,decimal`` of ``v``: the decimal is ``v`` rounded
    to nearest float64, ``inf`` or ``-inf`` beyond its range, where
    ``Dyadic.to_float`` raises (``load_vector`` reads the first two)."""
    try:
        rounded = v.to_float()
    except OverflowError:
        rounded = math.copysign(math.inf, v.mantissa)
    return f"{v.mantissa},{v.exponent},{rounded!r}"


def save_vector(path, values: list[Dyadic]) -> None:
    with open(path, "w") as fh:
        fh.write("# mantissa,exponent,decimal\n")
        for v in values:
            fh.write(vector_line(v) + "\n")
