"""Problem files, seeded random SPD matrices, and deterministic serialization.

Problem files are a small JSON document with an explicit schema version,
dense row-major matrices, and weights; they are meant to be written by hand
as fixtures and diffed as golden files.  Serialization is canonical: fixed
key order, floats at 17 significant digits, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
import zlib
from collections.abc import Generator

import numpy as np

from .barycenter import MeanProblem, WeightVector
from .spd_core import SPD_ADMISSION, NotPositiveDefiniteError, SpdMatrix, _admitted, _is_integer, _is_real
from .spd_core import _lockstep, _solved, _symmetrized

SCHEMA_VERSION = 1


class ProblemFileError(ValueError):
    """Problem text failed to parse; the message locates the offending field."""


def format_float(x: float) -> str:
    """Fixed significant-digit rendering; 17 digits round-trips any double."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    out = format(float(x), ".17g")
    # normalize "-0" so that equal values serialize identically
    return "0" if out == "-0" else out


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON writer: sorted keys, floats via format_float."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(
                f'{pad}  {json.dumps(key)}: {dumps_canonical(obj[key], indent + 2)}'
            )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rendered = [dumps_canonical(v, indent + 2) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(rendered) + "]"
        return (
            "[\n"
            + ",\n".join(f"{pad}  {r}" for r in rendered)
            + f"\n{pad}]"
        )
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _not_a_number(value) -> bool:
    """Whether a JSON scalar is a string or a boolean, which numpy would
    convert to a float ("1" and true both read as 1.0) but a problem file
    must spell as a number."""
    return isinstance(value, (str, bool))


def parse_problem(text: str) -> MeanProblem:
    """Parse a problem document; every failure carries an index and reason."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("top level must be an object")
    version = doc.get("schema_version")
    if _not_a_number(version) or version != SCHEMA_VERSION:
        raise ProblemFileError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    weights_raw = doc.get("weights")
    matrices_raw = doc.get("matrices")
    if not isinstance(matrices_raw, list) or len(matrices_raw) == 0:
        raise ProblemFileError("n >= 1 required: 'matrices' must be a nonempty list")
    if not isinstance(weights_raw, list):
        raise ProblemFileError("'weights' must be a list of positive numbers")
    if len(weights_raw) != len(matrices_raw):
        raise ProblemFileError(
            f"{len(weights_raw)} weights for {len(matrices_raw)} matrices"
        )
    bad = next((w for w in weights_raw if _not_a_number(w)), None)
    if bad is not None:
        raise ProblemFileError(f"bad weights: {bad!r} is not a number")
    try:
        weights = WeightVector(np.array(weights_raw, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"bad weights: {exc}") from exc
    # The first failure in index order is raised, so matrix 0's dimension
    # matters only when it is a square grid, whose length that dimension is.
    first = matrices_raw[0]
    dim = len(first) if isinstance(first, list) else None
    runs = [_admitted_grid(idx, grid, dim if idx else None) for idx, grid in enumerate(matrices_raw)]
    return MeanProblem(tuple(map(_solved, _lockstep(runs))), weights)


def _admitted_grid(idx: int, grid, dim: int | None) -> Generator:
    """Run step: matrix ``idx`` of a problem document as an SpdMatrix; a
    ProblemFileError unless it is a positive definite grid of dimension ``dim``."""
    try:
        arr = np.array(grid, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"matrix {idx}: not a numeric grid ({exc})") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ProblemFileError(f"matrix {idx}: not square, shape {arr.shape}")
    # a 2-D grid is a list of rows of scalars
    bad = next((v for row in grid for v in row if _not_a_number(v)), None)
    if bad is not None:
        raise ProblemFileError(f"matrix {idx}: not a numeric grid ({bad!r} is not a number)")
    if dim is not None and arr.shape[0] != dim:
        raise ProblemFileError(f"matrix {idx}: dimension {arr.shape[0]} does not match matrix 0 ({dim})")
    try:
        (matrix,) = yield from _admitted([_symmetrized(arr)])
    except NotPositiveDefiniteError as exc:
        raise ProblemFileError(
            f"matrix {idx}: not positive definite (lambda_min={exc.lambda_min:.6e})"
        ) from exc
    except ValueError as exc:
        raise ProblemFileError(f"matrix {idx}: {exc}") from exc
    return matrix


def serialize_problem(p: MeanProblem) -> str:
    """Canonical text for a problem; parse(serialize(p)) reproduces p exactly."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "weights": [float(w) for w in p.weights.values],
        "matrices": [[[float(v) for v in row] for row in a.entries] for a in p.matrices],
    }
    return dumps_canonical(doc) + "\n"


def derive_seed(root_seed: int, stream: str, index: int) -> int:
    """Stable 64-bit per-instance seed from (suite seed, stream name, index).

    Uses the splittable SeedSequence hash, so instances are independent and
    any single one can be reproduced from its recorded seed alone.
    """
    stream_tag = zlib.crc32(stream.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=[int(root_seed), stream_tag, int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish orthogonal factor: QR of a Gaussian grid with a sign fix."""
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def spd_array_from_rng(rng: np.random.Generator, dim: int, condition_max: float = 100.0) -> np.ndarray:
    """Random SPD draw, as the array ``spd_from_rng`` admits: eigenvalues
    log-uniform in [1/sqrt(k), sqrt(k)], k at most 1 / SPD_ADMISSION, and
    orthogonal factor from a seeded Gaussian QR, symmetrized (M + M^T)/2."""
    if not _is_integer(dim) or dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
    if not (_is_real(condition_max) and 1.0 <= condition_max <= 1.0 / SPD_ADMISSION):
        raise ValueError(f"condition_max must be a real number in [1, {1.0 / SPD_ADMISSION:.0e}], got {condition_max!r}")
    half_log = 0.5 * math.log(condition_max)
    lam = np.exp(rng.uniform(-half_log, half_log, size=dim))
    q = random_orthogonal(rng, dim)
    return _symmetrized((q * lam) @ q.T)


def spd_from_rng(rng: np.random.Generator, dim: int, condition_max: float = 100.0) -> SpdMatrix:
    """``spd_array_from_rng`` admitted as an SpdMatrix."""
    return SpdMatrix(spd_array_from_rng(rng, dim, condition_max))


def random_spd(seed: int, dim: int, condition_max: float = 100.0) -> SpdMatrix:
    """Deterministic SPD matrix for a non-negative integer seed (same seed, same matrix)."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return spd_from_rng(np.random.default_rng(seed), dim, condition_max)
