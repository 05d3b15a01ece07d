"""Dense symmetric linear algebra on top of a cyclic Jacobi eigensolver.

Everything downstream (two-matrix means, barycenters, limit experiments) is
spectral: square roots, logarithms, powers and Loewner comparisons are all
obtained by diagonalising with the same solver, so this module is the single
source of numerical truth for the package.  The one factorization besides it
is a hand-written, stacked Cholesky, which the barycenter loops use in place
of the iterate's square root.  Matrices are small and dense (desk scale, dims
up to a few dozen); no attempt is made to compete with LAPACK.

A small solve costs mostly per-round Python and dispatch, so solves are
batched: ``_lockstep`` drives run steps (generators) together.  Jacobi ends
a round, one stack per dimension; the cheaper kernels resolve within it.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

# Jacobi sweep budget and convergence target (fraction of the input Frobenius
# norm left in the off-diagonal part).
SWEEP_LIMIT = 64
OFFDIAG_TARGET = 1e-14

# Admission threshold for positive definiteness: lambda_min > threshold * lambda_max.
# Below this the matrix is treated as numerically singular and rejected rather
# than silently regularized.
SPD_ADMISSION = 1e-12

# The scalar function of each ``apply_spectral`` tag, on a spectrum lam and exponent p.
SPECTRAL_FUNCTIONS = {
    "sqrt": lambda lam, p: np.sqrt(lam),
    "inv_sqrt": lambda lam, p: 1.0 / np.sqrt(lam),
    "log": lambda lam, p: np.log(lam),
    "exp_of_sym": lambda lam, p: np.exp(lam),
    "power": lambda lam, p: lam ** float(p),
    "inverse": lambda lam, p: 1.0 / lam,
}


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number (a bool is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class SolverError(Exception):
    """Iteration produced a non-SPD intermediate or was asked not to tolerate
    non-convergence."""


class LinearAlgebraError(Exception):
    """Base class for numerical failures raised by this package."""


class EighConvergenceError(LinearAlgebraError):
    """Jacobi sweeps exhausted before the off-diagonal mass reached target."""

    def __init__(self, off_diagonal: float, sweeps: int):
        self.off_diagonal = off_diagonal
        self.sweeps = sweeps
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off_diagonal:.3e})"
        )


class NotPositiveDefiniteError(LinearAlgebraError):
    """Matrix failed the positive definiteness admission check."""

    def __init__(self, lambda_min: float, lambda_max: float):
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        super().__init__(
            f"matrix is not positive definite: lambda_min={lambda_min:.6e}, "
            f"lambda_max={lambda_max:.6e}"
        )


class SpectralDomainError(LinearAlgebraError):
    """Scalar function applied to an eigenvalue outside its domain."""


class NumericalBreakdownError(LinearAlgebraError):
    """A quantity left its mathematically guaranteed range by more than roundoff."""


class NonPositivePivotError(LinearAlgebraError):
    """Cholesky factorization met a pivot that is not positive and finite."""

    def __init__(self, index: int, pivot: float):
        self.index = index
        self.pivot = pivot
        super().__init__(f"Cholesky pivot {index} is {pivot:.6e}, not positive and finite")


def _symmetrized(entries) -> np.ndarray:
    """(M + M^T)/2 of a nonempty square array, required finite after
    symmetrizing, so finite entries whose sum overflows are rejected too."""
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (m + m.T) / 2.0
    if not np.isfinite(sym).all():
        if np.isfinite(m).all():
            raise ValueError("symmetrization (M + M^T)/2 overflows")
        raise ValueError("matrix entries must be finite")
    return sym


class SymMatrix:
    """Real symmetric matrix.  Construction symmetrizes ((M + M^T)/2) and freezes."""

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        _frozen(self, _entries=_symmetrized(entries))

    @property
    def entries(self) -> np.ndarray:
        """Read-only (dim, dim) float array, exactly symmetric."""
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._entries.tolist()!r})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthogonal factor and descending eigenvalues of a symmetric matrix.

    ``q`` holds eigenvectors in its columns; ``lam`` is sorted so that
    ``lam[0]`` is the largest eigenvalue (the spectral radius for SPD input).
    """

    q: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or lam.shape != (q.shape[0],):
            raise ValueError("inconsistent eigendecomposition shapes")
        if q.size == 0:
            raise ValueError("an eigendecomposition must have at least one eigenvalue")
        if not (np.isfinite(q).all() and np.isfinite(lam).all()):
            raise ValueError("eigendecomposition entries must be finite")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        _frozen(self, q=q.copy(), lam=lam.copy())

    def recompose(self) -> np.ndarray:
        """Q diag(lam) Q^T as a raw array; ``SymMatrix`` symmetrizes it."""
        return (self.q * self.lam) @ self.q.T


class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix with its eigendecomposition cached.

    Construction runs the eigensolver once and fails (rather than
    regularizing) when lambda_min <= SPD_ADMISSION * lambda_max.
    """

    __slots__ = ("_eigen",)

    def __init__(self, entries) -> None:
        super().__init__(entries)
        self._eigen = _jacobi(self.entries)
        _admit(self._eigen.lam)

    @property
    def eigen(self) -> EigenDecomposition:
        return self._eigen


def _admit(lam: np.ndarray) -> None:
    """Raise NotPositiveDefiniteError unless the descending spectrum ``lam``
    has lambda_min > SPD_ADMISSION * lambda_max > 0."""
    lam_max, lam_min = float(lam[0]), float(lam[-1])
    # written so that a NaN spectrum fails admission too
    if not (lam_max > 0.0 and lam_min > SPD_ADMISSION * lam_max):
        raise NotPositiveDefiniteError(lam_min, lam_max)


def _check_pair(a, b) -> None:
    """ValueError unless a and b (matrices or a mean problem) share a dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _frozen(obj, **fields):
    """``obj`` with ``fields`` set, each array marked read-only, not copied.
    The public constructors set their checked copies so.  The package's own
    matrices and decompositions (finite, symmetric entries; admitted,
    descending spectra) are built as ``_frozen(object.__new__(cls), ...)``."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def identity(dim: int) -> SpdMatrix:
    """The dim x dim identity matrix."""
    if not _is_integer(dim) or dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
    return _recompose_spd(np.eye(dim), np.ones(dim))


def eigh(a: SymMatrix) -> EigenDecomposition:
    """Eigendecomposition by cyclic Jacobi rotations.

    Deterministic for fixed input; SPD inputs return their cached
    decomposition.  Raises EighConvergenceError if the off-diagonal mass has
    not dropped below OFFDIAG_TARGET * ||a||_F after SWEEP_LIMIT + 1 sweeps.
    The solve runs on A scaled by the power of two that brings its largest
    entry into [1/2, 1), so ||A||_F can neither overflow nor underflow.
    """
    if isinstance(a, SpdMatrix):
        return a.eigen
    return _jacobi(a.entries)


@functools.cache
def _round_robin_schedule(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin ordering of the index pairs: each sweep visits every pair
    exactly once, grouped into rounds of mutually disjoint planes so a whole
    round can be applied as a single rotation matrix."""
    padded = m if m % 2 == 0 else m + 1
    players = list(range(padded))
    rounds = []
    for _ in range(padded - 1):
        ps, rs = [], []
        for i in range(padded // 2):
            a, b = players[i], players[padded - 1 - i]
            if a < m and b < m:
                ps.append(min(a, b))
                rs.append(max(a, b))
        rounds.append((np.array(ps), np.array(rs)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _rotation_params(a_pp: float, a_rr: float, a_pr: float) -> tuple[float, float]:
    """Cosine and sine of the Jacobi angle annihilating the (p, r) entry."""
    theta = (a_rr - a_pp) / (2.0 * a_pr)
    if theta == 0.0:
        t = 1.0
    elif abs(theta) > 1e150:
        t = 0.5 / theta
    else:
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c


def _rotations(
    a_pp: np.ndarray, a_rr: np.ndarray, a_pr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise cosines and sines of the Jacobi angles annihilating the
    (p, r) entries."""
    # |theta| < 2e14 d: a_pr is above the skip level 1e-14 ||w||_F / (2d) and |a_rr - a_pp| <= 2 ||w||_F
    theta = (a_rr - a_pp) / (2.0 * a_pr)
    t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
    t[theta == 0.0] = 1.0  # theta == 0 means a 45 degree rotation
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c


def scale_exponent(*arrays: np.ndarray) -> int:
    """The t for which 4^-t brings the largest entry of the arrays into
    [1/4, 1).  Scaling by 4^-t is exact, and square roots scale by 2^-t."""
    return (math.frexp(max(float(np.abs(a).max()) for a in arrays))[1] + 1) // 2


def _jacobi(matrix: np.ndarray) -> EigenDecomposition:
    """``_jacobi_stack`` on one array, raising its EighConvergenceError."""
    (q,), (lam,), (error,) = _jacobi_stack(matrix[None])
    if error is not None:
        raise error
    return _frozen(object.__new__(EigenDecomposition), q=q, lam=lam)


@functools.cache
def _eye(m: int) -> np.ndarray:
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _jacobi_stack(arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Cyclic Jacobi on each slice of a (k, d, d) stack of symmetric arrays,
    solved together.

    Every slice keeps its own prescale, target, skip level, convergence test
    at the start of each sweep and per-round set of active planes, and it
    leaves the stack once converged, so each result has the bits of that
    array solved alone.  A round rotates the remaining slices by one
    ``np.matmul`` over the stack, which calls the same per-slice product as a
    lone solve; the slices share the per-round Python and dispatch cost that
    dominates a small solve.  A lone array is solved as a 2-D array, which
    skips the stack's indexing overhead and gives the same bits.

    Returns the eigenvectors (k, d, d) and eigenvalues (k, d), each slice
    sorted largest first, and per slice None or, for a slice that did not
    converge, its EighConvergenceError, so the caller decides the order in
    which failures surface.
    """
    slices, m = len(arrays), arrays.shape[-1]
    exps = np.frexp(np.abs(arrays).max(axis=(-2, -1), initial=0.0))[1]
    w = np.ldexp(arrays, -exps[:, None, None])
    q_out, lam_out = np.empty((slices, m, m)), np.empty((slices, m))
    errors: list[EighConvergenceError | None] = [None] * slices
    eye = _eye(m)
    if slices == 1:
        w, eyes = w[0], eye
    else:
        eyes = np.broadcast_to(eye, w.shape)
    q = eyes.copy()
    if m == 2:
        # A single rotation diagonalizes a 2x2 exactly.
        for x, y in zip(w.reshape(-1, 2, 2), q.reshape(-1, 2, 2)):
            if x[0, 1] != 0.0:
                # Python floats: a tiny a_pr overflows theta to inf silently
                a_pp, a_pr, a_rr = float(x[0, 0]), float(x[0, 1]), float(x[1, 1])
                c, s = _rotation_params(a_pp, a_rr, a_pr)
                t = s / c
                x[0, 0], x[1, 1] = a_pp - t * a_pr, a_rr + t * a_pr
                x[0, 1] = x[1, 0] = 0.0
                y[0, 0] = y[1, 1] = c
                y[0, 1], y[1, 0] = s, -s
    target = OFFDIAG_TARGET * _frobenius_norms(w)
    # Entries below this level cannot push the off-diagonal mass back above
    # the convergence target, so their rotations are skipped.
    skip_level = (target / (2.0 * m))[..., None]
    off_mask = 1.0 - eye  # w * off_mask is w with its diagonal zeroed
    live = np.arange(slices)  # input index of each slice still in the stack
    for sweep in range(SWEEP_LIMIT + 2):
        off_norms = _frobenius_norms(w * off_mask)
        done = off_norms <= target
        converged = np.count_nonzero(done)
        if sweep > SWEEP_LIMIT or converged == len(live):
            break
        if converged:
            q_out[live[done]] = q[done]
            lam_out[live[done]] = w[done].diagonal(0, -2, -1)
            keep = ~done
            w, q, eyes, live = w[keep], q[keep], eyes[keep], live[keep]
            target, skip_level = target[keep], skip_level[keep]
        for ps, rs in _round_robin_schedule(m):
            apr = w[..., ps, rs]
            *k, j = np.nonzero(np.abs(apr) > skip_level)
            if len(j) == 0:
                continue
            pa, ra = ps[j], rs[j]
            wdiag = w.diagonal(0, -2, -1)
            c, s = _rotations(wdiag[(*k, pa)], wdiag[(*k, ra)], apr[(*k, j)])
            # One rotation matrix per slice for the whole round: the planes are
            # disjoint, so this equals applying the rotations sequentially.  A
            # slice of a stack with no active plane in this round gets the
            # identity, where a lone solve skips the round.  The bits agree: a
            # product with the identity is exact except that an input -0.0
            # becomes +0.0, no product returns -0.0, and a lone solve's first
            # rotation makes the same change before any test could tell the
            # two zeros apart.
            rot = eyes.copy()
            rot[(*k, pa, pa)] = c
            rot[(*k, ra, ra)] = c
            rot[(*k, pa, ra)] = s
            rot[(*k, ra, pa)] = -s
            w = rot.swapaxes(-1, -2) @ w @ rot
            w[(*k, pa, ra)] = 0.0
            w[(*k, ra, pa)] = 0.0
            q = q @ rot
    q_out[live] = q
    lam_out[live] = w.diagonal(0, -2, -1)
    for i in np.flatnonzero(~done):
        errors[live[i]] = EighConvergenceError(float(off_norms.flat[i]), SWEEP_LIMIT + 1)
    # unscaling and sorting are exact: once over the stack gives lone-solve bits
    lam_out = np.ldexp(lam_out, exps[:, None])
    order = np.argsort(-lam_out, axis=-1, kind="stable")
    rows = np.arange(slices)[:, None]
    q_out = q_out[rows[..., None], np.arange(m)[:, None], order[:, None, :]]
    return q_out, lam_out[rows, order], errors


def _frobenius_norms(w: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice over the trailing two axes of w (of the
    whole of w when it has fewer): its squares, in row-major order whatever
    the memory layout of w, are summed by one pairwise reduction."""
    return np.sqrt(np.add.reduce((w * w).reshape(*w.shape[:-2], math.prod(w.shape[-2:])), axis=-1))


def _spectra(stack: np.ndarray, admit: bool = True) -> Generator:
    """Run step: eigenvectors (k, d, d) and descending eigenvalues (k, d) of a
    (k, d, d) stack of symmetric arrays, solved in one ``_lockstep`` round by
    ``_jacobi_stack``, looked up when asked, and copied out of the round.  The
    first failing slice in input order raises its EighConvergenceError or,
    when ``admit``, its NotPositiveDefiniteError."""
    q, lam, errors = yield _jacobi_stack, stack
    for lam_j, error in zip(lam, errors):
        if error is not None:
            raise error
        if admit:
            _admit(lam_j)
    return q.copy(), lam.copy()


def _admitted(arrays) -> Generator:
    """Run step: ``arrays``, finite and exactly symmetric as the package builds
    them, admitted as SpdMatrix objects in one round, with the bits and errors
    of ``SpdMatrix(a)``; outside input is symmetrized where it enters."""
    stack = np.stack(arrays)
    q, lam = yield from _spectra(stack)
    eigens = (_frozen(object.__new__(EigenDecomposition), q=q_j, lam=lam_j) for q_j, lam_j in zip(q, lam))
    return tuple(_frozen(object.__new__(SpdMatrix), _entries=a, _eigen=eigen) for a, eigen in zip(stack, eigens))


def _lockstep(runs: list[Generator]) -> list:
    """Drive runs together: generators that yield a request, or a list of
    child runs, driven with all the others, whose outcomes they are sent in
    order once every child has ended.  A request is a pair (kernel, stack):
    a stacked kernel whose slices do not depend on each other, and its
    (k, d, d) stack.  Jacobi (``_spectra`` asks for it) is the one barrier
    of a round: after each pass over the ready runs every other kernel is
    called, once per dimension, and its runs are resumed within the round;
    ``_jacobi_stack``, looked up by name then, is called once per dimension
    on the requests of every live run only when no run asks for anything
    else.  Each run is sent its own slices of every output (for Jacobi,
    whose slices have the bits of lone solves, the eigenvectors, eigenvalues
    and convergence errors); a kernel that one run alone asks is called on
    that run's stack as it is.

    Returns per run, in input order, the value it returned or the
    SolverError, LinearAlgebraError or ValueError it raised; so is a child's
    outcome.
    """
    outcomes: list = [None] * len(runs)
    # a join is [outcomes, runs not yet ended, (parent, its join, its slot) or None]
    root = [outcomes, len(runs), None]
    ready = [(run, None, root, i) for i, run in enumerate(runs)]
    asked: dict[tuple, list] = {}  # the requests not yet solved, by (kernel, dimension)
    while ready:
        # forked children and resumed parents are appended to ``ready`` and
        # so are resumed in this same pass
        for run, reply, join, slot in ready:
            try:
                got = run.send(reply)
            except StopIteration as stop:
                outcome = stop.value
            except (SolverError, LinearAlgebraError, ValueError) as exc:
                outcome = exc
            else:
                if not isinstance(got, list):
                    kernel, stack = got
                    asked.setdefault((kernel, stack.shape[-1]), []).append((run, join, slot, stack))
                elif got:
                    fork = [[None] * len(got), len(got), (run, join, slot)]
                    ready.extend((child, None, fork, i) for i, child in enumerate(got))
                else:
                    ready.append((run, [], join, slot))
                continue
            join[0][slot] = outcome
            join[1] -= 1
            if join[1] == 0 and join[2] is not None:
                parent, parent_join, parent_slot = join[2]
                ready.append((parent, join[0], parent_join, parent_slot))
        # every other kernel resolves within the round; Jacobi ends it
        cheap = [key for key in asked if key[0] is not _jacobi_stack]
        ready = []
        for key in cheap or list(asked):
            kernel, asking = key[0], asked.pop(key)
            if len(asking) == 1:
                (run, join, slot, stack), = asking
                ready.append((run, kernel(stack), join, slot))
                continue
            outputs = kernel(np.concatenate([stack for *_, stack in asking]))
            start = 0
            for run, join, slot, stack in asking:
                end = start + len(stack)
                ready.append((run, tuple(out[start:end] for out in outputs), join, slot))
                start = end
    return outcomes


def _solved(outcome):
    """The value of one ``_lockstep`` outcome; its error is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


T = TypeVar("T")
Run = Generator[Any, Any, T]  # a run step whose run returns a T


def _public(step: Callable[..., Generator]) -> Callable:
    """The public function of a run step: named as the step without its
    leading underscore, with its docstring and parameters (``-> Run[T]``
    read as ``-> T``), it drives the step as a batch of one."""

    @functools.wraps(step)
    def public(*args, **kwargs):
        return _solved(_lockstep([step(*args, **kwargs)])[0])

    public.__name__ = public.__qualname__ = step.__name__[1:]
    signature = inspect.signature(step)
    returns = signature.return_annotation.removeprefix("Run[").removesuffix("]")
    public.__signature__ = signature.replace(return_annotation=returns)
    return public


def apply_spectral(a: SymMatrix, f: str, p: float | None = None) -> SymMatrix | SpdMatrix:
    """Apply a scalar function to the spectrum: Q diag(f(lam)) Q^T.

    ``f`` is one of SPECTRAL_FUNCTIONS; ``power`` takes a finite real exponent
    ``p``.  ``exp_of_sym`` accepts any symmetric matrix; the remaining tags
    require a strictly positive spectrum.  ``log`` returns a plain SymMatrix.
    Every other tag returns an SpdMatrix and raises SpectralDomainError when
    a value overflows.  Its result is admitted as ``SpdMatrix`` admits, so
    one with lambda_min <= SPD_ADMISSION * lambda_max raises
    NotPositiveDefiniteError, as ``exp_of_sym`` of diag(0, -28) and
    ``power`` 5 of diag(1, 1e-3) do.
    """
    if f not in SPECTRAL_FUNCTIONS:
        raise ValueError(f"unknown spectral function {f!r}")
    if f == "power" and not (_is_real(p) and math.isfinite(p)):
        raise ValueError(f"power requires a finite real exponent, got {p!r}")
    return _spectral(eigh(a), f, p)


def _spectral(eigen: EigenDecomposition, f: str, p: float | None = None) -> SymMatrix | SpdMatrix:
    """``apply_spectral`` on the decomposition ``eigen`` of a matrix."""
    lam = eigen.lam
    if f != "exp_of_sym" and lam[-1] <= 0.0:
        raise SpectralDomainError(f"{f} undefined on eigenvalue {float(lam[-1])!r}")
    with np.errstate(over="ignore"):
        vals = SPECTRAL_FUNCTIONS[f](lam, p)
    if f == "log":
        return SymMatrix((eigen.q * vals) @ eigen.q.T)
    if not np.isfinite(vals).all():
        raise SpectralDomainError(f"{f} overflows on spectrum [{lam[-1]:.6e}, {lam[0]:.6e}]")
    return _recompose_spd(eigen.q, vals)


def _decompositions(mats) -> Generator:
    """Run step: ``eigh`` of each matrix in ``mats``, all of one dimension;
    those without a cached decomposition are solved in one round.  An array,
    finite and exactly symmetric as the package builds it, is such a matrix."""
    plain = [getattr(a, "entries", a) for a in mats if not isinstance(a, SpdMatrix)]
    q, lam = (yield from _spectra(np.stack(plain), admit=False)) if plain else ((), ())
    solved = (_frozen(object.__new__(EigenDecomposition), q=q_j, lam=lam_j) for q_j, lam_j in zip(q, lam))
    return [a.eigen if isinstance(a, SpdMatrix) else next(solved) for a in mats]


def _applied(mats, f: str, p: float | None = None) -> Generator:
    """Run step: ``apply_spectral(a, f, p)`` of each matrix a in ``mats``."""
    eigens = yield from _decompositions(mats)
    return [_spectral(eigen, f, p) for eigen in eigens]


def _recompose_spd(q: np.ndarray, vals: np.ndarray) -> SpdMatrix:
    """SPD matrix with eigenvectors ``q`` and eigenvalues ``vals``, built from
    that decomposition without running the solver."""
    order = np.argsort(-vals, kind="stable")
    # a row-major copy of the reordered factor, as the solver returns factors
    eigen = _frozen(object.__new__(EigenDecomposition), q=q[:, order].copy(), lam=vals[order])
    entries = _symmetrized(eigen.recompose())  # as in SpdMatrix: symmetrized, then admitted
    _admit(eigen.lam)
    return _frozen(object.__new__(SpdMatrix), _entries=entries, _eigen=eigen)


def congruence(x: np.ndarray, a: SymMatrix) -> np.ndarray:
    """X A X^T for a square array X, symmetrized as (M + M^T)/2; callers
    that need an SPD matrix admit the result with ``SpdMatrix``.  A product
    of finite inputs that overflows raises NumericalBreakdownError."""
    xm = np.asarray(x, dtype=float)
    if xm.shape != (a.dim, a.dim):
        raise ValueError(f"dimension mismatch: {xm.shape} vs {(a.dim, a.dim)}")
    if not np.isfinite(xm).all():
        raise ValueError("matrix entries must be finite")
    return _congruences(xm, a.entries)


def _congruences(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X A X^T symmetrized as (M + M^T)/2, over any leading axes of x and a
    (a (d, d) x against an (n, d, d) stack of A_j gives the n congruences).
    A product of finite inputs that overflows raises NumericalBreakdownError."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = x @ a @ x.swapaxes(-1, -2)
        sym = (m + m.swapaxes(-1, -2)) / 2.0
    if not np.isfinite(sym).all():
        raise NumericalBreakdownError("congruence X A X^T overflows")
    return sym


def _cholesky_stack(arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Lower triangular L with X = L L^T, and L^{-1}, for each slice X of a
    (k, d, d) stack of symmetric arrays (only lower triangles are read), and
    per slice None or the NonPositivePivotError of its first pivot that is
    not positive and finite.

    Left-looking: step j forms column j of L from the columns before it, then
    row j of L^{-1} by forward substitution, each product one ``np.matmul``
    over the stack, which calls per slice the BLAS dot or gemv of the 2-D
    loop on one array: each slice has its lone bits, whatever its neighbours.
    """
    k, d = arrays.shape[:2]
    lower, inv, pivots = np.zeros((k, d, d)), np.zeros((k, d, d)), np.empty((k, d))
    # a failed slice goes on, its later values unread and its warnings silent
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(d):
            row = lower[:, j : j + 1, :j]
            col = row.swapaxes(-1, -2)
            pivot = np.subtract(arrays[:, j : j + 1, j : j + 1], row @ col, out=pivots[:, j : j + 1, None])
            ljj = np.sqrt(pivot, out=lower[:, j : j + 1, j : j + 1])
            column = arrays[:, j + 1 :, j : j + 1] - lower[:, j + 1 :, :j] @ col
            np.divide(column, ljj, out=lower[:, j + 1 :, j : j + 1])
            np.divide(-(row @ inv[:, :j, :j]), ljj, out=inv[:, j : j + 1, :j])
            np.divide(1.0, ljj, out=inv[:, j : j + 1, j : j + 1])
    bad = ~((0.0 < pivots) & (pivots < math.inf))
    errors: list[NonPositivePivotError | None] = [None] * k
    for i in np.flatnonzero(bad.any(axis=1)):
        j = int(bad[i].argmax())
        errors[i] = NonPositivePivotError(j, float(pivots[i, j]))
    return lower, inv, errors


def _cholesky(x: np.ndarray) -> Run[tuple[np.ndarray, np.ndarray]]:
    """Lower triangular L with X = L L^T, and L^{-1}, as a request to
    ``_cholesky_stack``, which ``_lockstep`` stacks across runs within a round.
    A pivot that is not positive and finite raises NonPositivePivotError."""
    (lower,), (inv,), (error,) = yield _cholesky_stack, x[None]
    if error is not None:
        raise error
    return lower, inv


def frobenius_norm(a: SymMatrix | np.ndarray) -> float:
    """Frobenius norm of a matrix or array."""
    m = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    return float(_frobenius_norms(m))


def operator_norm(a: SymMatrix) -> float:
    """Spectral radius max_i |lambda_i|."""
    return _radius(eigh(a).lam)


def _radius(lam: np.ndarray) -> float:
    """max_i |lambda_i| of a descending spectrum."""
    return max(abs(float(lam[0])), abs(float(lam[-1])))


def trace(a: SymMatrix) -> float:
    """Sum of the diagonal entries."""
    return float(np.trace(a.entries))


def determinant(a: SymMatrix) -> float:
    """Determinant as the product of eigenvalues (never cofactor expansion)."""
    return float(np.prod(eigh(a).lam))


@dataclass(frozen=True)
class LoewnerComparison:
    """Outcome of a Loewner-order test a >= b, with its witness.

    ``witness`` is the smallest eigenvalue of a - b.
    """

    holds: bool
    witness: float


def _loewner_geq(a: SymMatrix, b: SymMatrix, rel_tol: float = 0.0) -> Run[LoewnerComparison]:
    """Test a >= b in the Loewner order (a - b positive semidefinite).

    The slack is relative: lambda_min(a - b) >= -rel_tol * max(1, ||a||, ||b||)
    with operator norms, which are formed only when lambda_min(a - b) < 0.
    ``rel_tol`` must be nonnegative.
    """
    # the witness is solved in one round and, when it is negative, whichever
    # of a and b has no cached decomposition in the next
    if not rel_tol >= 0.0:
        raise ValueError(f"rel_tol must be nonnegative, got {rel_tol!r}")
    _check_pair(a, b)
    _, lam = yield from _spectra((a.entries - b.entries)[None], admit=False)
    witness = float(lam[0, -1])
    holds = witness >= 0.0
    if not holds:
        eigens = yield from _decompositions((a, b))
        holds = witness >= -rel_tol * max(1.0, *(_radius(eigen.lam) for eigen in eigens))
    return LoewnerComparison(holds=holds, witness=witness)


loewner_geq = _public(_loewner_geq)
cholesky = _public(_cholesky)
