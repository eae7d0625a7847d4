"""Survey subsetting and cross-validation statistics.

Dense survey tracks oversample along-track, so training data is thinned on a
coarse square mesh: up to ``per_cell`` points are kept per occupied mesh
cell and everything else becomes validation data. Error reports carry
per-point residuals, from which MAE and RMSE are computed, and paired
reports are compared with a two-sided Wilcoxon signed-rank test whose
small-n path is the exact sign-flip distribution.

Mid-ranks and the Spearman statistic are computed here in numpy, as
``scipy.stats.rankdata`` and ``spearmanr`` compute them, so that importing
the package does not import ``scipy.stats``: every CLI call is a fresh
process, and that one import would cost it more time and memory than
numpy and the rest of scipy together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .points import PointSet
from .raster import RasterGrid, require_count

# largest n_pairs handled by the exact sign-flip distribution
EXACT_LIMIT = 25


@dataclass(frozen=True)
class SplitResult:
    training: PointSet
    validation: PointSet
    mesh_cellsize: float
    seed: int


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Cross-validation residuals; the summary errors are computed from them.

    One entry per evaluated validation point, in point order, across four
    read-only columns: ``index`` (the point's position in the validation
    set, int64), ``observed``, ``predicted`` and ``residual`` = predicted -
    observed (float64, finite), and at least one entry. ``n_nodata`` counts
    validation points that fell on cells without a prediction and may not
    be negative. Reports hold arrays, so ``==`` compares identity; compare
    the columns instead.
    """

    index: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray
    residual: np.ndarray
    n_nodata: int

    def __post_init__(self):
        n = None
        for name, dtype in (("index", np.int64), ("observed", np.float64),
                            ("predicted", np.float64), ("residual", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or n is not None and len(arr) != n:
                raise ValueError("report columns must be 1-d arrays of equal length")
            if dtype is np.float64 and not np.isfinite(arr).all():
                raise ValueError(f"report {name} values must be finite")
            n = len(arr)
        if not n:
            raise ValueError("error report holds no residual rows")
        if self.n_nodata < 0:
            raise ValueError(f"n_nodata must not be negative, got {self.n_nodata}")

    @property
    def mae(self) -> float:
        return float(np.mean(np.abs(self.residual)))

    @property
    def rmse(self) -> float:
        return float(np.sqrt(np.mean(self.residual ** 2)))

    @property
    def n_evaluated(self) -> int:
        return len(self.residual)

    def observed_range(self) -> float:
        return float(self.observed.max() - self.observed.min())


@dataclass(frozen=True)
class PairedTestResult:
    """Two-sided Wilcoxon signed-rank outcome.

    ``statistic`` is the signed-rank sum W = W+ - W- over non-zero
    differences a_i - b_i. ``n_pairs`` counts the retained (non-zero) pairs;
    ``method`` is "exact", "normal-approximation", or "degenerate" when every
    difference was zero (p_value 1).
    """

    statistic: float
    p_value: float
    n_pairs: int
    n_zero_diffs: int
    method: str


@dataclass(frozen=True)
class RangeErrorTable:
    """Scatter of survey value range against MAE, with Spearman rank correlation.

    ``rank_correlation`` is None when undefined (fewer than two rows, a NaN,
    or zero variance in either column).
    """

    rows: tuple[tuple[float, float], ...]

    @property
    def rank_correlation(self) -> float | None:
        table = np.array(self.rows)
        # the rank correlation is undefined with a NaN or a constant column
        if len(table) < 2 or np.isnan(table).any() or not (table != table[0]).any(axis=0).all():
            return None
        ranks = np.column_stack([_average_ranks(table[:, 0]), _average_ranks(table[:, 1])])
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def grid_split(points: PointSet, mesh_cellsize: float, per_cell: int,
               seed: int) -> SplitResult:
    """Thin a point set on a square mesh anchored at its bounding-box lower-left.

    Each occupied mesh cell contributes up to ``per_cell`` randomly chosen
    points to the training set; the remainder is validation. The choice is a
    pure function of (points, mesh_cellsize, per_cell, seed), and both
    subsets preserve the original point order.
    """
    if len(points) == 0:
        raise ValueError("cannot split an empty point set")
    if not mesh_cellsize > 0:
        raise ValueError(f"mesh_cellsize must be positive, got {mesh_cellsize}")
    require_count("per_cell", per_cell)

    x0 = float(points.x.min())
    y0 = float(points.y.min())
    ix = np.floor((points.x - x0) / mesh_cellsize).astype(int)
    iy = np.floor((points.y - y0) / mesh_cellsize).astype(int)

    # mesh cells in (iy, ix) order, each one's points in input order
    order = np.lexsort((ix, iy))
    new_cell = (np.diff(iy[order]) != 0) | (np.diff(ix[order]) != 0)
    rng = np.random.default_rng(seed)
    train_mask = np.zeros(len(points), dtype=bool)
    for members in np.split(order, np.flatnonzero(new_cell) + 1):
        picks = rng.choice(len(members), size=min(per_cell, len(members)), replace=False)
        train_mask[members[picks]] = True
    return SplitResult(points.subset(np.flatnonzero(train_mask)),
                       points.subset(np.flatnonzero(~train_mask)),
                       float(mesh_cellsize), int(seed))


def cross_validate(predicted: RasterGrid, validation: PointSet) -> ErrorReport:
    """Compare a prediction raster against held-out points.

    Each point is read at its containing cell. Points on cells without a
    prediction (nodata, or outside the raster extent) are excluded from the
    metrics and counted in ``n_nodata``. Raises ValueError when nothing is
    evaluable.
    """
    rows, cols = predicted.geometry.cells_of(validation.x, validation.y)
    pred = predicted.values[rows, cols]
    evaluable = np.flatnonzero((rows >= 0) & (pred != predicted.nodata))
    if not len(evaluable):
        raise ValueError("no evaluable validation points (all nodata or out of extent)")
    obs = validation.values[evaluable]
    pred = pred[evaluable]
    return ErrorReport(evaluable, obs, pred, pred - obs, len(validation) - len(evaluable))


def wilcoxon_signed_rank(a, b) -> PairedTestResult:
    """Two-sided paired Wilcoxon signed-rank test of a vs b.

    Zero differences are dropped (and counted); tied absolute differences
    receive mid-ranks. The exact sign-flip distribution is used for up to
    25 retained pairs and the normal approximation (tie and continuity
    corrected) beyond. The p-value is symmetric in (a, b).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be equal-length 1-d sequences")
    if len(a) < 2:
        raise ValueError("need at least 2 pairs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("a and b must be finite")

    diffs = a - b
    nonzero = diffs[diffs != 0.0]
    n_zero = int(len(diffs) - len(nonzero))
    n = len(nonzero)
    if n == 0:
        return PairedTestResult(0.0, 1.0, 0, n_zero, "degenerate")

    ranks = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    statistic = w_plus - w_minus

    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
        return PairedTestResult(statistic, p, n, n_zero, "exact")
    p = _approx_two_sided_p(ranks, w_plus, n)
    return PairedTestResult(statistic, p, n, n_zero, "normal-approximation")


def _average_ranks(x) -> np.ndarray:
    """Ranks 1..n of ``x``; each group of equal values shares its mean rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    # group g (from 1) holds sorted positions bounds[g - 1] to bounds[g] - 1
    group = np.cumsum(starts)
    bounds = np.r_[np.flatnonzero(starts), len(x)]
    ranks = np.empty(len(x))
    ranks[order] = 0.5 * (bounds[group] + bounds[group - 1] + 1)
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact two-sided p over all 2**n sign assignments of the given ranks.

    Ranks (mid-ranks included) are doubled to integers and the distribution
    of the doubled W+ is tabulated by dynamic programming, which counts
    exactly the same outcomes as brute-force enumeration.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    if not np.array_equal(doubled, 2.0 * ranks):
        raise AssertionError("mid-ranks must be multiples of 0.5")
    # n <= EXACT_LIMIT, so every count (at most 2**n) fits in int64
    counts = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled.tolist():
        counts[r:] = counts[r:] + counts[:-r]
    target = int(round(2.0 * w_plus))
    le = int(counts[: target + 1].sum())
    ge = int(counts[target:].sum())
    p = 2.0 * min(le, ge) / (1 << len(doubled))
    return min(1.0, p)


def _approx_two_sided_p(ranks: np.ndarray, w_plus: float, n: int) -> float:
    """Normal approximation with tie correction and continuity correction."""
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum()) / 48.0
    if var <= 0:
        return 1.0
    delta = w_plus - mean
    if delta == 0:
        return 1.0
    z = (abs(delta) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return math.erfc(z / math.sqrt(2.0))


def range_vs_error(pairs) -> RangeErrorTable:
    """Relate survey value ranges to their cross-validation MAE.

    ``pairs`` is an iterable of (value_range, mae) numbers, such as an
    ErrorReport's ``observed_range()`` and ``mae``. Returns the scatter rows
    in input order, whose ``rank_correlation`` is the Spearman rank
    correlation between range and MAE (None when undefined).
    """
    rows = tuple((float(rng), float(mae)) for rng, mae in pairs)
    if not rows:
        raise ValueError("no (range, mae) pairs supplied")
    return RangeErrorTable(rows)
