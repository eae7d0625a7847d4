import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from pathidw import (
    ErrorReport,
    GridGeometry,
    PointSet,
    RasterGrid,
    cross_validate,
    grid_split,
    make_scene,
    range_vs_error,
    wilcoxon_signed_rank,
)
from pathidw.validation import EXACT_LIMIT, _approx_two_sided_p, _average_ranks


def pts(xyv):
    arr = np.asarray(xyv, dtype=float)
    return PointSet(x=arr[:, 0], y=arr[:, 1], values=arr[:, 2])


def point_clouds(min_size=2, max_size=40):
    coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    return st.lists(
        st.tuples(coord, coord, st.floats(-100, 100, allow_nan=False)),
        min_size=min_size,
        max_size=max_size,
    ).map(pts)


class TestGridSplit:
    def test_one_cell_keeps_per_cell_points(self):
        cloud = pts([[0, 0, 1], [1, 1, 2], [2, 2, 3], [3, 3, 4]])
        split = grid_split(cloud, mesh_cellsize=100.0, per_cell=1, seed=0)
        assert len(split.training) == 1
        assert len(split.validation) == 3

    def test_sparse_points_all_become_training(self):
        cloud = pts([[0, 0, 1], [500, 0, 2], [0, 500, 3]])
        split = grid_split(cloud, mesh_cellsize=100.0, per_cell=1, seed=0)
        assert len(split.training) == 3
        assert len(split.validation) == 0

    def test_per_cell_caps_not_floors(self):
        cloud = pts([[0, 0, 1], [1, 0, 2], [200, 0, 3]])
        split = grid_split(cloud, mesh_cellsize=100.0, per_cell=5, seed=0)
        assert len(split.training) == 3

    def test_same_seed_same_split(self):
        cloud = pts([[i % 7 * 30, i // 7 * 30, float(i)] for i in range(40)])
        a = grid_split(cloud, mesh_cellsize=100.0, per_cell=2, seed=11)
        b = grid_split(cloud, mesh_cellsize=100.0, per_cell=2, seed=11)
        assert np.array_equal(a.training.x, b.training.x)
        assert np.array_equal(a.validation.values, b.validation.values)

    def test_different_seeds_differ(self):
        cloud = pts([[i % 7 * 30, i // 7 * 30, float(i)] for i in range(60)])
        a = grid_split(cloud, mesh_cellsize=200.0, per_cell=1, seed=1)
        b = grid_split(cloud, mesh_cellsize=200.0, per_cell=1, seed=2)
        assert not np.array_equal(a.training.x, b.training.x)

    def test_validation_errors(self):
        cloud = pts([[0, 0, 1]])
        with pytest.raises(ValueError):
            grid_split(cloud, mesh_cellsize=0.0, per_cell=1, seed=0)
        for per_cell in (0, True, 2.5):
            with pytest.raises(ValueError):
                grid_split(cloud, mesh_cellsize=10.0, per_cell=per_cell, seed=0)
        empty = PointSet(x=np.empty(0), y=np.empty(0), values=np.empty(0))
        with pytest.raises(ValueError):
            grid_split(empty, mesh_cellsize=10.0, per_cell=1, seed=0)

    def test_result_records_parameters(self):
        cloud = pts([[0, 0, 1], [1, 1, 2]])
        split = grid_split(cloud, mesh_cellsize=50.0, per_cell=1, seed=9)
        assert split.mesh_cellsize == 50.0
        assert split.seed == 9

    @pytest.mark.parametrize("per_cell", [1, 2, 3])
    def test_matches_per_point_dict_grouping(self, per_cell):
        # Survey tracks, plus a cloud at negative coordinates whose points
        # sit on mesh-cell edges, one ulp either side, and in cell interiors.
        clouds = [make_scene(kind, seed=s).track
                  for kind in ("two-basin", "plume") for s in (0, 7)]
        rng = np.random.default_rng(per_cell)
        edges = -1200.0 + 100.0 * rng.integers(0, 12, size=(300, 2))
        nudge = rng.choice([-1.0, 0.0, 0.0, 1.0], size=edges.shape)
        xy = np.where(nudge == 0.0, edges, np.nextafter(edges, edges + nudge))
        xy[:100] += rng.uniform(0.0, 100.0, size=(100, 2))
        clouds.append(PointSet(xy[:, 0], xy[:, 1], rng.normal(size=len(xy))))
        for cloud in clouds:
            for mesh, seed in ((100.0, 3), (1095.4, 0), (250.0, 9001)):
                split = grid_split(cloud, mesh_cellsize=mesh, per_cell=per_cell, seed=seed)
                train = oracles.grid_split_training(cloud.x, cloud.y, mesh, per_cell, seed)
                rest = np.setdiff1d(np.arange(len(cloud)), train)
                assert split.training.x.tobytes() == cloud.x[train].tobytes()
                assert split.training.values.tobytes() == cloud.values[train].tobytes()
                assert split.validation.y.tobytes() == cloud.y[rest].tobytes()

    @given(cloud=point_clouds(), seed=st.integers(0, 1000))
    def test_split_is_a_partition_preserving_order(self, cloud, seed):
        split = grid_split(cloud, mesh_cellsize=777.0, per_cell=2, seed=seed)
        assert len(split.training) + len(split.validation) == len(cloud)
        combined = sorted(
            list(zip(split.training.x, split.training.y, split.training.values))
            + list(zip(split.validation.x, split.validation.y, split.validation.values))
        )
        assert combined == sorted(zip(cloud.x, cloud.y, cloud.values))
        # Subsets keep the original relative order: each must be a
        # subsequence of the full point list.
        full = list(zip(cloud.x, cloud.y, cloud.values))
        for sub in (split.training, split.validation):
            it = iter(full)
            assert all(
                any(s == f for f in it)
                for s in zip(sub.x, sub.y, sub.values)
            )

    @given(cloud=point_clouds(min_size=4), seed=st.integers(0, 1000))
    def test_every_occupied_mesh_cell_contributes(self, cloud, seed):
        mesh = 1000.0
        split = grid_split(cloud, mesh_cellsize=mesh, per_cell=1, seed=seed)
        ix = np.floor((cloud.x - cloud.x.min()) / mesh).astype(int)
        iy = np.floor((cloud.y - cloud.y.min()) / mesh).astype(int)
        occupied = set(zip(ix, iy))
        tx = np.floor((split.training.x - cloud.x.min()) / mesh).astype(int)
        ty = np.floor((split.training.y - cloud.y.min()) / mesh).astype(int)
        assert set(zip(tx, ty)) == occupied
        assert len(split.training) == len(occupied)


class TestCrossValidate:
    def geom(self):
        return GridGeometry(ncols=2, nrows=1, xll=0.0, yll=0.0, cellsize=10.0)

    def test_known_errors(self):
        pred = RasterGrid(self.geom(), np.array([[0.0, 0.0]]))
        report = cross_validate(pred, pts([[5, 5, 3.0], [15, 5, 1.0]]))
        assert report.mae == 2.0
        assert report.rmse == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert report.n_evaluated == 2
        assert report.n_nodata == 0

    def test_residual_is_predicted_minus_observed(self):
        pred = RasterGrid(self.geom(), np.array([[4.0, 0.0]]))
        report = cross_validate(pred, pts([[5, 5, 1.0]]))
        idx, obs, est, res = report.residuals[0]
        assert (idx, obs, est, res) == (0, 1.0, 4.0, 3.0)

    def test_nodata_and_outside_points_counted_not_scored(self):
        pred = RasterGrid(self.geom(), np.array([[2.0, -9999.0]]))
        report = cross_validate(pred, pts([[5, 5, 1.0], [15, 5, 1.0], [50, 5, 1.0]]))
        assert report.n_evaluated == 1
        assert report.n_nodata == 2
        assert report.mae == 1.0

    def test_all_nodata_is_an_error(self):
        pred = RasterGrid(self.geom(), np.full((1, 2), -9999.0))
        with pytest.raises(ValueError):
            cross_validate(pred, pts([[5, 5, 1.0]]))

    def test_observed_range(self):
        report = ErrorReport(
            residuals=((0, 1.0, 2.0, 1.0), (1, 5.0, 2.0, -3.0)),
            mae=2.0, rmse=2.2, n_evaluated=2, n_nodata=0,
        )
        assert report.observed_range() == 4.0

    @given(
        residuals=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50)
    )
    def test_rmse_dominates_mae(self, residuals):
        geom = GridGeometry(ncols=len(residuals), nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        pred = RasterGrid(geom, np.array(residuals, dtype=float).reshape(1, -1))
        cloud = pts([[i + 0.5, 0.5, 0.0] for i in range(len(residuals))])
        report = cross_validate(pred, cloud)
        assert report.rmse >= report.mae - 1e-12


class TestWilcoxon:
    def test_all_zero_differences_degenerate(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.method == "degenerate"
        assert result.p_value == 1.0
        assert result.statistic == 0.0
        assert result.n_pairs == 0
        assert result.n_zero_diffs == 3

    def test_five_one_sided_pairs(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [0.0, 0.0, 0.0, 0.0, 0.0]
        result = wilcoxon_signed_rank(a, b)
        assert result.method == "exact"
        assert result.statistic == 15.0
        # All 5 ranks positive: p = 2 * P(W+ >= 15) = 2 / 32.
        assert result.p_value == 0.0625
        assert result.n_pairs == 5

    def test_statistic_sign_convention(self):
        result = wilcoxon_signed_rank([0.0, 0.0], [1.0, 2.0])
        assert result.statistic == -3.0

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        ab = wilcoxon_signed_rank(a, b)
        ba = wilcoxon_signed_rank(b, a)
        assert ab.p_value == ba.p_value
        assert ab.statistic == -ba.statistic

    def test_zero_pairs_dropped_and_counted(self):
        result = wilcoxon_signed_rank([1.0, 5.0, 2.0], [1.0, 3.0, 1.0])
        assert result.n_pairs == 2
        assert result.n_zero_diffs == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [2.0])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                wilcoxon_signed_rank([1.0, bad, 3.0], [0.5, 1.0, 2.0])
            with pytest.raises(ValueError, match="finite"):
                wilcoxon_signed_rank([0.5, 1.0, 2.0], [1.0, bad, 3.0])

    def test_exact_matches_enumeration_with_ties(self):
        diffs = np.array([1.0, -1.0, 2.0, 2.0, -3.0, 0.5, 4.0])
        result = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
        assert result.method == "exact"
        stat, p = oracles.wilcoxon_enumerate(diffs)
        assert result.statistic == stat
        assert result.p_value == p

    @given(data=st.data())
    def test_exact_matches_enumeration_random(self, data):
        n = data.draw(st.integers(2, 9))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        mags = rng.integers(1, 5, size=n).astype(float)
        signs = rng.choice([-1.0, 1.0], size=n)
        diffs = mags * signs
        result = wilcoxon_signed_rank(diffs, np.zeros(n))
        assert result.method == "exact"
        stat, p = oracles.wilcoxon_enumerate(diffs)
        assert result.statistic == stat
        assert result.p_value == p

    def test_auto_switches_at_exact_limit(self):
        rng = np.random.default_rng(2)
        small = rng.normal(size=EXACT_LIMIT)
        large = rng.normal(size=EXACT_LIMIT + 1)
        assert wilcoxon_signed_rank(small, np.zeros(EXACT_LIMIT)).method == "exact"
        result = wilcoxon_signed_rank(large, np.zeros(EXACT_LIMIT + 1))
        assert result.method == "normal-approximation"

    def test_approx_close_to_exact_at_boundary(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            diffs = rng.normal(size=EXACT_LIMIT)
            zeros = np.zeros(EXACT_LIMIT)
            exact = wilcoxon_signed_rank(diffs, zeros)
            assert exact.method == "exact"
            # the normal approximation that n > EXACT_LIMIT would take
            ranks = _average_ranks(np.abs(diffs))
            approx = _approx_two_sided_p(ranks, float(ranks[diffs > 0].sum()), EXACT_LIMIT)
            assert abs(exact.p_value - approx) <= 0.01

    def test_many_consistent_pairs_are_significant(self):
        # 23 surveys all favoring the same method must come out clearly
        # significant under the exact path.
        rng = np.random.default_rng(8)
        gains = rng.uniform(0.05, 0.4, size=23)
        result = wilcoxon_signed_rank(np.zeros(23), gains)
        assert result.method == "exact"
        assert result.p_value < 0.01
        assert result.statistic == -276.0

    def test_average_ranks_match_scipy_bitwise(self):
        # Seeded samples with many ties, none, one constant value and inf.
        from scipy.stats import rankdata

        rng = np.random.default_rng(11)
        for n in range(1, 50):
            tied = rng.integers(0, max(1, n // 3), n).astype(float)
            spread = rng.normal(size=n)
            spread[rng.integers(n)] = np.inf
            for x in (tied, spread, np.full(n, 2.5)):
                want = rankdata(x, method="average")
                assert _average_ranks(x).tobytes() == want.tobytes(), x

    def test_agrees_with_scipy_on_tie_free_data(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=12)
            b = rng.normal(size=12)
            ours = wilcoxon_signed_rank(a, b)
            assert ours.method == "exact"
            theirs = scipy_wilcoxon(a, b, method="exact", alternative="two-sided")
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-12)

    def test_approx_p_value_formula(self):
        # Hand check of the tie-free normal approximation pieces.
        n = 30
        ranks = np.arange(1, n + 1, dtype=float)
        w_plus = 300.0
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        z = (abs(w_plus - mean) - 0.5) / math.sqrt(var)
        expect = math.erfc(z / math.sqrt(2.0))
        assert _approx_two_sided_p(ranks, w_plus, n) == pytest.approx(expect, rel=1e-15)


class TestRangeVsError:
    def report(self, mae):
        return ErrorReport(
            residuals=((0, 0.0, mae, mae),), mae=mae, rmse=mae,
            n_evaluated=1, n_nodata=0,
        )

    def test_monotone_association(self):
        table = range_vs_error(
            [(1.0, self.report(0.1)), (2.0, self.report(0.2)), (3.0, self.report(0.5))]
        )
        assert table.rank_correlation == 1.0
        assert table.rows == ((1.0, 0.1), (2.0, 0.2), (3.0, 0.5))

    def test_reverse_association(self):
        table = range_vs_error(
            [(1.0, self.report(0.5)), (2.0, self.report(0.2)), (3.0, self.report(0.1))]
        )
        assert table.rank_correlation == -1.0

    def test_single_row_has_no_correlation(self):
        table = range_vs_error([(1.0, self.report(0.1))])
        assert table.rank_correlation is None

    def test_constant_column_has_no_correlation(self):
        table = range_vs_error([(1.0, self.report(0.3)), (2.0, self.report(0.3))])
        assert table.rank_correlation is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            range_vs_error([])

    def test_matches_scipy_spearman_bitwise(self):
        # Seeded columns from two rows up, with ties, constant columns, inf
        # and NaN; where scipy's statistic is nan the correlation is None,
        # and no warning is raised on the way.
        from scipy.stats import spearmanr

        rng = np.random.default_rng(12)
        undefined = 0
        for trial in range(600):
            n = int(rng.integers(2, 30))
            ranges = rng.integers(0, 5, n).astype(float) if trial % 2 else rng.normal(size=n)
            maes = rng.integers(0, 3, n).astype(float) if trial % 3 else rng.uniform(size=n)
            if trial % 5 == 0:
                maes[:] = maes[0]
            if trial % 7 == 0:
                ranges[rng.integers(n)] = np.inf
            if trial % 11 == 0:
                maes[rng.integers(n)] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = float(spearmanr(ranges, maes).statistic)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = range_vs_error(
                    [(r, self.report(m)) for r, m in zip(ranges, maes)]).rank_correlation
            if math.isfinite(want):
                assert got is not None and np.float64(got).tobytes() == np.float64(want).tobytes()
            else:
                assert got is None
                undefined += 1
        assert 0 < undefined < 600

    def test_nan_column_has_no_correlation(self):
        table = range_vs_error([(1.0, self.report(0.3)), (2.0, self.report(math.nan)),
                                (3.0, self.report(0.1))])
        assert table.rank_correlation is None

    def test_matches_direct_rank_correlation(self):
        rng = np.random.default_rng(4)
        ranges = rng.uniform(1, 10, size=15)
        maes = rng.uniform(0.1, 2.0, size=15)
        table = range_vs_error([(r, self.report(m)) for r, m in zip(ranges, maes)])
        assert table.rank_correlation == pytest.approx(
            oracles.spearman_direct(ranges, maes), rel=1e-12
        )
