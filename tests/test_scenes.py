import numpy as np
import pytest

import oracles
from pathidw import (
    SCENE_KINDS,
    make_scene,
    nearest_sources,
)
from pathidw.scenes import BASE_VALUE, PLUME_PEAK


class TestMakeScene:
    def test_kinds(self):
        assert SCENE_KINDS == ("two-basin", "gradient", "plume")
        with pytest.raises(ValueError):
            make_scene("estuary")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_scene("gradient", step=0.0)
        with pytest.raises(ValueError):
            make_scene("gradient", noise_sd=-0.1)

    @pytest.mark.parametrize("nrows", [1, 10])
    def test_plume_needs_two_columns(self, nrows):
        with pytest.raises(ValueError, match="plume.*ncols=1"):
            make_scene("plume", ncols=1, nrows=nrows)
        scene = make_scene("plume", ncols=2, nrows=10)
        assert scene.geometry.ncols == 2

    def test_geometry_and_cost_helpers(self):
        scene = make_scene("two-basin", ncols=40, nrows=30, cellsize=50.0)
        assert scene.geometry.ncols == 40
        assert scene.geometry.nrows == 30
        cost = scene.cost()
        assert cost.water_cost == 1.0
        assert cost.land_cost == 10000.0
        assert cost.geometry == scene.geometry


class TestTwoBasin:
    def test_wall_splits_water_into_sealed_basins(self):
        scene = make_scene("two-basin", ncols=40, nrows=40)
        cost = scene.cost()
        wall = 40 // 2
        assert cost.is_land[:, wall].all()
        assert np.count_nonzero(cost.is_land) == 40
        dist, _ = nearest_sources(cost, [(20, 0)])
        reached = np.zeros((40, 40), dtype=bool)
        reached[cost.is_water] = np.isfinite(dist[0])
        assert reached[:, :wall].all()
        assert not reached[:, wall + 1 :].any()

    def test_truth_takes_exactly_two_values(self):
        scene = make_scene("two-basin", step=7.5)
        water = scene.cost().is_water
        values = np.unique(scene.truth.values[water])
        assert list(values) == [BASE_VALUE, BASE_VALUE + 7.5]

    def test_truth_sides(self):
        scene = make_scene("two-basin", ncols=20, nrows=10, step=4.0)
        water = scene.cost().is_water
        wall = 20 // 2
        t = scene.truth.values
        assert np.all(t[:, :wall][water[:, :wall]] == BASE_VALUE)
        assert np.all(t[:, wall + 1 :][water[:, wall + 1 :]] == BASE_VALUE + 4.0)

    def test_land_cells_are_nodata_in_truth(self):
        scene = make_scene("two-basin", ncols=20, nrows=10)
        assert np.all(scene.truth.values[scene.cost().is_land] == scene.truth.nodata)


class TestGradient:
    def test_no_barriers(self):
        scene = make_scene("gradient")
        assert len(scene.polygons) == 0
        assert scene.cost().is_water.all()

    def test_linear_ramp_spans_step(self):
        scene = make_scene("gradient", ncols=50, nrows=20, step=8.0)
        t = scene.truth.values
        assert np.all(np.diff(t, axis=1) > 0)
        assert np.ptp(t) == pytest.approx(8.0 * 49 / 50, rel=1e-12)
        assert t.min() == pytest.approx(BASE_VALUE + 8.0 * 0.5 / 50, rel=1e-12)

    def test_constant_along_columns(self):
        scene = make_scene("gradient", ncols=30, nrows=15)
        assert np.all(np.diff(scene.truth.values, axis=0) == 0)


class TestPlume:
    def test_wall_has_a_gap_at_the_top(self):
        scene = make_scene("plume")
        water = scene.cost().is_water
        wall = scene.geometry.ncols // 2
        gap_rows = np.flatnonzero(water[:, wall])
        assert gap_rows.size > 0
        assert gap_rows.max() < scene.geometry.nrows * 0.4
        assert not water[scene.geometry.nrows - 1, wall]

    def test_truth_peak_at_source(self):
        scene = make_scene("plume")
        source = (scene.geometry.nrows // 2, scene.geometry.ncols // 6)
        assert scene.truth.values[source] == PLUME_PEAK
        water = scene.cost().is_water
        assert scene.truth.values[water].max() == PLUME_PEAK
        assert scene.truth.values[water].min() == PLUME_PEAK - scene.step

    def test_truth_is_linear_in_in_water_distance(self):
        scene = make_scene("plume", ncols=24, nrows=20, step=6.0)
        cost = scene.cost()
        water = cost.is_water
        nodata = cost.raster.nodata
        d = oracles.relax_distances(
            np.where(water, cost.raster.values, nodata),
            (20 // 2, 24 // 6),
            nodata,
            cost.water_cost,
            cost.geometry.cellsize,
        ).reshape(20, 24)[water]
        assert np.isfinite(d).all()
        expect = PLUME_PEAK - scene.step * d / d.max()
        assert np.array_equal(scene.truth.values[water], expect)

    def test_value_jump_across_sealed_wall(self):
        scene = make_scene("plume", step=10.0)
        t = scene.truth.values
        wall = scene.geometry.ncols // 2
        # Near the bottom the wall is sealed: straight-line neighbors across
        # it differ by a sizeable fraction of the full range.
        for r in (95, 90):
            jump = abs(t[r, wall - 1] - t[r, wall + 1])
            assert jump > 0.25 * scene.step

    def test_smooth_within_a_side(self):
        scene = make_scene("plume", step=10.0)
        t = scene.truth.values
        water = scene.cost().is_water
        wall = scene.geometry.ncols // 2
        horiz = (
            water[:, :-1]
            & water[:, 1:]
            & (np.arange(scene.geometry.ncols - 1) != wall - 1)
            & (np.arange(scene.geometry.ncols - 1) != wall)
        )
        diffs = np.abs(np.diff(t, axis=1))[horiz]
        assert diffs.max() < 0.1 * scene.step


class TestTrack:
    def test_track_points_sit_on_water(self):
        scene = make_scene("two-basin")
        cost = scene.cost()
        rows, cols = scene.geometry.cells_of(scene.track.x, scene.track.y)
        assert (rows >= 0).all()
        assert cost.is_water[rows, cols].all()

    def test_track_is_dense(self):
        scene = make_scene("two-basin")
        assert 500 < len(scene.track) < 5000

    def test_same_seed_reproduces_exactly(self):
        a = make_scene("plume", seed=5)
        b = make_scene("plume", seed=5)
        assert np.array_equal(a.track.x, b.track.x)
        assert np.array_equal(a.track.y, b.track.y)
        assert np.array_equal(a.track.values, b.track.values)

    def test_different_seeds_move_the_track(self):
        a = make_scene("gradient", seed=1)
        b = make_scene("gradient", seed=2)
        assert not np.array_equal(a.track.y, b.track.y)

    def test_positions_independent_of_step_and_noise(self):
        a = make_scene("two-basin", step=5.0, noise_sd=0.1, seed=4)
        b = make_scene("two-basin", step=40.0, noise_sd=2.0, seed=4)
        assert np.array_equal(a.track.x, b.track.x)
        assert np.array_equal(a.track.y, b.track.y)

    def test_noise_draws_shared_across_steps(self):
        # With identical seeds the noise sequence is identical, so values on
        # the low basin (whose truth does not depend on step) coincide.
        a = make_scene("two-basin", step=5.0, seed=4)
        b = make_scene("two-basin", step=40.0, seed=4)
        wall_x = a.geometry.xll + (a.geometry.ncols // 2) * a.geometry.cellsize
        left = a.track.x < wall_x
        assert left.any()
        assert np.array_equal(a.track.values[left], b.track.values[left])

    def test_zero_noise_reproduces_truth(self):
        scene = make_scene("two-basin", noise_sd=0.0)
        rows, cols = scene.geometry.cells_of(scene.track.x, scene.track.y)
        assert (rows >= 0).all()
        assert np.array_equal(scene.track.values, scene.truth.values[rows, cols])

    def test_scene_records_parameters(self):
        scene = make_scene("gradient", step=3.0, noise_sd=0.25, seed=12)
        assert scene.kind == "gradient"
        assert scene.step == 3.0
        assert scene.noise_sd == 0.25
        assert scene.seed == 12
