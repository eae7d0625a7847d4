"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single ``[acceptance] criterion NN <name>: PASS|FAIL``
line; run ``pytest -s tests/test_acceptance.py`` to see them as they go.
These tests pin tolerances and runtime budgets, so the module runs the full
pipeline many times and takes around a minute, far longer than the unit
suites. Scene pipeline outputs are digested once per (seed, step, noise,
threads) and reused across tests.
"""

import hashlib
import math
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from pathidw import (
    CostSurface,
    GridGeometry,
    InterpConfig,
    PointSet,
    PolygonSet,
    RasterGrid,
    cross_validate,
    grid_split,
    interpolate_idw,
    interpolate_ipdw,
    make_scene,
    nearest_sources,
    wilcoxon_signed_rank,
)
from pathidw.cli import main
from pathidw.fileio import (
    read_ascii_grid,
    read_points,
    write_ascii_grid,
    write_error_report,
    write_points,
    write_polygons,
)
from pathidw.validation import _approx_two_sided_p, _average_ranks

NODATA = -9999.0


@contextmanager
def _criterion(number, name):
    """Print exactly one PASS/FAIL line for the enclosed checks."""
    outcome = {"detail": ""}
    try:
        yield outcome
    except BaseException as exc:
        note = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"[acceptance] criterion {number:02d} {name}: FAIL ({note})")
        raise
    print(f"[acceptance] criterion {number:02d} {name}: PASS ({outcome['detail']})")


# ---------------------------------------------------------------------------
# Shared two-basin pipeline: survey -> split -> both interpolators -> report.
# Digests cover the four written artifacts, so byte-identity across reruns
# and thread counts reduces to digest equality.

MESH_CELLSIZE = 1095.4
STEP_SWEEP = (5.0, 10.0, 20.0, 40.0)
N_SCENES = 100


@dataclass(frozen=True)
class PipelineResult:
    mae_path: float
    mae_line: float
    digest: str


_pipeline_cache: dict[tuple, PipelineResult] = {}


def _run_pipeline(seed, step, noise_sd, threads) -> PipelineResult:
    key = (seed, step, noise_sd, threads)
    hit = _pipeline_cache.get(key)
    if hit is not None:
        return hit
    scene = make_scene("two-basin", step=step, noise_sd=noise_sd, seed=seed)
    cost = scene.cost()
    split = grid_split(scene.track, MESH_CELLSIZE, 1, seed)
    config = InterpConfig(power=2.0, n_nearest=10)
    pred_path = interpolate_ipdw(split.training, cost, config, threads=threads)
    pred_line = interpolate_idw(split.training, cost.geometry, config, mask=cost)
    report_path = cross_validate(pred_path, split.validation)
    report_line = cross_validate(pred_line, split.validation)

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as td:
        for stem, artifact, writer in (
            ("pred_ipdw.asc", pred_path, write_ascii_grid),
            ("pred_idw.asc", pred_line, write_ascii_grid),
            ("report_ipdw.csv", report_path, write_error_report),
            ("report_idw.csv", report_line, write_error_report),
        ):
            target = Path(td) / stem
            writer(artifact, target)
            digest.update(target.read_bytes())

    result = PipelineResult(report_path.mae, report_line.mae, digest.hexdigest())
    _pipeline_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# Criterion 1: grid path distances match a brute-force oracle exactly.


def _random_cost_grid(rng):
    nrows = int(rng.integers(1, 13))
    ncols = int(rng.integers(1, 13))
    water = float(rng.choice([0.5, 1.0, 4.0]))
    land = water * float(rng.choice([100.0, 1000.0, 10000.0]))
    cellsize = float(rng.choice([1.0, 10.0, 60.0]))
    values = np.where(rng.random((nrows, ncols)) < 0.7, water, land)
    if rng.random() < 0.4:
        values[rng.random((nrows, ncols)) < 0.15] = NODATA
    if (values == NODATA).all():
        values[0, 0] = water
    raster = RasterGrid(GridGeometry(ncols, nrows, 0.0, 0.0, cellsize), values, NODATA)
    return CostSurface(raster, water_cost=water, land_cost=land)


def test_criterion_01_paths_match_brute_force():
    with _criterion(1, "path distances match brute force") as out:
        rng = np.random.default_rng(11001)
        started = time.perf_counter()
        fields_checked = 0
        for _ in range(200):
            cost = _random_cost_grid(rng)
            water = cost.is_water.ravel()
            # The oracle relaxes over water only: land becomes nodata.
            values = np.where(cost.is_water, cost.raster.values, NODATA)
            cellsize = cost.geometry.cellsize
            sources = [tuple(rc) for rc in np.argwhere(cost.is_water)]
            edges = oracles.grid_edges(values, NODATA, cost.water_cost, cellsize)
            dist, _ = nearest_sources(cost, sources)
            for source, got in zip(sources, dist):
                expected = oracles.relax_distances(
                    values, source, NODATA, cost.water_cost, cellsize, edges=edges)
                assert np.array_equal(got, expected[water]), (
                    f"distance mismatch from {source}")
                fields_checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"budget 30 s, took {elapsed:.1f} s"
        out["detail"] = (f"200 grids, {fields_checked} source fields bitwise equal, "
                         f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 2: on open water the path distance stays between the straight
# line and its octile bound.


def test_criterion_02_octile_distance_bounds():
    # At 45 degrees the path and the straight line are mathematically equal
    # but round differently after ~300 additions, leaving the straight line
    # ahead by a few 1e-11 m. Allow 1e-9 m on the lower bound for that.
    lower_slack = 1e-9
    with _criterion(2, "octile distance bounds") as out:
        rng = np.random.default_rng(11002)
        started = time.perf_counter()
        cells_checked = 0
        worst_lower = -math.inf
        worst_upper = -math.inf
        for i in range(50):
            if i < 2:
                nrows = ncols = 200
            else:
                nrows = int(rng.integers(2, 201))
                ncols = int(rng.integers(2, 201))
            cellsize = float(rng.choice([1.0, 10.0, 60.0, 100.0]))
            geom = GridGeometry(ncols, nrows, 0.0, 0.0, cellsize)
            cost = CostSurface(RasterGrid(geom, np.ones((nrows, ncols)), NODATA))
            sources = [(int(rng.integers(nrows)), int(rng.integers(ncols)))
                       for _ in range(2)]
            cx, cy = geom.cell_centers()
            dist, _ = nearest_sources(cost, sources)
            for (r, c), row in zip(sources, dist):
                path = row.reshape(nrows, ncols)
                assert np.isfinite(path).all(), "open water must be fully reachable"
                euclid = np.hypot(cx - cx[r, c], cy - cy[r, c])
                worst_lower = max(worst_lower, float((euclid - path).max()))
                upper = path - (oracles.OCTILE_FACTOR * euclid + cellsize)
                worst_upper = max(worst_upper, float(upper.max()))
                cells_checked += path.size
        assert worst_lower <= lower_slack, (
            f"straight line exceeded the path by {worst_lower} m")
        assert worst_upper <= 0.0, (
            f"path exceeded its octile bound by {worst_upper} m")
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"budget 60 s, took {elapsed:.1f} s"
        out["detail"] = (f"{cells_checked} pairs, lower slack {worst_lower:.2e} m, "
                         f"upper margin {-worst_upper:.0f} m, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 3: converting water cells to land never shortens any distance.


def test_criterion_03_hardening_never_shortens():
    def sample_matrix(cost, cells):
        dist, _ = nearest_sources(cost, cells)
        water_flat = np.flatnonzero(cost.is_water.ravel())
        ncols = cost.geometry.ncols
        return dist[:, np.searchsorted(water_flat, [r * ncols + c for r, c in cells])]

    with _criterion(3, "hardening cells never shortens paths") as out:
        rng = np.random.default_rng(11003)
        grids = 0
        while grids < 20:
            nrows = int(rng.integers(12, 19))
            ncols = int(rng.integers(12, 19))
            values = np.where(rng.random((nrows, ncols)) < 0.85, 1.0, 10000.0)
            if rng.random() < 0.3:
                values[rng.random((nrows, ncols)) < 0.08] = NODATA
            water_cells = np.argwhere(values == 1.0)
            if len(water_cells) < 26:
                continue
            picked = rng.choice(len(water_cells), size=25, replace=False)
            samples = [tuple(water_cells[k]) for k in picked[:5]]
            flips = [tuple(water_cells[k]) for k in picked[5:]]

            geom = GridGeometry(ncols, nrows, 0.0, 0.0, 60.0)
            before = sample_matrix(
                CostSurface(RasterGrid(geom, values, NODATA)), samples)
            hardened = values.copy()
            for r, c in flips:
                hardened[r, c] = 10000.0
            after = sample_matrix(
                CostSurface(RasterGrid(geom, hardened, NODATA)), samples)

            assert np.all(after >= before), (
                f"a distance dropped after hardening: {(after - before).min()}")
            grids += 1
        out["detail"] = "20 grids, 20 flips each, all 5x5 sample matrices monotone"


# ---------------------------------------------------------------------------
# Criterion 4: the estimator agrees with direct evaluation of the weighted
# mean and keeps its exactness-at-zero and convexity guarantees.


def test_criterion_04_estimator_matches_direct_evaluation():
    with _criterion(4, "estimator matches direct evaluation") as out:
        rng = np.random.default_rng(11004)
        zero_sets = empty_sets = 0
        for _ in range(1000):
            k = int(rng.integers(1, 13))
            scale = 10.0 ** rng.uniform(-2.0, 3.0)
            d = rng.uniform(0.0, 2.0, k) * scale
            d[d == 0.0] = scale
            if rng.random() < 0.10:
                d[int(rng.integers(k))] = 0.0
            if k >= 2 and rng.random() < 0.15:
                i, j = rng.choice(k, size=2, replace=False)
                d[j] = d[i]
            v = rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 2.0), k)
            power = float(rng.uniform(0.5, 4.0))

            mode = int(rng.integers(3))
            n_nearest = max_distance = None
            if mode == 1:
                n_nearest = int(rng.integers(1, k + 1))
                config = InterpConfig.nearest(n_nearest, power=power)
            elif mode == 2:
                max_distance = float(max(rng.uniform(0.0, 2.2) * scale,
                                         1e-9 * scale))
                config = InterpConfig.within(max_distance, power=power)
            else:
                config = InterpConfig.all_points(power=power)

            pairs = list(zip(d.tolist(), v.tolist()))
            # one target's column, as the engines hand it to the estimator
            est, has = oracles.estimate_dense(d[:, None], v, config)
            ref = oracles.shepard_direct(pairs, power, n_nearest=n_nearest,
                                         max_distance=max_distance)
            if not has[0] or ref is None:
                assert not has[0] and ref is None
                empty_sets += 1
                continue
            got = float(est[0])
            assert got == ref or abs(got - ref) <= 1e-12 * max(abs(got), abs(ref)), (
                f"estimate {got!r} vs direct {ref!r}")

            if mode == 1:
                order = sorted(range(k), key=lambda i: (pairs[i][0], i))
                used = [pairs[i] for i in order[:n_nearest]]
            elif mode == 2:
                used = [p for p in pairs if p[0] <= max_distance]
            else:
                used = pairs
            zero_vals = [val for dist, val in used if dist == 0.0]
            if zero_vals:
                zero_sets += 1
                mean = math.fsum(zero_vals) / len(zero_vals)
                assert abs(got - mean) <= 1e-12 * max(1.0, abs(mean))
                if len(zero_vals) == 1:
                    assert got == zero_vals[0]
                cushion = 1e-12 * (1.0 + max(zero_vals) - min(zero_vals))
                assert min(zero_vals) - cushion <= got <= max(zero_vals) + cushion
            else:
                lo = min(val for _, val in used)
                hi = max(val for _, val in used)
                assert lo <= got <= hi, f"estimate {got} outside [{lo}, {hi}]"
        out["detail"] = (f"1000 neighbor sets at 1e-12 relative, "
                         f"{zero_sets} with a zero distance, {empty_sets} empty")


# ---------------------------------------------------------------------------
# Criterion 5: across 100 noisy two-basin surveys, routing around the
# barrier wins on MAE nearly always and the paired test is decisive.


def test_criterion_05_routing_beats_straight_line():
    with _criterion(5, "in-water routing beats straight-line") as out:
        started = time.perf_counter()
        results = [_run_pipeline(seed, 10.0, 0.5, 1) for seed in range(N_SCENES)]
        elapsed = time.perf_counter() - started
        wins = sum(r.mae_path < r.mae_line for r in results)
        test = wilcoxon_signed_rank([r.mae_line for r in results],
                                    [r.mae_path for r in results])
        assert wins >= 95, f"only {wins}/{N_SCENES} scenes favored routing"
        assert test.p_value < 0.01, f"p={test.p_value} not significant"
        assert elapsed < 600.0, f"budget 600 s, took {elapsed:.1f} s"
        out["detail"] = (f"{wins}/{N_SCENES} wins, two-sided p={test.p_value:.1e} "
                         f"({test.method}), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 6: larger basin contrast means larger error for both methods,
# and the straight-line handicap keeps growing.


def test_criterion_06_error_grows_with_contrast():
    # Survey noise scales with the step (constant signal-to-noise), so the
    # sweep isolates how the error responds to the contrast itself.
    with _criterion(6, "error grows with contrast step") as out:
        runs = [_run_pipeline(0, step, 0.05 * step, 1) for step in STEP_SWEEP]
        path_maes = [r.mae_path for r in runs]
        line_maes = [r.mae_line for r in runs]
        gaps = [r.mae_line - r.mae_path for r in runs]
        for prev, cur in zip(path_maes, path_maes[1:]):
            assert cur > prev, f"routed MAE not strictly increasing: {path_maes}"
        for prev, cur in zip(line_maes, line_maes[1:]):
            assert cur > prev, f"straight-line MAE not strictly increasing: {line_maes}"
        for prev, cur in zip(gaps, gaps[1:]):
            assert cur >= prev, f"MAE gap decreased: {gaps}"
        out["detail"] = ("steps " + "/".join(f"{s:g}" for s in STEP_SWEEP)
                         + " gap " + "/".join(f"{g:.3f}" for g in gaps))


# ---------------------------------------------------------------------------
# Criterion 7: with zero survey noise the routed estimates never leak the
# other basin's value across the wall, while straight-line ones do.


def test_criterion_07_no_bleed_across_barriers():
    with _criterion(7, "no bleed across barriers") as out:
        step = 10.0
        scene = make_scene("two-basin", step=step, noise_sd=0.0, seed=0)
        cost = scene.cost()
        split = grid_split(scene.track, MESH_CELLSIZE, 1, 0)
        config = InterpConfig(power=2.0, n_nearest=10)
        pred_path = interpolate_ipdw(split.training, cost, config, threads=1)
        pred_line = interpolate_idw(split.training, cost.geometry, config, mask=cost)

        truth = scene.truth.values
        known = truth != scene.truth.nodata

        routed = pred_path.values
        predicted = (routed != pred_path.nodata) & known
        assert predicted.any()
        routed_err = float(np.abs(routed - truth)[predicted].max())
        assert routed_err <= 1e-9, f"routed estimate off truth by {routed_err}"

        land = cost.is_land
        beside_wall = np.zeros_like(land)
        beside_wall[:, 1:] |= land[:, :-1]
        beside_wall[:, :-1] |= land[:, 1:]
        beside_wall[1:, :] |= land[:-1, :]
        beside_wall[:-1, :] |= land[1:, :]
        straight = pred_line.values
        sel = beside_wall & cost.is_water & (straight != pred_line.nodata) & known
        assert sel.any()
        leaks = int((np.abs(straight - truth)[sel] > 0.1 * step).sum())
        assert leaks >= 1, "no straight-line cell near the wall deviated > 10% of step"
        out["detail"] = (f"routed max error {routed_err:.1e}, "
                         f"{leaks}/{int(sel.sum())} wall-adjacent straight-line "
                         f"cells leak > 10% of step")


# ---------------------------------------------------------------------------
# Criterion 8: the exact signed-rank distribution equals full enumeration,
# and the normal approximation is close by n = 25.


def _distinct_magnitudes(rng, n):
    while True:
        mags = np.round(rng.uniform(0.5, 50.0, n), 6)
        if len(np.unique(mags)) == n:
            return mags


def test_criterion_08_signed_rank_exact_and_approximate():
    with _criterion(8, "signed-rank test exact and approximate") as out:
        rng = np.random.default_rng(11008)
        inputs = 0
        for n in range(1, 11):
            # Only the signs attached to each rank matter for a tie-free
            # sample, so sweeping all 2^n sign patterns over one set of
            # distinct magnitudes covers every tie-free input of size n.
            mags = _distinct_magnitudes(rng, n)
            for bits in range(2 ** n):
                signs = np.where((bits >> np.arange(n)) & 1, 1.0, -1.0)
                diffs = signs * mags
                if n == 1:
                    # the production test wants >= 2 pairs; a zero pair is
                    # dropped and leaves a single retained difference
                    a = np.array([diffs[0], 3.0])
                    b = np.array([0.0, 3.0])
                else:
                    a, b = diffs, np.zeros(n)
                got = wilcoxon_signed_rank(a, b)
                assert got.method == "exact", (n, bits)
                want_stat, want_p = oracles.wilcoxon_enumerate(diffs)
                assert got.statistic == want_stat, (n, bits)
                assert got.p_value == want_p, (n, bits)
                assert got.n_pairs == n
                inputs += 1

        worst = 0.0
        for _ in range(100):
            mags = _distinct_magnitudes(rng, 25)
            signs = np.where(rng.random(25) < 0.5, 1.0, -1.0)
            a, b = signs * mags, np.zeros(25)
            exact = wilcoxon_signed_rank(a, b)
            assert exact.method == "exact"
            p_exact = exact.p_value
            # the normal approximation that n > EXACT_LIMIT would take
            ranks = _average_ranks(mags)
            p_approx = _approx_two_sided_p(ranks, float(ranks[signs > 0].sum()), 25)
            worst = max(worst, abs(p_exact - p_approx))
        assert worst <= 0.01, f"approximation off by {worst}"
        out["detail"] = (f"{inputs} sign patterns bitwise equal, "
                         f"approx |dp| <= {worst:.4f} at n=25")


# ---------------------------------------------------------------------------
# Criterion 9: edge density equals the combinatorial boundary count on
# closed-form fixtures, and the grain sweep runs end to end.


def _density_from_count(count, n_cells, cellsize):
    # mirror of the production formula: meters of boundary per hectare
    return (count * cellsize) / (n_cells * cellsize * cellsize / 10000.0)


def test_criterion_09_edge_density_and_grain_sweep(tmp_path):
    from pathidw.metrics import edge_density

    with _criterion(9, "edge density counts and grain sweep") as out:
        cellsize = 60.0
        for nrows, ncols in ((7, 9), (4, 4), (1, 2)):
            rows = np.arange(nrows)[:, None]
            cols = np.arange(ncols)[None, :]
            values = np.where((rows + cols) % 2 == 0, 1.0, 10000.0)
            geom = GridGeometry(ncols, nrows, 0.0, 0.0, cellsize)
            got = edge_density(CostSurface(RasterGrid(geom, values, NODATA)))
            count = nrows * (ncols - 1) + ncols * (nrows - 1)
            assert got == _density_from_count(count, nrows * ncols, cellsize), (
                f"checkerboard {nrows}x{ncols}")

        values = np.ones((20, 30))
        values[5:11, 8:19] = 10000.0
        geom = GridGeometry(30, 20, 0.0, 0.0, cellsize)
        got = edge_density(CostSurface(RasterGrid(geom, values, NODATA)))
        assert got == _density_from_count(2 * (6 + 11), 600, cellsize), "rectangle"

        def ring(x0, y0, x1, y1):
            return np.array(
                [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=float)

        islands = PolygonSet((
            ring(400.0, 500.0, 1900.0, 1400.0),
            ring(2600.0, 300.0, 3400.0, 2300.0),
            ring(1200.0, 3100.0, 2100.0, 5200.0),
            ring(3900.0, 3600.0, 5300.0, 4800.0),
            ring(4300.0, 900.0, 5600.0, 1700.0),
        ))
        poly_path = tmp_path / "islands.txt"
        write_polygons(islands, poly_path)
        sweep_path = tmp_path / "sweep.csv"
        rc = main([
            "scalogram", "--polygons", str(poly_path), "--extent", "0,0,6000,6000",
            "--cellsizes", "50..100:10", "--out", str(sweep_path),
        ])
        assert rc == 0
        rows = [
            line.split(",") for line in sweep_path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("cellsize")
        ]
        sizes = [float(r[0]) for r in rows]
        densities = [float(r[1]) for r in rows]
        assert sizes == [50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert all(dens > 0 and math.isfinite(dens) for dens in densities)
        out["detail"] = (f"4 fixtures exact, sweep rows at "
                         + "/".join(f"{s:g}" for s in sizes) + " m")


# ---------------------------------------------------------------------------
# Criterion 10: write -> read -> write is byte-stable for rasters and
# point tables.


def test_criterion_10_file_round_trips_are_byte_stable(tmp_path):
    with _criterion(10, "file round trips are byte stable") as out:
        rng = np.random.default_rng(11010)
        total_bytes = 0
        for i in range(100):
            nrows = int(rng.integers(1, 26))
            ncols = int(rng.integers(1, 26))
            cellsize = float(rng.choice([0.5, 1.0, 30.0, 60.0]))
            xll = float(np.round(rng.uniform(-1e5, 1e5), 3))
            yll = float(np.round(rng.uniform(-1e5, 1e5), 3))
            values = rng.uniform(-1e5, 1e5, (nrows, ncols))
            values[rng.random((nrows, ncols)) < 0.15] = NODATA
            raster = RasterGrid(
                GridGeometry(ncols, nrows, xll, yll, cellsize), values, NODATA)

            first = tmp_path / f"grid_{i}.asc"
            second = tmp_path / f"grid_{i}_rt.asc"
            write_ascii_grid(raster, first)
            write_ascii_grid(read_ascii_grid(first), second)
            a, b = first.read_bytes(), second.read_bytes()
            assert a == b, f"raster {i} changed on re-write"
            total_bytes += len(a)

        for i in range(100):
            n = int(rng.integers(1, 61))
            points = PointSet(
                rng.uniform(-1e6, 1e6, n),
                rng.uniform(-1e6, 1e6, n),
                rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 3.0), n),
            )
            first = tmp_path / f"pts_{i}.csv"
            second = tmp_path / f"pts_{i}_rt.csv"
            write_points(points, first)
            loaded, skipped = read_points(first)
            assert skipped == 0
            write_points(loaded, second)
            a, b = first.read_bytes(), second.read_bytes()
            assert a == b, f"point set {i} changed on re-write"
            total_bytes += len(a)
        out["detail"] = f"100 rasters + 100 point sets, {total_bytes} bytes stable"


# ---------------------------------------------------------------------------
# Criterion 11: every pipeline artifact is byte-identical no matter the
# thread count.


def test_criterion_11_thread_count_leaves_outputs_unchanged():
    scenes = ([(seed, 10.0, 0.5) for seed in range(N_SCENES)]
              + [(0, step, 0.05 * step) for step in STEP_SWEEP]
              + [(0, 10.0, 0.0)])
    with _criterion(11, "thread count leaves outputs unchanged") as out:
        reruns = 0
        for threads in (2, 8):
            for seed, step, noise_sd in scenes:
                base = _run_pipeline(seed, step, noise_sd, 1)
                rerun = _run_pipeline(seed, step, noise_sd, threads)
                assert rerun.digest == base.digest, (
                    f"threads={threads} changed scene {(seed, step, noise_sd)}")
                reruns += 1
        out["detail"] = (f"{len(scenes)} scenes x threads 2 and 8, "
                         f"{reruns} digests equal to the single-thread run")
