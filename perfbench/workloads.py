"""The four benchmark workloads: inputs made from a seed, one op, and its check.

Every workload drives pathidw through its public functions only, looked up
on their modules at call time so that ``spans.install`` can wrap them. All
library calls use ``threads=1``, the CLI default.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

import pathidw
import pathidw.cli
import pathidw.fileio

import reference as ref

K = 10
CONFIG = pathidw.InterpConfig.nearest(K)
CELLSIZE = 60.0
SAMPLED_CELLS = 24
WRITTEN_GRID_TOL = 5e-7  # ASCII grids carry 6 decimals


@dataclass
class Checked:
    """Outcome of checking every op of a run against the reference."""

    problems: list            # one list of problem strings per op
    cv_mae: float
    digests: list             # sha256 per op of its prediction raster(s)
    self_test: bool           # a perturbed prediction was caught
    close_problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _grid_of(cost) -> ref.Grid:
    g = cost.geometry
    return ref.Grid(np.array(cost.is_water), g.xll, g.yll, g.cellsize, cost.water_cost)


def _prediction_digest(raster, path: Path) -> str:
    pathidw.fileio.write_ascii_grid(raster, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _perturbation_caught(pred, nodata, grid, sources, expected, **kw) -> bool:
    """The check must reject a copy with one sampled estimate nudged."""
    cell = next((c for c, v in expected.items() if isinstance(v, float)), None)
    if cell is None:
        return False
    nudged = np.array(pred, dtype=float)
    nudged[cell] += 1e-6 * max(1.0, abs(nudged[cell])) + 2 * kw.get("abs_tol", 0.0)
    return bool(ref.check_prediction(nudged, nodata, grid, sources, expected, **kw))


def _ties(expected) -> int:
    return sum(v == "tie" for v in expected.values())


class Workload:
    name = ""
    min_ops = 3
    has_close = False

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def close(self, outputs):
        """Timed closing step after the ops; None when there is none."""
        return None

    def check(self, outputs, closing) -> Checked:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ipdw-dense / idw-dense: one plume scene, many sources

class _PlumeScene(Workload):
    SIZE = 150
    MESH = 500.0

    def setup(self, seed, work):
        self.seed, self.work = seed, work
        scene = pathidw.make_scene("plume", ncols=self.SIZE, nrows=self.SIZE,
                                   cellsize=CELLSIZE, seed=seed)
        cost = scene.cost()
        split = pathidw.grid_split(scene.track, self.MESH, 1, seed)
        fio = pathidw.fileio
        fio.write_points(split.training, work / "train.csv")
        fio.write_points(split.validation, work / "valid.csv")
        fio.write_ascii_grid(cost.raster, work / "cost.asc")
        self.train, _ = fio.read_points(work / "train.csv")
        self.valid, _ = fio.read_points(work / "valid.csv")
        self.cost = pathidw.CostSurface(fio.read_ascii_grid(work / "cost.asc"),
                                        cost.water_cost, cost.land_cost)

    def check(self, outputs, closing):
        grid = _grid_of(self.cost)
        t = self.train
        sources = ref.snap_sources(grid, t.x, t.y, t.values)
        cells = ref.sample_water(grid, SAMPLED_CELLS, [self.seed, 1])
        expected = ref.expected_values(grid, sources, cells, method=self.method, k=K)
        every = self.method == "idw"
        problems, maes, digests = [], [], []
        for pred in outputs:
            if pred is None:
                problems.append(["op raised"])
                digests.append(None)
                continue
            problems.append(ref.check_prediction(pred.values, pred.nodata, grid, sources,
                                                 expected, every_water_cell=every))
            maes.append(ref.mae(pred.values, pred.nodata, grid, self.valid.x,
                                self.valid.y, self.valid.values)[0])
            digests.append(_prediction_digest(pred, self.work / "pred.asc"))
        first = next((p for p in outputs if p is not None), None)
        caught = first is not None and _perturbation_caught(
            first.values, first.nodata, grid, sources, expected, every_water_cell=every)
        return Checked(problems, float(np.mean(maes)) if maes else math.nan, digests,
                       caught, notes=[f"{len(sources.cells)} sources, "
                                      f"{int(grid.water.sum())} water cells, "
                                      f"{len(cells)} sampled cells ({_ties(expected)} ties)"])


class IpdwDense(_PlumeScene):
    name = "ipdw-dense"
    method = "ipdw"

    def op(self, i):
        return pathidw.interpolate_ipdw(self.train, self.cost, CONFIG, threads=1)


class IdwDense(_PlumeScene):
    name = "idw-dense"
    method = "idw"

    def op(self, i):
        return pathidw.interpolate_idw(self.train, self.cost.geometry, CONFIG,
                                       mask=self.cost)


# ---------------------------------------------------------------------------
# survey-batch: the paper's experiment through the CLI

def _read_points_csv(path: Path):
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def _read_asc(path: Path):
    with open(path) as f:
        head = [next(f).split() for _ in range(6)]
        values = np.loadtxt(f, ndmin=2)
    h = {k.lower(): float(v) for k, v in head}
    return values, h


def _read_meta(path: Path, key: str) -> str:
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}:"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"{path.name} has no '{key}' entry")


class SurveyBatch(Workload):
    name = "survey-batch"
    N_SURVEYS = 100
    min_ops = N_SURVEYS
    has_close = True
    MESH = "1095.4"
    EXTENT = "0,0,6000,6000"
    METHODS = ("ipdw", "idw")

    def setup(self, seed, work):
        self.seed, self.work = seed, work
        rng = np.random.default_rng(seed)
        self.survey_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.N_SURVEYS)]
        for i, s in enumerate(self.survey_seeds):
            scene = pathidw.make_scene("two-basin", step=10.0, noise_sd=0.5, seed=s)
            d = work / f"in{i}"
            d.mkdir()
            pathidw.fileio.write_polygons(scene.polygons, d / "polygons.txt")
            pathidw.fileio.write_points(scene.track, d / "track.csv")

    def _cli(self, *argv):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = pathidw.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"pathidw {argv[0]} exited {code}: {err.getvalue().strip()}")

    def op(self, i):
        survey = i % self.N_SURVEYS
        src, d = self.work / f"in{survey}", self.work / f"op{i}"
        d.mkdir()
        self._cli("costraster", "--polygons", src / "polygons.txt", "--extent", self.EXTENT,
                  "--cellsize", CELLSIZE, "--out", d / "cost.asc")
        self._cli("split", "--points", src / "track.csv", "--mesh-cellsize", self.MESH,
                  "--seed", self.survey_seeds[survey], "--train-out", d / "train.csv",
                  "--valid-out", d / "valid.csv")
        for m in self.METHODS:
            self._cli("interpolate", "--method", m, "--train", d / "train.csv",
                      "--cost", d / "cost.asc", "--out", d / f"pred_{m}.asc")
            self._cli("crossval", "--pred", d / f"pred_{m}.asc", "--valid", d / "valid.csv",
                      "--out", d / f"report_{m}.csv")
        return d

    def close(self, outputs):
        batch = outputs[:self.N_SURVEYS]
        if len(batch) < self.N_SURVEYS or any(d is None for d in batch):
            raise RuntimeError("the compare step needs every survey of the batch")
        test, table = self.work / "paired_test.csv", self.work / "range_table.csv"
        self._cli("compare", "--reports-a", *[d / "report_ipdw.csv" for d in batch],
                  "--reports-b", *[d / "report_idw.csv" for d in batch],
                  "--out-test", test, "--out-table", table)
        return test

    def check(self, outputs, closing):
        problems, maes, digests, pairs = [], [], [], []
        caught = self._caught = False
        for i, d in enumerate(outputs):
            if d is None:
                problems.append(["op raised"])
                digests.append(None)
                continue
            found, errs = self._check_survey(i, d)
            problems.append(found)
            maes.extend(errs.values())
            pairs.append((errs["ipdw"], errs["idw"]))
            digest = hashlib.sha256()
            for m in self.METHODS:
                digest.update((d / f"pred_{m}.asc").read_bytes())
            digests.append(digest.hexdigest())
            if i == 0:
                caught = self._caught
        close_problems = []
        batch = pairs[:self.N_SURVEYS]
        wins = sum(a < b for a, b in batch)
        if wins < 95:
            close_problems.append(f"routing won only {wins} of {len(batch)} surveys")
        p = math.nan
        if closing is None:
            close_problems.append("compare step did not run")
        else:
            p = float(_read_csv_row(closing)["p_value"])
            if not p < 0.01:
                close_problems.append(f"paired test p={p} is not below 0.01")
        return Checked(problems, float(np.mean(maes)) if maes else math.nan, digests,
                       caught, close_problems,
                       notes=[f"routing won {wins} of {len(batch)} surveys, p={p:.3g}"])

    def _check_survey(self, i, d: Path):
        cost, h = _read_asc(d / "cost.asc")
        water_cost = cost[cost != h["nodata_value"]].min()
        grid = ref.Grid(cost == water_cost, h["xllcorner"], h["yllcorner"], h["cellsize"],
                        float(water_cost))
        tx, ty, tv = _read_points_csv(d / "train.csv")
        vx, vy, vv = _read_points_csv(d / "valid.csv")
        sources = ref.snap_sources(grid, tx, ty, tv)
        cells = ref.sample_water(grid, 1, [self.seed, i])
        problems, errs = [], {}
        for m in self.METHODS:
            pred, ph = _read_asc(d / f"pred_{m}.asc")
            nodata = ph["nodata_value"]
            expected = ref.expected_values(grid, sources, cells, method=m, k=K)
            kw = dict(every_water_cell=m == "idw", abs_tol=WRITTEN_GRID_TOL)
            problems += [f"{m}: {p}" for p in ref.check_prediction(
                pred, nodata, grid, sources, expected, **kw)]
            errs[m], n = ref.mae(pred, nodata, grid, vx, vy, vv)
            reported = float(_read_meta(d / f"report_{m}.csv", "mae"))
            if abs(reported - errs[m]) > ref.REL_TOL * max(1.0, errs[m]):
                problems.append(f"{m}: crossval reports mae {reported!r}, expected {errs[m]!r}")
            if i == 0 and m == "ipdw":
                self._caught = _perturbation_caught(pred, nodata, grid, sources,
                                                    expected, **kw)
        return problems, errs


def _read_csv_row(path: Path) -> dict:
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


# ---------------------------------------------------------------------------
# fragmented-sparse: many islands, sealed basins, few sources

class FragmentedSparse(Workload):
    name = "fragmented-sparse"
    SIZE = 200
    N_ISLANDS = 80
    N_SOURCES = 100
    N_VALID = 1000
    # ops cycle through several seeded surveys of one landscape, so that
    # cv_mae does not hinge on where a single survey happened to fall
    N_DRAWS = 4
    min_ops = N_DRAWS
    SAMPLED_PER_DRAW = 8
    GRAINS = tuple(CELLSIZE * f for f in (1, 1.5, 2, 2.5, 3, 4, 5, 6))
    # vertical walls (fraction of the width) and, per band between them,
    # horizontal walls (fraction of the height) sealing basins off
    WALLS_X = (0.2, 0.4, 0.6, 0.8)
    WALLS_Y = ((0.25, 0.5, 0.75), (0.33, 0.66), (0.5,), (0.2, 0.4, 0.6, 0.8), (0.5,))

    def setup(self, seed, work):
        self.seed, self.work = seed, work
        n = self.SIZE
        self.geometry = pathidw.GridGeometry(n, n, 0.0, 0.0, CELLSIZE)
        rng = np.random.default_rng(seed)
        fio = pathidw.fileio
        fio.write_polygons(pathidw.PolygonSet(self._rings(rng)), work / "polygons.txt")
        self.polygons = fio.read_polygons(work / "polygons.txt")
        water = pathidw.rasterize_land(self.polygons, self.geometry).is_water
        self.draws = []
        for d in range(self.N_DRAWS):
            for name, count in (("train", self.N_SOURCES), ("valid", self.N_VALID)):
                x, y = self._water_points(rng, water, count)
                values = self._truth(x, y) + 0.5 * rng.standard_normal(count)
                fio.write_points(pathidw.PointSet(x, y, values), work / f"{name}{d}.csv")
            self.draws.append((fio.read_points(work / f"train{d}.csv")[0],
                               fio.read_points(work / f"valid{d}.csv")[0]))

    def _rings(self, rng):
        n, cs = self.SIZE, CELLSIZE
        rings = []
        cols = [round(f * n) for f in self.WALLS_X]
        for c in cols:
            rings.append(_rect(c * cs, -cs, (c + 1) * cs, (n + 1) * cs))
        bounds = [-1] + cols + [n]
        for band, fractions in enumerate(self.WALLS_Y):
            left, right = bounds[band], bounds[band + 1]
            for f in fractions:
                u = round(f * n)
                rings.append(_rect(left * cs, u * cs, (right + 1) * cs, (u + 1) * cs))
        for _ in range(self.N_ISLANDS):
            cx, cy = rng.uniform(0, n * cs, size=2)
            radius = rng.uniform(2.0, 6.0) * cs
            m = int(rng.integers(24, 49))
            theta = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
            r = radius * (1 + 0.35 * np.sin(rng.integers(2, 6) * theta + rng.uniform(0, 6.3))
                          + 0.15 * rng.uniform(-1, 1, m))
            ring = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
            rings.append(np.vstack([ring, ring[:1]]))
        return tuple(rings)

    def _water_points(self, rng, water, count):
        side = self.SIZE * CELLSIZE
        x = np.empty(0)
        y = np.empty(0)
        while len(x) < count:
            px, py = rng.uniform(0, side, size=(2, 4 * count))
            rows = self.SIZE - 1 - np.floor(py / CELLSIZE).astype(int)
            cols = np.floor(px / CELLSIZE).astype(int)
            keep = water[rows, cols]
            x, y = np.concatenate([x, px[keep]]), np.concatenate([y, py[keep]])
        return x[:count], y[:count]

    def _truth(self, x, y):
        side = self.SIZE * CELLSIZE
        band = np.searchsorted(np.array(self.WALLS_X) * side, x)
        basin = np.zeros(len(x))
        for b, fractions in enumerate(self.WALLS_Y):
            below = np.searchsorted(np.array(fractions) * side, y) if fractions else 0
            basin = np.where(band == b, 3 * b + below, basin)
        return (20.0 + 2.5 * basin + 0.5 * np.sin(3 * np.pi * x / side)
                + 0.5 * np.cos(2 * np.pi * y / side))

    def op(self, i):
        train, valid = self.draws[i % self.N_DRAWS]
        cost = pathidw.rasterize_land(self.polygons, self.geometry)
        grains = pathidw.scalogram(self.polygons, self.geometry, self.GRAINS)
        pred = pathidw.interpolate_ipdw(train, cost, CONFIG, threads=1)
        report = pathidw.cross_validate(pred, valid)
        return cost, grains, pred, report

    def check(self, outputs, closing):
        rings = self.polygons.rings
        geom = self.geometry
        shape = (geom.nrows, geom.ncols)
        rng = np.random.default_rng([self.seed, 2])
        probe = rng.integers(0, geom.n_cells, size=400)
        pr, pc = np.unravel_index(probe, shape)
        cx, cy = geom.xll + (pc + 0.5) * CELLSIZE, geom.yll + (shape[0] - pr - 0.5) * CELLSIZE
        probe_land = ref.inside_rings(rings, cx, cy)
        coarse = self.GRAINS[-1]
        nc = math.ceil(geom.width / coarse - 1e-9)
        nr = math.ceil(geom.height / coarse - 1e-9)
        gx = geom.xll + (np.arange(nc) + 0.5) * coarse
        gy = geom.yll + (nr - np.arange(nr) - 0.5) * coarse
        coarse_density = ref.edge_density(
            ref.inside_rings(rings, *np.meshgrid(gx, gy)), coarse)

        first = next((o for o in outputs if o is not None), None)
        grid = _grid_of(first[0]) if first is not None else None
        refs = {}  # draw -> (sources, expected)
        problems, errs, digests = [], {}, []
        for i, out in enumerate(outputs):
            if out is None:
                problems.append(["op raised"])
                digests.append(None)
                continue
            draw = i % self.N_DRAWS
            train, valid = self.draws[draw]
            if draw not in refs:
                sources = ref.snap_sources(grid, train.x, train.y, train.values)
                cells = ref.sample_water(grid, self.SAMPLED_PER_DRAW, [self.seed, 1, draw])
                refs[draw] = sources, ref.expected_values(grid, sources, cells,
                                                          method="ipdw", k=K)
            sources, expected = refs[draw]
            cost, grains, pred, report = out
            found = []
            if (cost.is_land[pr, pc] != probe_land).any():
                found.append("rasterized land differs from even-odd containment")
            if tuple(r[0] for r in grains.rows) != self.GRAINS:
                found.append("scalogram rows do not match the requested grains")
            elif abs(grains.rows[-1][1] - coarse_density) > ref.REL_TOL * max(1.0, coarse_density):
                found.append(f"edge density at {coarse:g} m is {grains.rows[-1][1]!r}, "
                             f"expected {coarse_density!r}")
            if not np.array_equal(cost.is_water, grid.water):
                found.append("cost surface differs between ops")
            found += ref.check_prediction(pred.values, pred.nodata, grid, sources, expected,
                                          every_water_cell=False)
            err, n = ref.mae(pred.values, pred.nodata, grid, valid.x, valid.y, valid.values)
            if report.n_evaluated != n or abs(report.mae - err) > ref.REL_TOL * max(1.0, err):
                found.append(f"crossval mae {report.mae!r} over {report.n_evaluated} points, "
                             f"expected {err!r} over {n}")
            problems.append(found)
            errs[draw] = err
            digests.append(_prediction_digest(pred, self.work / "pred.asc"))
        notes = []
        caught = False
        if 0 in refs:
            sources, expected = refs[0]
            pred = next(o for i, o in enumerate(outputs)
                        if o is not None and i % self.N_DRAWS == 0)[2]
            caught = _perturbation_caught(pred.values, pred.nodata, grid, sources, expected,
                                          every_water_cell=False)
            has = pred.values != pred.nodata
            basins, _ = ndimage.label(grid.water, structure=np.ones((3, 3)))
            per_basin = np.bincount([basins[c] for c in sources.cells],
                                    minlength=basins.max() + 1)
            short = grid.water & (per_basin[basins] < K)
            ties = sum(_ties(e) for _, e in refs.values())
            notes.append(f"survey 0: {len(sources.cells)} sources, "
                         f"{int((per_basin[1:] > 0).sum())} basins with sources, "
                         f"{short.sum() / grid.water.sum():.0%} of water cells in basins "
                         f"with fewer than {K}, {int((grid.water & ~has).sum())} water "
                         f"cells without an estimate; {len(rings)} rings; {ties} ties of "
                         f"{self.SAMPLED_PER_DRAW * len(refs)} sampled cells")
        cv_mae = float(np.mean(list(errs.values()))) if errs else math.nan
        return Checked(problems, cv_mae, digests, caught, notes=notes)


def _rect(x0, y0, x1, y1):
    return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])


WORKLOADS = {w.name: w for w in (IpdwDense, IdwDense, SurveyBatch, FragmentedSparse)}
