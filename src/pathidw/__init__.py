"""Inverse path distance weighting over barrier-fragmented water bodies.

Interpolates point measurements (salinity, temperature, and the like) across
water bodies where land blocks straight-line mixing: distances accumulate
along least-cost in-water routes through a two-valued cost raster, and those
path distances drive an inverse distance weighted estimate. A matching
Euclidean IDW, grid-stratified train/validation splitting, cross-validation
metrics, and a paired Wilcoxon test support head-to-head comparisons.
"""

from .costsurface import (CostSurface, PolygonSet, rasterize_land,
                          DEFAULT_LAND_COST, DEFAULT_WATER_COST)
from .errors import (ConsistencyError, FormatError, InputError, PolygonError,
                     SnapError)
from .interpolate import (InterpConfig, interpolate_idw, interpolate_ipdw,
                          snapped_sources)
from .metrics import (KneeCandidate, Scalogram, edge_density, knee_candidate,
                      scalogram)
from .pathdist import (DEFAULT_SNAP_RADIUS, move_graph, nearest_sources,
                       snap_points)
from .points import PointSet
from .raster import DEFAULT_NODATA, GridGeometry, RasterGrid
from .scenes import SCENE_KINDS, SyntheticScene, make_scene
from .validation import (ErrorReport, PairedTestResult, RangeErrorTable,
                         SplitResult, cross_validate, grid_split,
                         range_vs_error, wilcoxon_signed_rank)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError", "CostSurface", "DEFAULT_LAND_COST",
    "DEFAULT_NODATA", "DEFAULT_SNAP_RADIUS", "DEFAULT_WATER_COST",
    "ErrorReport", "FormatError", "GridGeometry", "InputError",
    "InterpConfig", "KneeCandidate", "PairedTestResult", "PointSet",
    "PolygonError", "PolygonSet", "RangeErrorTable", "RasterGrid",
    "SCENE_KINDS", "Scalogram", "SnapError", "SplitResult",
    "SyntheticScene", "cross_validate", "edge_density", "grid_split",
    "interpolate_idw", "interpolate_ipdw", "knee_candidate", "make_scene",
    "move_graph", "nearest_sources", "range_vs_error", "rasterize_land",
    "scalogram", "snap_points", "snapped_sources", "wilcoxon_signed_rank",
]
