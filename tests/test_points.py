import numpy as np
import pytest

from pathidw import PointSet


class TestPointSet:
    def test_basic_construction(self):
        pts = PointSet(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0]))
        assert len(pts) == 2
        assert pts.x.dtype == np.float64

    def test_from_records(self):
        pts = PointSet.from_records([(1, 2, 3), (4, 5, 6)])
        assert list(pts.x) == [1.0, 4.0]
        assert list(pts.values) == [3.0, 6.0]

    def test_from_records_empty(self):
        pts = PointSet.from_records([])
        assert len(pts) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointSet(np.array([1.0]), np.array([1.0, 2.0]), np.array([1.0]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            PointSet(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointSet(np.array([np.nan]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PointSet(np.array([1.0]), np.array([1.0]), np.array([np.inf]))

    def test_arrays_are_read_only_copies(self):
        src = np.array([1.0, 2.0])
        pts = PointSet(src, src.copy(), src.copy())
        with pytest.raises(ValueError):
            pts.x[0] = 9.0
        # the caller's array is untouched and still writable
        src[0] = 9.0
        assert pts.x[0] == 1.0

    def test_subset_preserves_order(self):
        pts = PointSet.from_records([(1, 1, 10), (2, 2, 20), (3, 3, 30)])
        sub = pts.subset([2, 0])
        assert list(sub.values) == [30.0, 10.0]
