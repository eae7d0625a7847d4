import numpy as np
import pytest

from pathidw import PointSet


class TestPointSet:
    def test_basic_construction(self):
        pts = PointSet(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0]))
        assert len(pts) == 2
        assert pts.x.dtype == np.float64

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
        pts = PointSet(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]),
                       np.array([10.0, 20.0, 30.0]))
        sub = pts.subset([2, 0])
        assert list(sub.values) == [30.0, 10.0]
