import numpy as np
import pytest

from warpgeo import ConfigurationError, sample_points


def test_deterministic_for_fixed_seed():
    a = sample_points([0.0, -1.0], [1.0, 1.0], 10, 42, margin=4e-5)
    b = sample_points([0.0, -1.0], [1.0, 1.0], 10, 42, margin=4e-5)
    assert np.array_equal(a, b)
    c = sample_points([0.0, -1.0], [1.0, 1.0], 10, 43, margin=4e-5)
    assert not np.array_equal(a, c)


def test_single_point_interior():
    pts = sample_points([0.0], [1.0], 1, 7, margin=4e-5)
    assert pts.shape == (1, 1)
    assert 0.0 < pts[0, 0] < 1.0


def test_margin_respected():
    h = 1e-5
    pts = sample_points([0.0, 2.0], [1.0, 3.0], 200, 5, margin=4 * h)
    lo = np.array([0.0, 2.0])
    hi = np.array([1.0, 3.0])
    assert np.all(pts - lo >= 4 * h)
    assert np.all(hi - pts >= 4 * h)


def test_degenerate_box_rejected():
    with pytest.raises(ConfigurationError):
        sample_points([0.0], [1e-6], 3, 0, margin=1e-5)
    with pytest.raises(ConfigurationError):
        sample_points([0.0], [np.inf], 3, 0, margin=1e-5)
    with pytest.raises(ConfigurationError):
        sample_points([0.0], [1.0], 0, 0, margin=1e-5)


@pytest.mark.parametrize("margin", [np.nan, np.inf, -5.0, -1e-5])
def test_margin_must_be_finite_and_non_negative(margin):
    with pytest.raises(ConfigurationError, match="margin"):
        sample_points([0.0], [1.0], 3, 0, margin=margin)
