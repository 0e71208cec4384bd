import numpy as np
import pytest

from riskscale.errors import ParameterError, ShapeError, SingularMatrixError
from riskscale.linalg import (
    as_matrix,
    as_vector,
    assert_positive_semidefinite,
    is_symmetric,
    mat_inverse,
)
from riskscale.rng import RngStream


def _well_conditioned(gen, d):
    a = gen.standard_normal((d, d))
    return a + d * np.eye(d)


def test_identity_inverse():
    for d in (1, 3, 6):
        assert np.array_equal(mat_inverse(np.eye(d)), np.eye(d))


def test_inverse_roundtrip_random():
    gen = RngStream(101).generator()
    for _ in range(10):
        a = _well_conditioned(gen, 4)
        prod = a @ mat_inverse(a)
        assert np.abs(prod - np.eye(4)).max() < 1e-10


def test_double_inverse_is_identity_map():
    gen = RngStream(102).generator()
    for _ in range(10):
        a = _well_conditioned(gen, 5)
        assert np.abs(mat_inverse(mat_inverse(a)) - a).max() < 1e-9


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.zeros((3, 3)))
    with pytest.raises(SingularMatrixError):
        mat_inverse([[1.0, 2.0], [2.0, 4.0]])
    # far below the relative pivot threshold
    with pytest.raises(SingularMatrixError):
        mat_inverse([[1.0, 1.0], [1.0, 1.0 + 1e-14]])


def test_mat_inverse_requires_square():
    with pytest.raises(ShapeError):
        mat_inverse(np.ones((2, 3)))


def test_singularity_guard_is_scale_free():
    for scale in (1e-20, 1e20):
        a = scale * np.eye(3)
        assert np.array_equal(mat_inverse(a), np.eye(3) / scale)
        # the nearly singular case stays singular at any scale
        with pytest.raises(SingularMatrixError):
            mat_inverse(scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))


def test_as_matrix_validation():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ParameterError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_symmetry_and_semidefinite_checks_are_scale_free():
    # the verdict is the one at scale 1, whatever unit the matrix is written in
    assert_positive_semidefinite(np.zeros((2, 2)))
    for scale in (2.0**-60, 1e-11, 1.0, 2.0**60):
        assert_positive_semidefinite(scale * np.eye(2))
        assert_positive_semidefinite(scale * np.array([[1.0, 1.0], [1.0, 1.0]]))  # singular
        with pytest.raises(ParameterError, match="sigma must be positive semidefinite"):
            assert_positive_semidefinite(scale * np.diag([1.0, -1.0]), "sigma")
        # a negative eigenvalue just past PIVOT_RTOL of the largest, and one of round-off
        with pytest.raises(ParameterError, match="positive semidefinite"):
            assert_positive_semidefinite(scale * np.diag([1.0, -2e-12]))
        assert_positive_semidefinite(scale * np.diag([1.0, -0.5e-12]))
        asymmetric = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
        assert is_symmetric(asymmetric) is False
        with pytest.raises(ParameterError, match="sigma must be symmetric"):
            assert_positive_semidefinite(asymmetric, "sigma")
        assert is_symmetric(scale * np.array([[1.0, 0.5], [0.5 + 1e-10, 1.0]]))


def test_as_matrix_rejects_a_zero_size_matrix():
    with pytest.raises(ShapeError, match=r"sigma must have positive dimensions, got \(0, 3\)"):
        as_matrix(np.zeros((0, 3)), "sigma")


def test_as_vector_rejects_an_empty_vector():
    with pytest.raises(ShapeError, match="x must be non-empty"):
        as_vector([], "x")


def test_a_non_square_matrix_is_not_symmetric():
    assert is_symmetric(np.zeros((2, 3))) is False
