"""Small dense matrix helpers: validation, definiteness checks, inversion.

Matrices are plain 2-D float arrays validated by :func:`as_matrix`. The
dimensions here are tiny (covariance and mixing matrices), so
:func:`mat_inverse` first judges the conditioning from the singular values
and then calls ``np.linalg.inv``. Inversion fails loudly on singular input;
there is no silent pseudo-inverse fallback.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError, SingularMatrixError

#: A smallest singular value at most PIVOT_RTOL times the largest marks the
#: matrix singular. The ratio sigma_min / sigma_max does not change when the
#: matrix is scaled, so neither does the verdict.
PIVOT_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with positive dims, finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite entries", name)
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D float array with finite entries."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ShapeError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite entries", name)
    return arr


def mat_inverse(a) -> np.ndarray:
    """Inverse of a square matrix; SingularMatrixError when it is numerically singular."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"inverse needs a square matrix, got {a.shape}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= PIVOT_RTOL * sv[0]:  # a zero matrix too
        raise SingularMatrixError(
            f"singular matrix: smallest singular value {sv[-1]:.3e} is at most "
            f"{PIVOT_RTOL:g} times the largest, {sv[0]:.3e}"
        )
    return np.linalg.inv(a)


def is_symmetric(a) -> bool:
    """Square, with |a - a^T| at most 1e-9 times max(1, max |a|)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.abs(a - a.T).max() <= 1e-9 * scale)


def assert_positive_semidefinite(a, name: str = "matrix") -> None:
    """Symmetric PSD check via eigenvalues (tolerant to round-off)."""
    a = as_matrix(a, name)
    if not is_symmetric(a):
        raise ParameterError(f"{name} must be symmetric", name)
    floor = -1e-10 * max(1.0, float(np.abs(a).max()))
    if np.linalg.eigvalsh(a)[0] < floor:
        raise ParameterError(f"{name} must be positive semidefinite", name)


def assert_positive_definite(a, name: str = "matrix") -> None:
    """Require the smallest eigenvalue to exceed 1e-10 (Cholesky probe)."""
    a = as_matrix(a, name)
    if not is_symmetric(a):
        raise ParameterError(f"{name} must be symmetric", name)
    try:
        np.linalg.cholesky(a - 1e-10 * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            f"{name} must be positive definite (smallest eigenvalue > 1e-10)"
        )
