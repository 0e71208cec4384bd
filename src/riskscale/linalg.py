"""Small dense matrix helpers: validation, block selection, LU inversion.

Matrices are plain 2-D float arrays validated by :func:`as_matrix`. The
dimensions here are tiny (covariance and mixing matrices), so the solver is
a straightforward LU factorization with partial pivoting. Inversion fails
loudly on singular input; there is no silent pseudo-inverse fallback.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError, SingularMatrixError

#: A pivot below PIVOT_RTOL * max|entry| of the input marks the matrix singular.
PIVOT_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with positive dims, finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D float array with finite entries."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ShapeError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def mat_block(a, rows, cols) -> np.ndarray:
    """Sub-matrix selecting the listed rows and columns, in order (0-based)."""
    a = as_matrix(a)
    rows = list(rows)
    cols = list(cols)
    if not rows or not cols:
        raise ParameterError("row and column selections must be non-empty")
    for idx in rows:
        if not 0 <= idx < a.shape[0]:
            raise ParameterError(f"row index {idx} out of range for {a.shape}")
    for idx in cols:
        if not 0 <= idx < a.shape[1]:
            raise ParameterError(f"column index {idx} out of range for {a.shape}")
    return a[np.ix_(rows, cols)]


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting; raises on singular input."""
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ShapeError(f"LU factorization needs a square matrix, got {a.shape}")
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    tol = PIVOT_RTOL * scale
    lu = a.copy()
    piv = np.arange(n)
    for k in range(n):
        j = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[j, k]) < tol:
            raise SingularMatrixError(
                f"singular matrix: pivot {abs(lu[j, k]):.3e} below {tol:.3e}"
            )
        if j != k:
            lu[[k, j]] = lu[[j, k]]
            piv[[k, j]] = piv[[j, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray, b) -> np.ndarray:
    """Solve A x = b given lu_factor output; b may hold multiple columns."""
    b = np.asarray(b, dtype=float)
    x = b[piv].astype(float, copy=True)
    n = lu.shape[0]
    for k in range(1, n):  # forward: unit lower triangle
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # backward
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def mat_inverse(a) -> np.ndarray:
    """Inverse via LU with partial pivoting; SingularMatrixError when rank-deficient."""
    lu, piv = lu_factor(a)
    return lu_solve(lu, piv, np.eye(lu.shape[0]))


def is_symmetric(a, rtol: float = 1e-9) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.abs(a - a.T).max() <= rtol * scale)


def assert_positive_semidefinite(a, name: str = "matrix") -> None:
    """Symmetric PSD check via eigenvalues (tolerant to round-off)."""
    a = as_matrix(a, name)
    if not is_symmetric(a):
        raise ParameterError(f"{name} must be symmetric")
    floor = -1e-10 * max(1.0, float(np.abs(a).max()))
    if np.linalg.eigvalsh(a)[0] < floor:
        raise ParameterError(f"{name} must be positive semidefinite")


def assert_positive_definite(a, name: str = "matrix", margin: float = 1e-10) -> None:
    """Require the smallest eigenvalue to exceed ``margin`` (Cholesky probe)."""
    a = as_matrix(a, name)
    if not is_symmetric(a):
        raise ParameterError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(a - margin * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            f"{name} must be positive definite (smallest eigenvalue > {margin:g})"
        )
