"""Dense fp64 numpy/LAPACK reference of Build + Associate + Predict.

The same-host baseline and the accuracy oracle: the Gaussian kernel
``exp(-gamma * ||g_i - g_j||^2)`` from one fp64 GEMM, ``cho_factor`` +
``cho_solve`` on ``K + alpha*I`` with centered phenotypes, and the test
cross kernel times the weights.  It allocates several n×n arrays, so it
runs after the tiled run's peak memory has been read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["DenseReference", "dense_reference", "relative_error",
           "solve_residual"]


@dataclass(frozen=True)
class DenseReference:
    kernel: np.ndarray       # K (without the alpha shift)
    predictions: np.ndarray  # K_test @ W + phenotype means
    fit_s: float             # Build + factor + solve
    potrf_s: float           # cho_factor alone


def _gaussian(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    a = a.astype(np.float64)
    b = a if b is None else b.astype(np.float64)
    d = (np.einsum("ij,ij->i", a, a)[:, None]
         + np.einsum("ij,ij->i", b, b)[None, :] - 2.0 * (a @ b.T))
    np.maximum(d, 0.0, out=d)
    np.multiply(d, -gamma, out=d)
    return np.exp(d, out=d)


def dense_reference(train_genotypes: np.ndarray, phenotypes: np.ndarray,
                    test_genotypes: np.ndarray, gamma: float,
                    alpha: float) -> DenseReference:
    started = time.perf_counter()
    kernel = _gaussian(train_genotypes, None, gamma)
    regularized = kernel + alpha * np.eye(kernel.shape[0])
    potrf_started = time.perf_counter()
    factor = scipy.linalg.cho_factor(regularized, lower=True,
                                     overwrite_a=True, check_finite=False)
    potrf_s = time.perf_counter() - potrf_started
    means = phenotypes.mean(axis=0)
    weights = scipy.linalg.cho_solve(factor, phenotypes - means,
                                     check_finite=False)
    fit_s = time.perf_counter() - started
    cross = _gaussian(test_genotypes, train_genotypes, gamma)
    return DenseReference(kernel, cross @ weights + means, fit_s, potrf_s)


def relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """||values - reference||_F / ||reference||_F."""
    return float(np.linalg.norm(values - reference)
                 / np.linalg.norm(reference))


def solve_residual(kernel: np.ndarray, alpha: float, weights: np.ndarray,
                   phenotypes: np.ndarray) -> float:
    """||(K + alpha*I) W - Y_c||_F / ||Y_c||_F in fp64."""
    centered = phenotypes - phenotypes.mean(axis=0)
    residual = kernel @ weights + alpha * weights - centered
    return float(np.linalg.norm(residual) / np.linalg.norm(centered))
