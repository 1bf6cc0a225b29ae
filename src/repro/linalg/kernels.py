"""Single-tile computational kernels at a chosen precision.

These are the task bodies of the tiled algorithms — the Python
equivalents of the cuSOLVER/cuBLAS kernels PaRSEC dispatches per tile:

========  =============================================================
POTRF     Cholesky factorization of a diagonal tile.
TRSM      Triangular solve updating a panel tile.
SYRK      Symmetric rank-k update of a diagonal tile.
GEMM      General update of an off-diagonal tile.
========  =============================================================

Kernel contract: inputs are :class:`~repro.tiles.tile.Tile` objects in
their *storage* precision (panel operands may also be pre-quantized
:class:`~repro.precision.gemm.QuantizedOperand`; a plain float array is
read as an FP64 tile).  An input is rounded onto the *compute*
precision's grid only when it is stored in a different format, the
operation runs with a wider accumulator where the hardware would (FP32
accumulation for FP16/FP8 tensor-core GEMM/SYRK), and the result comes
back as a ``Tile`` in the compute precision, rounded exactly once.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.precision.formats import Precision
from repro.precision.gemm import (
    GemmVariant,
    QuantizedOperand,
    gemm_mixed,
    syrk_mixed,
    variant_for_input,
)
from repro.precision.quantize import quantize
from repro.tiles.tile import Tile


def _on_grid(x: Tile | np.ndarray, precision: Precision) -> np.ndarray:
    """``x``'s values on ``precision``'s grid, in its storage dtype.

    A tile stored in ``precision`` already holds exactly these values,
    so it is read as is; anything else is rounded.
    """
    if isinstance(x, Tile):
        if x.precision is precision:
            return x.data
        x = x.data
    return quantize(x, precision)


def _as64(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _coords(x) -> tuple[int, int] | None:
    return x.coords if isinstance(x, Tile) else None


def _store(values: np.ndarray, precision: Precision, coords) -> Tile:
    """Round a kernel result onto ``precision``'s grid — its one rounding."""
    return Tile.on_grid(quantize(values, precision), precision, coords)


def _update_variant(precision: Precision) -> GemmVariant:
    return variant_for_input(precision if precision.is_float else Precision.FP32)


def panel_operand(tile: Tile | QuantizedOperand | np.ndarray,
                  precision: Precision | str) -> QuantizedOperand:
    """Pre-quantize a panel tile for reuse across trailing updates.

    The Cholesky trailing update reads each panel tile ``L[i,k]`` once
    per destination tile in its block row/column; wrapping it in a
    :class:`QuantizedOperand` at the update variant's input precision
    makes the repeated quantization (and the float cast BLAS multiplies
    with) a cache hit.  A tile already stored at that precision is
    wrapped without rounding.
    """
    precision = _update_variant(Precision.from_string(precision)).input_precision
    if isinstance(tile, QuantizedOperand):
        return QuantizedOperand.wrap(tile, precision)
    if isinstance(tile, Tile):
        if tile.precision is precision:
            return QuantizedOperand.on_grid(tile.data, precision)
        tile = tile.data
    return QuantizedOperand(tile, precision)


def _update(prod: np.ndarray, c: Tile | np.ndarray, precision: Precision,
            alpha: float, beta: float) -> Tile:
    """``alpha * prod + beta * C`` in float64, rounded once to ``precision``."""
    cv = _on_grid(c, precision)
    if alpha == -1.0 and beta == 1.0:
        # the trailing-update form; c - p is exactly (-1*p) + (1*c)
        out = np.subtract(cv, prod, dtype=np.float64)
    else:
        out = np.multiply(prod, alpha, dtype=np.float64)
        out += np.multiply(cv, beta, dtype=np.float64)
    return _store(out, precision, _coords(c))


def tile_potrf(a: Tile | np.ndarray, precision: Precision | str = Precision.FP64,
               lower: bool = True) -> Tile:
    """Cholesky factorization of one (symmetric positive definite) tile.

    The factorization itself runs in the requested precision's value
    grid: the input is read on that grid, the factorization is done in
    float64 host arithmetic and the factor is rounded back, which
    models a hardware POTRF whose dominant error is the storage
    rounding.  Raises ``numpy.linalg.LinAlgError`` if the tile is not
    positive definite at the chosen precision — the same failure
    low-precision hardware hits when regularization is too small, which
    is why the paper keeps diagonal tiles in the working precision.
    """
    precision = Precision.from_string(precision)
    factor = np.linalg.cholesky(_as64(_on_grid(a, precision)))  # LinAlgError if not SPD
    if not lower:
        factor = factor.T
    return _store(factor, precision, _coords(a))


def tile_trsm(l_tile: Tile | np.ndarray, b_tile: Tile | np.ndarray,
              precision: Precision | str = Precision.FP64,
              side: str = "right", lower: bool = True,
              trans: bool = True,
              storage: Precision | str | None = None) -> Tile:
    """Triangular solve kernel.

    Default mode (``side="right"``, ``trans=True``) computes
    ``X = B @ L^{-T}``, the update applied to panel tiles below the
    diagonal in the right-looking tiled Cholesky.  The solution is
    rounded to ``precision``; a panel tile stored in another format
    (``storage``) is then converted to it, as the panel write does.
    """
    precision = Precision.from_string(precision)
    t64 = _as64(_on_grid(l_tile, precision))
    b64 = _as64(_on_grid(b_tile, precision))

    if side == "left" and not trans:
        # T X = B
        x = scipy.linalg.solve_triangular(t64, b64, lower=lower)
    elif side == "left" and trans:
        # T^T X = B
        x = scipy.linalg.solve_triangular(t64.T, b64, lower=not lower)
    elif side == "right" and not trans:
        # X T = B  ->  T^T X^T = B^T
        x = scipy.linalg.solve_triangular(t64.T, b64.T, lower=not lower).T
    elif side == "right" and trans:
        # X T^T = B  ->  T X^T = B^T
        x = scipy.linalg.solve_triangular(t64, b64.T, lower=lower).T
    else:
        raise ValueError("side must be 'left' or 'right'")
    out = _store(x, precision, _coords(b_tile))
    storage = precision if storage is None else Precision.from_string(storage)
    if storage is not precision:
        out = _store(out.data, storage, out.coords)
    return out


def tile_syrk(a_tile: Tile | QuantizedOperand | np.ndarray,
              c_tile: Tile | np.ndarray,
              precision: Precision | str = Precision.FP64,
              alpha: float = -1.0, beta: float = 1.0) -> Tile:
    """Symmetric rank-k update ``C = alpha * A @ A.T + beta * C`` on one tile.

    For FP16/FP8 compute precisions the product accumulates in FP32
    (tensor-core behaviour).  The Gram product runs through the BLAS
    ``?syrk`` triangular update of :func:`repro.precision.gemm.syrk_mixed`
    (half the flops of the full GEMM the historical path used).
    """
    precision = Precision.from_string(precision)
    prod = syrk_mixed(panel_operand(a_tile, precision),
                      variant=_update_variant(precision))
    return _update(prod, c_tile, precision, alpha, beta)


def tile_gemm(a_tile: Tile | QuantizedOperand | np.ndarray,
              b_tile: Tile | QuantizedOperand | np.ndarray,
              c_tile: Tile | np.ndarray,
              precision: Precision | str = Precision.FP64,
              alpha: float = -1.0, beta: float = 1.0,
              transa: bool = False, transb: bool = True) -> Tile:
    """General tile update ``C = alpha * op(A) @ op(B) + beta * C``.

    This is the kernel that dominates the Associate phase; its compute
    precision is what the adaptive mosaic lowers to FP16/FP8.
    """
    precision = Precision.from_string(precision)
    prod = gemm_mixed(panel_operand(a_tile, precision),
                      panel_operand(b_tile, precision),
                      variant=_update_variant(precision),
                      transa=transa, transb=transb)
    return _update(prod, c_tile, precision, alpha, beta)


def potrf_flops(nb: int) -> float:
    """Operation count of a POTRF on an ``nb × nb`` tile."""
    return nb ** 3 / 3.0 + nb ** 2 / 2.0 + nb / 6.0


def trsm_flops(nb: int, mb: int) -> float:
    """Operation count of a TRSM updating an ``mb × nb`` tile."""
    return float(mb) * nb * nb


def syrk_flops(nb: int, kb: int) -> float:
    """Operation count of a rank-``kb`` SYRK on an ``nb × nb`` tile."""
    return float(nb) * (nb + 1) * kb


def gemm_flops(mb: int, nb: int, kb: int) -> float:
    """Operation count of an ``mb×kb @ kb×nb`` GEMM."""
    return 2.0 * mb * nb * kb
