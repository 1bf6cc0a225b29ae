"""The storage-native tile kernels equal the historical float64 composition.

Before the kernels took storage-precision tiles, every task read its
tiles as float64 copies, re-quantized them onto the compute grid, ran
the update and rounded the result (and the Tile constructor rounded it
again).  The references below spell that composition out operation by
operation; the kernels must reproduce it bit for bit for every compute
precision, for tiles stored in the compute precision and in another
one, and at the saturation edge of the narrow formats.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas as scipy_blas

from repro.linalg.cholesky import cholesky
from repro.linalg.kernels import (
    panel_operand,
    tile_gemm,
    tile_potrf,
    tile_syrk,
    tile_trsm,
)
from repro.precision.formats import Precision
from repro.precision.gemm import gemm_mixed, variant_for_input
from repro.precision.quantize import quantize
from repro.tiles.tile import Tile

COMPUTE = (Precision.FP64, Precision.FP32, Precision.FP16, Precision.BF16,
           Precision.FP8_E4M3, Precision.FP8_E5M2)
SATURATING = (Precision.FP16, Precision.FP8_E4M3, Precision.FP8_E5M2)
NB, KB = 24, 16


def _f64(x):
    return np.asarray(x, dtype=np.float64)


def _other(p: Precision) -> Precision:
    """A storage format different from the compute format ``p``."""
    return Precision.FP16 if p is Precision.FP32 else Precision.FP32


def _stored(values: np.ndarray, storage: Precision) -> Tile:
    return Tile(values, precision=storage, coords=(2, 1))


def _historical_tile(values: np.ndarray, p: Precision) -> np.ndarray:
    """What ``Tile(values, p)`` stored: the payload rounded again."""
    return quantize(_f64(values), p)


# ----------------------------------------------------------------------
# the historical compositions
# ----------------------------------------------------------------------
def _ref_product(a64, b64, p, syrk=False):
    """``gemm_mixed``/``syrk_mixed`` with alpha=1, beta=0, as float64."""
    v = variant_for_input(p)
    acc = (np.float64 if v.accumulate_precision is Precision.FP64
           else np.float32)
    fa = np.asarray(quantize(a64, v.input_precision), dtype=acc)
    if syrk:
        fn = scipy_blas.dsyrk if acc is np.float64 else scipy_blas.ssyrk
        tri = _f64(fn(1.0, fa, lower=True))
        full = tri + tri.T
        np.fill_diagonal(full, np.diagonal(tri))
        prod = 1.0 * full
    else:
        fb = np.asarray(quantize(b64, v.input_precision), dtype=acc)
        prod = 1.0 * (fa @ fb.T).astype(np.float64)
    return _f64(quantize(prod, v.output_precision))


def _ref_update(prod64, c64, p):
    out = -1.0 * prod64 + 1.0 * _f64(quantize(c64, p))
    return _historical_tile(_f64(quantize(out, p)), p)


def _ref_trsm(l64, b64, wp, storage):
    t64 = _f64(quantize(l64, wp))
    x = scipy.linalg.solve_triangular(t64, _f64(quantize(b64, wp)).T,
                                      lower=True).T
    return _historical_tile(_f64(quantize(x, wp)), storage)


def _ref_potrf(a64, wp):
    factor = np.linalg.cholesky(_f64(quantize(a64, wp)))
    return _historical_tile(_f64(quantize(factor, wp)), wp)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _panels(p: Precision, storage: Precision, edge: bool, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((NB, KB))
    b = rng.standard_normal((NB, KB))
    c = rng.standard_normal((NB, NB))
    if edge:
        # C sits just below the format's largest finite value (row i
        # with sign r_i) and -A B^T adds r_i * (~6% of it): most of the
        # update lands past the range and must saturate
        top = p.max_finite
        r = np.where(rng.random(NB) < 0.5, -1.0, 1.0)[:, None]
        c = r * 0.97 * top * np.ones((NB, NB))
        scale = np.sqrt(0.1 * top / KB)
        a = r * np.abs(a) * scale
        b = -np.abs(b) * scale
    return (_stored(a, storage), _stored(b, storage), _stored(c, storage))


def _assert_same(tile: Tile, expect: np.ndarray, p: Precision):
    assert isinstance(tile, Tile)
    assert tile.precision is p
    assert tile.data.dtype == expect.dtype
    np.testing.assert_array_equal(tile.data, expect)


CASES = [(p, same, False) for p in COMPUTE for same in (True, False)] + [
    (p, same, True) for p in SATURATING for same in (True, False)]


def _case_id(case):
    p, same, edge = case
    return f"{p.name}-{'same' if same else 'other'}{'-edge' if edge else ''}"


@pytest.fixture(params=CASES, ids=_case_id)
def case(request):
    p, same, edge = request.param
    return p, (p if same else _other(p)), edge


class TestHistoricalComposition:
    def test_gemm(self, case):
        p, storage, edge = case
        a, b, c = _panels(p, storage, edge)
        out = tile_gemm(panel_operand(a, p), panel_operand(b, p), c,
                        precision=p, alpha=-1.0, beta=1.0, transb=True)
        prod = _ref_product(a.to_float64(), b.to_float64(), p)
        _assert_same(out, _ref_update(prod, c.to_float64(), p), p)
        if edge:
            assert np.max(np.abs(out.to_float64())) == p.max_finite

    def test_gemm_reads_unwrapped_tiles_and_arrays(self, case):
        p, storage, edge = case
        a, b, c = _panels(p, storage, edge)
        expect = _ref_update(
            _ref_product(a.to_float64(), b.to_float64(), p),
            c.to_float64(), p)
        _assert_same(tile_gemm(a, b, c, precision=p), expect, p)
        _assert_same(tile_gemm(a.to_float64(), b.to_float64(),
                               c.to_float64(), precision=p), expect, p)

    def test_gemm_mixed_product(self, case):
        p, storage, edge = case
        a, b, _ = _panels(p, storage, edge)
        prod = gemm_mixed(panel_operand(a, p), panel_operand(b, p),
                          variant=variant_for_input(p), transb=True)
        np.testing.assert_array_equal(
            _f64(prod), _ref_product(a.to_float64(), b.to_float64(), p))

    def test_syrk(self, case):
        p, storage, edge = case
        a, _, c = _panels(p, storage, edge)
        c = _stored((c.to_float64() + c.to_float64().T) / 2, storage)
        out = tile_syrk(panel_operand(a, p), c, precision=p,
                        alpha=-1.0, beta=1.0)
        prod = _ref_product(a.to_float64(), None, p, syrk=True)
        _assert_same(out, _ref_update(prod, c.to_float64(), p), p)

    def test_trsm(self, case):
        p, storage, _ = case
        for wp in (Precision.FP64, Precision.FP32):
            rng = np.random.default_rng(3)
            x = rng.standard_normal((NB, NB))
            lkk = tile_potrf(x @ x.T / NB + 2 * np.eye(NB), precision=wp)
            b = _stored(rng.standard_normal((NB, NB)), storage)
            out = tile_trsm(lkk, b, precision=wp, side="right", trans=True,
                            storage=p)
            _assert_same(out, _ref_trsm(lkk.to_float64(), b.to_float64(),
                                        wp, p), p)

    def test_potrf(self, case):
        p, storage, _ = case
        rng = np.random.default_rng(4)
        x = rng.standard_normal((NB, NB))
        a = _stored(x @ x.T / NB + 4 * np.eye(NB), storage)
        try:
            expect = _ref_potrf(a.to_float64(), p)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                tile_potrf(a, precision=p)
            return
        _assert_same(tile_potrf(a, precision=p), expect, p)


# ----------------------------------------------------------------------
# whole factorizations against the historical right-looking loop
# ----------------------------------------------------------------------
def _reference_cholesky(a64, ts, wp, pmap):
    nt = a64.shape[0] // ts
    blk = {(i, j): a64[i * ts:(i + 1) * ts, j * ts:(j + 1) * ts].copy()
           for i in range(nt) for j in range(i + 1)}

    def prec(i, j):
        return wp if i == j else pmap.get((i, j), wp)

    for k in range(nt):
        blk[k, k] = _f64(_ref_potrf(blk[k, k], wp))
        for i in range(k + 1, nt):
            blk[i, k] = _f64(_ref_trsm(blk[k, k], blk[i, k], wp, prec(i, k)))
        for i in range(k + 1, nt):
            prod = _ref_product(blk[i, k], None, wp, syrk=True)
            blk[i, i] = _f64(_ref_update(prod, blk[i, i], wp))
            for j in range(k + 1, i):
                p = prec(i, j)
                prod = _ref_product(blk[i, k], blk[j, k], p)
                blk[i, j] = _f64(_ref_update(prod, blk[i, j], p))
    out = np.zeros_like(a64)
    for (i, j), v in blk.items():
        out[i * ts:(i + 1) * ts, j * ts:(j + 1) * ts] = v
    return out


@pytest.mark.parametrize("execution", ["serial", "threaded"])
@pytest.mark.parametrize("wp", [Precision.FP64, Precision.FP32])
def test_factorization_equals_historical_loop(execution, wp):
    n, ts = 120, 24
    rng = np.random.default_rng(9)
    x = rng.standard_normal((n, n))
    a = x @ x.T / n + 3 * np.eye(n)
    nt = n // ts
    lows = (Precision.FP16, Precision.BF16, Precision.FP8_E4M3,
            Precision.FP8_E5M2, Precision.FP32, Precision.FP64)
    pmap = {(i, j): lows[(i + 2 * j) % len(lows)]
            for i in range(nt) for j in range(i)}
    got = cholesky(a, tile_size=ts, working_precision=wp, precision_map=pmap,
                   execution=execution, workers=2)
    # the dense input enters the workspace at the working precision
    ref = _reference_cholesky(_f64(quantize(a, wp)), ts, wp, pmap)
    np.testing.assert_array_equal(got.to_dense(), np.tril(ref))
