"""Unit tests for the generic numeric helpers."""

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from specden.errors import ValidationError
from specden.numerics import (
    cheb_nodes,
    cheb_series_coeffs,
    child_rng,
    dct2,
    dct3,
    derive_seed,
    fmt_float,
    next_pow2,
)


def test_next_pow2_values():
    assert next_pow2(1) == 2
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(64) == 64
    assert next_pow2(64.0001) == 128
    assert next_pow2(1e9) == 2**30


def test_next_pow2_rejects_non_finite():
    with pytest.raises(ValidationError):
        next_pow2(float("inf"))
    with pytest.raises(ValidationError):
        next_pow2(float("nan"))


def test_cheb_nodes_are_chebyshev_roots():
    m = 17
    x = cheb_nodes(m)
    assert x.shape == (m,)
    # roots of T_m, strictly inside (-1, 1), descending
    tm = np.cos(m * np.arccos(x))
    assert np.max(np.abs(tm)) < 1e-12
    assert np.all(np.abs(x) < 1.0)
    assert np.all(np.diff(x) < 0)


def test_cheb_series_coeffs_recovers_polynomial():
    # f = 2 T_0 - 0.5 T_2 + 0.25 T_5
    ref = np.array([2.0, 0.0, -0.5, 0.0, 0.0, 0.25])
    coeffs = cheb_series_coeffs(lambda x: chebval(x, ref), 5)
    np.testing.assert_allclose(coeffs, ref, atol=1e-13)
    # an (F, m)-shaped f projects each row as a row-by-row call does; the
    # matrix and vector products may round differently in the last bits
    refs = np.array([ref, -ref, np.arange(6.0)])
    batch = cheb_series_coeffs(lambda x: chebval(x, refs.T), 5)
    assert batch.shape == (3, 6)
    for row, r in zip(batch, refs):
        single = cheb_series_coeffs(lambda x: chebval(x, r), 5)
        np.testing.assert_allclose(row, single, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(batch, refs, atol=1e-12)


def test_cheb_series_coeffs_validation():
    with pytest.raises(ValidationError):
        cheb_series_coeffs(np.cos, -1)
    with pytest.raises(ValidationError):
        cheb_series_coeffs(np.cos, 10, nodes=9)


def test_dct2_and_dct3_match_cosine_sums():
    m, deg = 64, 20
    theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
    cos = np.cos(np.outer(np.arange(m), theta))  # cos(n theta_j), n = 0..m-1
    rows = child_rng(5).standard_normal((3, m))
    np.testing.assert_allclose(dct2(rows, deg), rows @ cos[: deg + 1].T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dct2(rows[0], m // 2), cos[: m // 2 + 1] @ rows[0], rtol=0, atol=1e-12)
    coeffs = child_rng(6).standard_normal((3, deg + 1))
    np.testing.assert_allclose(dct3(coeffs, m), coeffs @ cos[: deg + 1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(dct3(coeffs[0], m), coeffs[0] @ cos[: deg + 1], rtol=0, atol=1e-12)
    # the two transforms are each other's transpose
    assert abs(np.dot(dct2(rows[1], deg), coeffs[1]) - np.dot(rows[1], dct3(coeffs[1], m))) < 1e-10


def test_dct_validation():
    with pytest.raises(ValidationError):
        dct2(np.ones(7), 2)  # Makhoul's reordering needs an even length
    with pytest.raises(ValidationError):
        dct2(np.ones(8), 5)
    with pytest.raises(ValidationError):
        dct3(np.ones(9), 8)


def test_child_rng_reproducible_and_distinct():
    a = child_rng(42, 3).standard_normal(8)
    b = child_rng(42, 3).standard_normal(8)
    c = child_rng(42, 4).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-6


def test_child_rng_order_independent():
    # creating other streams in between must not perturb a path
    first = child_rng(7, 0, 1).integers(0, 1 << 30, 4)
    _ = child_rng(7, 9).integers(0, 1 << 30, 4)
    again = child_rng(7, 0, 1).integers(0, 1 << 30, 4)
    np.testing.assert_array_equal(first, again)


def test_derive_seed_deterministic():
    assert derive_seed(11, 2, 5) == derive_seed(11, 2, 5)
    assert derive_seed(11, 2, 5) != derive_seed(11, 5, 2)
    s = derive_seed(123, 7)
    assert isinstance(s, int) and 0 <= s < 2**32


def test_fmt_float_round_trips():
    for x in [0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0**-52]:
        assert float(fmt_float(x)) == x
    # 17 significant digits, not the shortest repr
    assert fmt_float(0.1) == "0.10000000000000001"
