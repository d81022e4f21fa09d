"""Unit tests for the generic numeric helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.chebyshev import chebval, chebvander

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
    x = cheb_nodes(256)
    coeffs = cheb_series_coeffs(chebval(x, ref), 5)
    np.testing.assert_allclose(coeffs, ref, atol=1e-13)
    # an (F, m)-shaped batch of node values projects each row as a
    # row-by-row call does, up to rounding in the last bits
    refs = np.array([ref, -ref, np.arange(6.0)])
    batch = cheb_series_coeffs(chebval(x, refs.T), 5)
    assert batch.shape == (3, 6)
    for row, r in zip(batch, refs):
        single = cheb_series_coeffs(chebval(x, r), 5)
        np.testing.assert_allclose(row, single, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(batch, refs, atol=1e-12)


def test_cheb_series_coeffs_validation():
    with pytest.raises(ValidationError):
        cheb_series_coeffs(np.cos(cheb_nodes(9)), -1)
    with pytest.raises(ValidationError):
        cheb_series_coeffs(np.cos(cheb_nodes(9)), 10)  # more degrees than nodes


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


def _makhoul_even_length(values, deg):
    """dct2 as first written, for even m and deg <= m/2 only: the general form keeps its bits."""
    m = values.shape[-1]
    reordered = np.concatenate((values[..., ::2], values[..., ::-2]), axis=-1)
    spec = np.fft.rfft(reordered, axis=-1)[..., : deg + 1]
    phase = np.pi * np.arange(deg + 1) / (2 * m)
    return spec.real * np.cos(phase) + spec.imag * np.sin(phase)


@pytest.mark.parametrize("m", range(1, 65))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_dct2_and_projection_match_cosine_sums_for_every_length_and_degree(m, data):
    shape = data.draw(st.sampled_from([(m,), (1, m), (3, m)]))
    values = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    x = cheb_nodes(m)
    theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
    for deg in range(m + 1):
        cos = np.cos(np.outer(np.arange(deg + 1), theta))  # cos(n theta_j), n = 0..deg
        gamma = np.full(deg + 1, 2.0)
        gamma[0] = 1.0
        np.testing.assert_allclose(dct2(values, deg), values @ cos.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            cheb_series_coeffs(values, deg), values @ chebvander(x, deg) * gamma / m, rtol=0, atol=1e-12
        )
        if m % 2 == 0 and deg <= m // 2:
            assert np.array_equal(dct2(values, deg), _makhoul_even_length(values, deg))


def test_dct_validation():
    with pytest.raises(ValidationError):
        dct2(np.ones(8), 9)
    with pytest.raises(ValidationError):
        dct2(np.ones(8), -1)
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
