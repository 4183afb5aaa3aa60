"""Unit and property tests for GF(2^8) arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.ecc import gf256

byte = st.integers(0, 255)
nonzero = st.integers(1, 255)


def test_mul_by_zero():
    assert gf256.gf_mul(0, 123) == 0
    assert gf256.gf_mul(123, 0) == 0


def test_mul_by_one_identity():
    for a in (1, 2, 77, 255):
        assert gf256.gf_mul(a, 1) == a


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf256.gf_div(5, 0)


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv(0)


def test_exp_log_roundtrip():
    """alpha^i over i in [0, 255) hits every nonzero element once, so
    the log table inverts it."""
    assert sorted(gf256.gf_exp(i) for i in range(255)) == \
        list(range(1, 256))


def test_pow_zero_exponent():
    assert gf256.gf_pow(7, 0) == 1
    assert gf256.gf_pow(0, 0) == 1


def test_pow_negative_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf256.gf_pow(0, -1)


@given(byte, byte)
def test_mul_commutative(a, b):
    assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)


@given(byte, byte, byte)
def test_mul_associative(a, b, c):
    assert gf256.gf_mul(gf256.gf_mul(a, b), c) == \
        gf256.gf_mul(a, gf256.gf_mul(b, c))


@given(byte, byte, byte)
def test_distributive(a, b, c):
    left = gf256.gf_mul(a, b ^ c)
    right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
    assert left == right


@given(nonzero)
def test_inverse_property(a):
    assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1


@given(nonzero, nonzero)
def test_div_mul_roundtrip(a, b):
    assert gf256.gf_mul(gf256.gf_div(a, b), b) == a


@given(st.lists(byte, min_size=1, max_size=8), byte)
def test_poly_eval_constant_term(coeffs, x):
    # Evaluating at 0 yields the constant (last) coefficient.
    assert gf256.poly_eval(coeffs, 0) == coeffs[-1]


@given(st.lists(byte, min_size=1, max_size=6),
       st.lists(byte, min_size=1, max_size=6), byte)
def test_poly_mul_eval_homomorphism(p, q, x):
    direct = gf256.gf_mul(gf256.poly_eval(p, x), gf256.poly_eval(q, x))
    assert gf256.poly_eval(gf256.poly_mul(p, q), x) == direct


def test_poly_divmod_identity():
    # (x^2 + 1) / (x + 1) over GF(2^8): q = x + 1, r = 0.
    q, r = gf256.poly_divmod([1, 0, 1], [1, 1])
    assert q == [1, 1]
    assert all(c == 0 for c in r)


def test_poly_add_pads_left():
    assert gf256.poly_add([1], [1, 0]) == [1, 1]
