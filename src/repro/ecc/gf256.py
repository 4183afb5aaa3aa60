"""Arithmetic over GF(2^8), the symbol field of the Bamboo ECC code.

The field is constructed from the primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for byte-wise
Reed-Solomon codes.  Multiplication and division go through log/antilog
tables built once at import time.
"""

from __future__ import annotations

from typing import List, Sequence

#: Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D

#: Order of the multiplicative group.
FIELD_ORDER = 255


def _build_tables() -> "tuple[List[int], List[int]]":
    exp = [0] * (FIELD_ORDER * 2)
    log = [0] * 256
    x = 1
    for i in range(FIELD_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    for i in range(FIELD_ORDER, FIELD_ORDER * 2):
        exp[i] = exp[i - FIELD_ORDER]
    return exp, log


_EXP, _LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b``; raises ``ZeroDivisionError`` when b == 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % FIELD_ORDER]


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises ``ZeroDivisionError`` for 0."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return _EXP[FIELD_ORDER - _LOG[a]]


def gf_pow(a: int, n: int) -> int:
    """Raise ``a`` to the integer power ``n`` (n may be negative)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("zero to a negative power")
        return 0
    return _EXP[(_LOG[a] * n) % FIELD_ORDER]


def gf_exp(n: int) -> int:
    """alpha**n where alpha is the primitive element (0x02)."""
    return _EXP[n % FIELD_ORDER]


# ---------------------------------------------------------------------------
# Polynomial arithmetic (coefficients in GF(2^8), highest degree first)
# ---------------------------------------------------------------------------

def poly_scale(p: Sequence[int], x: int) -> List[int]:
    """Multiply polynomial ``p`` by the scalar ``x``."""
    return [gf_mul(c, x) for c in p]


def poly_add(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Add two polynomials."""
    r = [0] * max(len(p), len(q))
    r[len(r) - len(p):] = list(p)
    for i, c in enumerate(q):
        r[i + len(r) - len(q)] ^= c
    return r


def poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Multiply two polynomials."""
    r = [0] * (len(p) + len(q) - 1)
    for i, pc in enumerate(p):
        if pc == 0:
            continue
        for j, qc in enumerate(q):
            r[i + j] ^= gf_mul(pc, qc)
    return r


def poly_eval(p: Sequence[int], x: int) -> int:
    """Evaluate polynomial ``p`` at ``x`` via Horner's rule."""
    y = 0
    for c in p:
        y = gf_mul(y, x) ^ c
    return y


def poly_divmod(dividend: Sequence[int],
                divisor: Sequence[int]) -> "tuple[List[int], List[int]]":
    """Polynomial long division; returns ``(quotient, remainder)``."""
    out = list(dividend)
    normalizer = divisor[0]
    for i in range(len(dividend) - len(divisor) + 1):
        out[i] = gf_div(out[i], normalizer)
        coef = out[i]
        if coef == 0:
            continue
        for j in range(1, len(divisor)):
            out[i + j] ^= gf_mul(divisor[j], coef)
    sep = len(dividend) - len(divisor) + 1
    return out[:sep], out[sep:]
