"""Polynomial helpers over Z and Q.

Polynomials are lists of coefficients, constant term first.  This matches the
JSON wire format used elsewhere; trailing zeros are trimmed.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import sympy


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence) -> int:
    return len(p) - 1


def poly_add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def poly_neg(p):
    return [-a for a in p]

def poly_scale(p, c):
    return trim([c * a for a in p])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return trim(out)


def poly_divmod(p, q):
    """Division with remainder over a field (coefficients must support /)."""
    p = list(p)
    if not q:
        raise ZeroDivisionError
    dq = len(q) - 1
    lead = q[-1]
    quot = [0] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and any(x != 0 for x in p):
        if p[-1] == 0:
            p.pop()
            continue
        shift = len(p) - 1 - dq
        c = Fraction(p[-1], 1) / lead if not isinstance(p[-1], Fraction) else p[-1] / lead
        quot[shift] = c
        for i in range(dq + 1):
            p[shift + i] -= c * q[i]
        p.pop()
    return trim(quot), trim(p)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def is_monic_integer(p: Sequence[int]) -> bool:
    return len(p) >= 2 and all(isinstance(c, int) for c in p) and p[-1] == 1


def is_irreducible_z(p: Sequence[int]) -> bool:
    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(p))
    return sympy.Poly(expr, x, domain="QQ").is_irreducible


def factor_mod_p(p: Sequence[int], prime: int) -> list[tuple[list[int], int]]:
    """Factor a monic integer polynomial mod a prime.  Returns a list of
    (monic factor coeffs constant-first, multiplicity)."""
    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(p))
    poly = sympy.Poly(expr, x, modulus=prime, symmetric=False)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [int(c) % prime for c in reversed(fac.all_coeffs())]
        out.append((coeffs, int(mult)))
    out.sort()
    return out


def resultant(p: Sequence[int], q: Sequence[int]) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    from .intlinalg import IntMatrix

    dp, dq = degree(p), degree(q)
    if dp < 0 or dq < 0:
        return 0
    n = dp + dq
    rows = []
    rp = list(reversed(p))
    rq = list(reversed(q))
    for i in range(dq):
        rows.append([0] * i + rp + [0] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([0] * i + rq + [0] * (n - dq - 1 - i))
    return IntMatrix.from_rows(rows).det()


def discriminant(p: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial."""
    n = degree(p)
    res = resultant(p, poly_deriv(p))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def cyclotomic(m: int) -> list[int]:
    return list(_cyclotomic(m))


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    x = sympy.Symbol("x")
    poly = sympy.cyclotomic_poly(m, x)
    return tuple(int(c) for c in reversed(sympy.Poly(poly, x).all_coeffs()))


def euler_phi(m: int) -> int:
    """Euler's totient of m >= 1, by trial division."""
    phi, rest, d = m, m, 2
    while d * d <= rest:
        if rest % d == 0:
            phi -= phi // d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def cos_minpoly(ell: int) -> list[int]:
    """Minimal polynomial over Q of 2*cos(2*pi/ell) for an odd prime ell.

    Obtained from the cyclotomic polynomial: divide by z^m and rewrite
    z^k + z^-k via the recursion D_0 = 2, D_1 = x, D_k = x*D_{k-1} - D_{k-2}.
    """
    phi = cyclotomic(ell)
    m = degree(phi) // 2
    # Dickson-style basis polynomials
    d = [[2], [0, 1]]
    for _ in range(2, m + 1):
        d.append(poly_add(poly_mul([0, 1], d[-1]), poly_neg(d[-2])))
    out = [phi[m]]
    for k in range(1, m + 1):
        out = poly_add(out, poly_scale(d[k], phi[m + k]))
    assert out[-1] == 1
    return out


def sturm_real_roots(p: Sequence[int]) -> int:
    """Number of distinct real roots of a squarefree integer polynomial,
    counted exactly via the Sturm chain."""
    chain = [[Fraction(c) for c in trim(list(p))]]
    dp = [Fraction(c) for c in poly_deriv(p)]
    if dp:
        chain.append(dp)
    while degree(chain[-1]) > 0:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def sign_changes(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    # signs at -infinity and +infinity from the leading terms
    at_minus = [(-1) ** degree(q) * (1 if q[-1] > 0 else -1) for q in chain]
    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    return sign_changes(at_minus) - sign_changes(at_plus)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write |n| = s * t^2 with s squarefree; returns (sign-carrying s, t)."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, t = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            if e % 2:
                s *= d
            t *= d ** (e // 2)
        d += 1
    s *= n
    return sign * s, t


def fundamental_discriminant(d: int) -> tuple[int, int]:
    """Fundamental discriminant d0 and conductor t with d = d0 * t^2."""
    s, t = squarefree_decompose(d)
    if s % 4 == 1:
        return s, t
    # s = 2, 3 mod 4: the fundamental discriminant is 4s, so t must be even
    if t % 2 != 0:
        raise ValueError(f"{d} is not a discriminant")
    return 4 * s, t // 2

