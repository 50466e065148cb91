"""Polynomial and integer helpers over Z, Q, F_p and number fields.

Polynomials are lists of coefficients, constant term first.  This matches the
JSON wire format used elsewhere; trailing zeros (falsy coefficients) are
trimmed.  Division with remainder and the monic gcd are written once, for any
coefficient field given as an (inverse, reduce) pair: Q, F_p and number
fields all use divmod_over and gcd_over.

Everything here is exact (Cohen GTM 138, Ch. 1 and 3): primality by
deterministic Miller-Rabin, factoring over F_p by squarefree decomposition
and Berlekamp's algorithm, factoring over Z by Hensel lifting and Zassenhaus
recombination.  complex_roots alone works in floating point; its callers
verify whatever they round.
"""
from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from typing import Sequence

from .errors import UnsupportedCase
from .intlinalg import kernel_mod


def trim(p: list) -> list:
    while p and not p[-1]:
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


def divmod_over(p, q, inverse, reduce):
    """(quot, rem) with p = quot * q + rem and deg rem < deg q, over the field
    where inverse(c) is 1/c and reduce(c) is the normal form of c (Cohen GTM
    138, Algorithm 3.1.1).  Only the quotient and the remainder are reduced."""
    if not q:
        raise ZeroDivisionError
    p = list(p)
    dq = len(q) - 1
    inv = inverse(q[-1])
    quot = [0] * max(0, len(p) - dq)
    for i in range(len(p) - 1 - dq, -1, -1):
        c = quot[i] = reduce(p[i + dq] * inv)
        if c:
            for j in range(dq):
                p[i + j] -= c * q[j]
    return trim(quot), trim([reduce(c) for c in p[:dq]])


def gcd_over(p, q, inverse, reduce) -> list:
    """The monic gcd over the field of divmod_over ([] when both are zero)."""
    p, q = trim([reduce(c) for c in p]), trim([reduce(c) for c in q])
    while q:
        p, q = q, divmod_over(p, q, inverse, reduce)[1]
    if p:
        inv = inverse(p[-1])
        p = [reduce(c * inv) for c in p]
    return p


# the (inverse, reduce) pair of Q
_Q = (lambda c: 1 / Fraction(c), Fraction)


def poly_divmod(p, q):
    """Division with remainder over Q."""
    return divmod_over(p, q, *_Q)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def poly_gcd(p, q) -> list[Fraction]:
    """The monic gcd over Q ([] when both are zero)."""
    return gcd_over(p, q, *_Q)


def primitive_part(p) -> list[int]:
    """The integer multiple of the nonzero rational polynomial p with coprime
    coefficients and a positive leading coefficient."""
    p = [Fraction(c) for c in p]
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [-c // g for c in ints]


def interpolate(values) -> list[Fraction]:
    """The polynomial over Q of degree < len(values) that takes values[t] at
    t = 0, 1, 2, ... (Newton's divided differences)."""
    c = [Fraction(v) for v in values]
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    out = [c[-1]]
    for i in range(n - 2, -1, -1):
        # out * (x - i) + c[i]
        out = ([c[i] - i * out[0]] + [out[k - 1] - i * out[k] for k in range(1, len(out))]
               + [out[-1]])
    return trim(out)


def is_monic_integer(p: Sequence[int]) -> bool:
    return len(p) >= 2 and all(isinstance(c, int) for c in p) and p[-1] == 1


def cyclotomic(m: int) -> list[int]:
    return list(_cyclotomic(m))


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    # x^m - 1 is the product of Phi_d over the divisors d of m
    out = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        out = _divide_z(out, _cyclotomic(d))
    return tuple(out)


def totients(limit: int) -> list[int]:
    """Euler's totients of 0, 1, ..., limit (phi[0] = 0) by one sieve pass:
    phi(k) -= phi(k) / q over the multiples k of each prime q, a q whose
    entry no smaller prime has lowered."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:
            for k in range(q, limit + 1, q):
                phi[k] -= phi[k] // q
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



# ---------------------------------------------------------------------------
# rational integers


# the first 13 primes; Miller-Rabin to all of them is exact below
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.  Raises UnsupportedCase
    where the answer would only be probable (n >= 3.3e24 with no factor
    among the bases)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise UnsupportedCase(f"primality of {n} is beyond the deterministic range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_to(n: int, primes) -> int:
    """n with every factor from the given primes divided out (0 stays 0)."""
    for p in primes:
        while n and n % p == 0:
            n //= p
    return n


def power(x, e: int, mul=operator.mul):
    """x^e for e >= 1 by square-and-multiply from the lowest bit, starting
    from the first set bit's power and squaring only while higher bits
    remain: one product per bit below the top plus one per further set bit."""
    if e < 1:
        raise ValueError(f"power needs an exponent >= 1, not {e}")
    acc = None
    while True:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if not e:
            return acc
        x = mul(x, x)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in increasing order, by trial division."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d / n) for n > 0, by quadratic reciprocity
    (Cohen GTM 138, Algorithm 1.4.10): (d / 2) is 0 for even d, +1 for
    d = +-1 mod 8 and -1 otherwise."""
    if d % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            k = -k
    # n is odd and positive from here on; d may be negative
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                k = -k
        if d & n & 2:  # both 3 mod 4
            k = -k
        d, n = n % abs(d), abs(d)
    return k if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the square a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# polynomials over Z/m: coefficients in [0, m), trimmed


def _mod(p, m: int) -> list[int]:
    return trim([c % m for c in p])


def eval_mod(p, x: int, m: int) -> int:
    """p(x) mod m, by Horner with every step reduced."""
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def roots_mod(p, prime: int) -> list[int]:
    """The roots in F_prime of an integer polynomial, in increasing order, by
    trying every residue: meant for small primes."""
    return [r for r in range(prime) if eval_mod(p, r, prime) == 0]


def _mul_mod(a, b, m: int) -> list[int]:
    return _mod(poly_mul(a, b), m)


def _sub_mod(a, b, m: int) -> list[int]:
    return _mod(poly_add(a, poly_neg(b)), m)


def _divmod_mod(a, b, m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m; lc(b) must be a unit mod m."""
    return divmod_over(a, b, lambda c: pow(c, -1, m), lambda c: c % m)


def _gcd_mod(a, b, p: int) -> list[int]:
    """The monic gcd over F_p of polynomials that are not both zero."""
    return gcd_over(a, b, lambda c: pow(c, -1, p), lambda c: c % p)


def _xgcd_mod(a, b, p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _sqf_mod(f, p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of a monic f over F_p: pairs (g, k) with
    f = prod g^k, the g monic, squarefree and pairwise coprime (Cohen GTM
    138, Section 3.4.2)."""
    if len(f) < 2:
        return []
    df = _mod(poly_deriv(f), p)
    if not df:
        # f(x) = h(x^p) = h(x)^p over F_p
        return [(g, k * p) for g, k in _sqf_mod(f[::p], p)]
    out = []
    c = _gcd_mod(f, df, p)
    w = _divmod_mod(f, c, p)[0]
    k = 1
    while len(w) > 1:
        y = _gcd_mod(w, c, p)
        z = _divmod_mod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, k))
        w, c, k = y, _divmod_mod(c, y, p)[0], k + 1
    # what is left has multiplicities divisible by p
    return out + [(g, j * p) for g, j in _sqf_mod(c[::p], p)]


def primitive_idempotents(fixed, one, mul, p: int) -> list[list[int]]:
    """The primitive idempotents e_1, ..., e_r of a finite commutative
    F_p-algebra A, from a basis of its Frobenius-fixed part {x : x^p = x},
    which is the F_p-span of the e_i (Cohen GTM 138, Sections 3.4 and
    6.2).  Elements are coordinate lists mod p, one is the unit and mul the
    product of A.  A random v = sum c_i e_i of that span is itself an
    idempotent for p = 2; for odd p, w = v^((p-1)/2) is the sum of the
    (c_i / p) e_i, so (w^2 + w)/2, (w^2 - w)/2 and 1 - w^2 collect the e_i
    whose Legendre symbol (c_i / p) is 1, -1 and 0.  Each round splits every
    idempotent found so far by these parts; the generator is seeded, so the
    result is deterministic."""
    idempotents = [one]
    rng = random.Random(p)
    while len(idempotents) < len(fixed):
        weights = [rng.randrange(p) for _ in fixed]
        v = [sum(w * b[i] for w, b in zip(weights, fixed)) % p for i in range(len(one))]
        if p == 2:
            parts = [v, [(o - x) % 2 for o, x in zip(one, v)]]
        else:
            w = power(v, (p - 1) // 2, mul)
            w2, half = mul(w, w), (p + 1) // 2
            parts = [[(a + b) * half % p for a, b in zip(w2, w)],
                     [(a - b) * half % p for a, b in zip(w2, w)],
                     [(o - a) % p for o, a in zip(one, w2)]]
        idempotents = [y for e in idempotents for y in (mul(e, part) for part in parts)
                       if any(y)]
    return idempotents


def _berlekamp(f, p: int) -> list[list[int]]:
    """The monic irreducible factors of a monic squarefree f over F_p.

    v(x)^p = v(x) mod f exactly when v lies in the kernel of Q - I, where
    row i of Q holds x^(i p) mod f; the kernel has one dimension per
    irreducible factor.  Each primitive idempotent e of F_p[x]/(f) is 1
    modulo one factor and 0 modulo the others, so that factor is
    gcd(f, 1 - e) (Cohen GTM 138, Section 3.4)."""
    n = len(f) - 1
    if n <= 1:
        return [f]

    def mul(a, b):
        r = _divmod_mod(_mul_mod(a, b, p), f, p)[1]
        return r + [0] * (n - len(r))

    xp, one = power([0, 1], p, mul), [1] + [0] * (n - 1)
    q_rows = [one]
    for _ in range(n - 1):
        q_rows.append(mul(q_rows[-1], xp))
    system = [[q_rows[i][j] - (i == j) for i in range(n)] for j in range(n)]
    return [_gcd_mod(f, [(o - x) % p for o, x in zip(one, e)], p)
            for e in primitive_idempotents(kernel_mod(system, p, n), one, mul, p)]


def factor_mod_p(p: Sequence[int], prime: int) -> list[tuple[list[int], int]]:
    """Factor a monic integer polynomial mod a prime.  Returns a sorted list
    of (monic factor coeffs constant-first, multiplicity)."""
    return sorted((g, k) for h, k in _sqf_mod(_mod(p, prime), prime)
                  for g in _berlekamp(h, prime))


def dedekind_criterion(f, factors, p: int) -> bool:
    """Whether Z[x]/(f) is p-maximal, for f = prod g_i^e_i mod p as
    factor_mod_p gives it (Cohen GTM 138, Thm 6.1.4): iff (f - g h)/p is prime
    mod p to gcd(g, h) = prod_(e_i > 1) g_i, for g = prod g_i, h = prod g_i^(e_i - 1)."""
    lift = reduce(poly_mul, (power(fac, e, poly_mul) for fac, e in factors))
    repeated = reduce(poly_mul, (fac for fac, e in factors if e > 1), [1])
    return len(_gcd_mod([c // p for c in poly_add(f, poly_neg(lift))], repeated, p)) == 1


# ---------------------------------------------------------------------------
# polynomials over Z


def _divide_z(a, b) -> list[int] | None:
    """a / b over Z, or None when b does not divide a."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(a[i + db], b[-1])
        if r:
            return None
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return None if any(a) else q


def _sqf_z(f) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive f with lc(f) > 0: pairs
    (g, k) with f = prod g^k, the g primitive, squarefree and coprime."""
    out = []
    c = primitive_part(poly_gcd(f, poly_deriv(f)))
    w = _divide_z(f, c)
    k = 1
    while len(w) > 1:
        y = primitive_part(poly_gcd(w, c))
        z = _divide_z(w, y)
        if len(z) > 1:
            out.append((z, k))
        w, c, k = y, _divide_z(c, y), k + 1
    return out


def _good_prime(f) -> tuple[int, list[list[int]]]:
    """Among the first five primes p with p not dividing lc(f) and f
    squarefree mod p, the one where f has the fewest factors, with those
    factors (monic, over F_p)."""
    best, tried, p = None, 0, 1
    while tried < 5:
        p += 1
        if not is_prime(p) or f[-1] % p == 0:
            continue
        inv = pow(f[-1], -1, p)
        fp = [c * inv % p for c in f]
        dfp = _mod(poly_deriv(fp), p)
        if not dfp or len(_gcd_mod(fp, dfp, p)) > 1:
            continue
        factors = _berlekamp(fp, p)
        if best is None or len(factors) < len(best[1]):
            best = (p, factors)
        if len(factors) == 1:
            break
        tried += 1
    return best


def _hensel_pair(f, g, h, p: int, k: int) -> tuple[list[int], list[int]]:
    """Lift f = g h mod p to f = G H mod p^k (f, g, h monic, g and h coprime
    mod p), one p-adic digit at a time (Cohen GTM 138, Section 3.5)."""
    s, t = _xgcd_mod(g, h, p)
    m = p
    for _ in range(k - 1):
        gh = poly_mul(g, h)
        e = trim([(f[i] - (gh[i] if i < len(gh) else 0)) % (m * p) // m
                  for i in range(len(f))])
        # s g + t h = 1, so (t e mod g) h + (s e mod h) g = e mod p
        g = poly_add(g, poly_scale(_divmod_mod(_mul_mod(t, e, p), g, p)[1], m))
        h = poly_add(h, poly_scale(_divmod_mod(_mul_mod(s, e, p), h, p)[1], m))
        m *= p
    return g, h


def _hensel_lift(f, factors, p: int, k: int) -> list[list[int]]:
    """Monic lifts mod p^k of the coprime monic factors mod p of f / lc(f)."""
    pk = p**k
    target = [c * pow(f[-1], -1, pk) % pk for c in f]
    out = []
    for i, g in enumerate(factors[:-1]):
        h = [1]
        for u in factors[i + 1:]:
            h = _mul_mod(h, u, p)
        g, target = _hensel_pair(target, g, h, p, k)
        out.append(g)
    return out + [target]


def _zassenhaus(f) -> list[list[int]]:
    """The irreducible factors of a squarefree primitive f with lc(f) > 0
    (Cohen GTM 138, Section 3.5)."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    p, modular = _good_prime(f)
    if len(modular) == 1:
        return [f]
    # lc(f)/lc(g) * g has coefficients below lc(f) 2^n |f|_2 for every
    # factor g of f (Mignotte), so lifting past twice that recovers it
    bound = 2 * f[-1] * 2**n * (math.isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p**k <= bound:
        k += 1
    pk = p**k
    lifted = _hensel_lift(f, modular, p, k)
    found = []
    d = 1
    while 2 * d <= len(lifted):
        for subset in combinations(range(len(lifted)), d):
            g = [f[-1]]
            for i in subset:
                g = _mul_mod(g, lifted[i], pk)
            g = primitive_part([c - pk if 2 * c > pk else c for c in g])
            quotient = _divide_z(f, g)
            if quotient is not None:
                found.append(g)
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            d += 1
    return found + [f]


def factor_z(f: Sequence[int]) -> list[tuple[list[int], int]]:
    """The irreducible factors over Z of a nonzero integer polynomial, with
    multiplicities; the content is dropped.  Each factor is primitive with a
    positive leading coefficient, and the list is sorted by (degree,
    multiplicity, coefficients from the leading one down), the order of
    sympy's factor_list."""
    out = [(g, k) for h, k in _sqf_z(primitive_part(f)) for g in _zassenhaus(h)]
    return sorted(out, key=lambda gk: (len(gk[0]), gk[1], gk[0][::-1]))


def is_irreducible_z(p: Sequence[int]) -> bool:
    """Irreducibility over Q of an integer polynomial of positive degree."""
    if degree(p) == 2:
        disc = p[1] * p[1] - 4 * p[0] * p[2]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    factors = factor_z(p)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# complex roots


def complex_roots(f: Sequence[int]) -> list[complex]:
    """The complex roots of a squarefree integer polynomial in floating
    point: Aberth-Ehrlich iteration from a circle around the origin, then
    two Newton steps on each root."""
    n = degree(f)
    coeffs = [complex(c) for c in f]

    def value_and_slope(z):
        v = dv = 0j
        for c in reversed(coeffs):
            dv = dv * z + v
            v = v * z + c
        return v, dv

    # every root lies in the disc of Cauchy's radius
    radius = 1 + max(abs(c / f[-1]) for c in f[:-1])
    z = [radius / 2 * complex(math.cos(a), math.sin(a))
         for a in (2 * math.pi * k / n + 0.4 for k in range(n))]
    for _ in range(200):
        moved = 0.0
        for i in range(n):
            v, dv = value_and_slope(z[i])
            if v == 0:
                continue
            ratio = v / dv
            pull = sum(1 / (z[i] - z[j]) for j in range(n) if j != i)
            step = ratio / (1 - ratio * pull)
            z[i] -= step
            moved = max(moved, abs(step) / max(1.0, abs(z[i])))
        if moved < 1e-14:
            break
    for _ in range(2):
        for i in range(n):
            v, dv = value_and_slope(z[i])
            if dv:
                z[i] -= v / dv
    return z
