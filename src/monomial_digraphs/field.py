"""Exact arithmetic in GF(p^e) via exp/log tables.

Elements are plain integer indices in [0, q).  For e = 1 the index is the
residue itself; for e > 1 the base-p digits of the index are the polynomial
coefficients of the element (index = sum c_i * p^i for the element
sum c_i * X^i).  This keeps vertex ids and file formats canonical.
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

MAX_ORDER = 1 << 16
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _WITNESSES, exact below 3.3 * 10^24:
    above it a composite may pass, but a prime never fails."""
    if n < 2:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1    # the largest 2^s | n - 1
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
        chain = [pow(a, (n - 1) >> (s - i), n) for i in range(s)]
        if chain[0] != 1 and n - 1 not in chain:
            return False
    return True


def _iroot(q: int, e: int) -> int:
    """The largest r with r^e <= q, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // e)
    while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
        r = s
    return r


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^e with p prime, or raise ValueError.  Each e with
    2^e <= q has one candidate p, the integer e-th root of q."""
    for e in range(1, max(q, 1).bit_length()):
        p = _iroot(q, e)
        if p ** e == q and is_prime(p):
            return p, e
    raise ValueError(f"{q} is not a prime power")


def gcd_bar(a: int, q: int) -> int:
    """gcd(a, q-1) taken on a mod (q-1), with gcd(0, q-1) = q-1.

    No reduction mod q-1 is needed: gcd(a, r) = gcd(a - k*r, r) for every
    k, math.gcd takes negative a, and math.gcd(0, r) = r."""
    return math.gcd(a, q - 1)


def units_mod(n: int) -> list[int]:
    """All k in [1, n] coprime to n, ascending."""
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1]


# -- polynomial helpers over GF(p), coefficients low-degree-first ------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, mod, p):
    """(a * b) mod `mod` over GF(p); mod is monic, low-first."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce
    dm = len(mod) - 1
    while len(res) > dm:
        top = res.pop()
        if top:
            off = len(res) - dm
            for j in range(dm):
                res[off + j] = (res[off + j] - top * mod[j]) % p
    _poly_trim(res)
    return res


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for k in range(p ** d):
            den = _digits(k, p, d) + [1]
            if not _poly_mulmod(poly, [1], den, p):
                return False
    return True


def _digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _undigits(c, p):
    v = 0
    for d in reversed(c):
        v = v * p + d
    return v


@dataclass(frozen=True)
class Field:
    """GF(p^e) with deterministic modulus and exp/log tables.

    Immutable after construction; safe to share across workers.  The q x q
    tables `mul_table`, `sub_table` and `power_table` are made on first use
    and kept, so every digraph built over one Field shares them.
    """

    p: int
    e: int
    q: int
    modulus: tuple  # coefficients high-degree-first incl. leading 1; () for e = 1
    primitive: int
    exp: tuple = dc_field(repr=False, default=())
    log: tuple = dc_field(repr=False, default=())

    def elements(self):
        return range(self.q)

    def _plus(self, a: int, b: int, s: int) -> int:
        """a + s*b digit by digit: (a + s*b) % p is its lowest digit."""
        p = self.p
        res, mult = 0, 1
        while a or b:
            res += (a + s * b) % p * mult
            a //= p
            b //= p
            mult *= p
        return res

    def add(self, a: int, b: int) -> int:
        return self._plus(a, b, 1)

    def neg(self, a: int) -> int:
        return self._plus(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self._plus(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a: int, m: int) -> int:
        """a^m with exponents reduced mod q-1; 0^m = 0 only for m >= 1."""
        if a == 0:
            if m < 1:
                raise ValueError("0 raised to a non-positive power")
            return 0
        return self.exp[(m * self.log[a]) % (self.q - 1)]

    def powers(self, k: int):
        """[x^k for x in GF(q)], for k >= 1, read from exp/log."""
        if k < 1:
            raise ValueError("0 raised to a non-positive power")
        q1, exp, log = self.q - 1, self.exp, self.log
        return [0] + [exp[k * log[x] % q1] for x in range(1, self.q)]

    @cached_property
    def mul_table(self):
        """mul_table[a][b] = a * b."""
        return [[self.mul(a, b) for b in range(self.q)]
                for a in range(self.q)]

    @cached_property
    def sub_table(self):
        """sub_table[a][b] = a - b."""
        return [[self.sub(a, b) for b in range(self.q)]
                for a in range(self.q)]

    @cached_property
    def power_table(self):
        """power_table[k] = [x^k for x in GF(q)] for 1 <= k <= q-1; row 0
        is None, since 0^0 is not defined here."""
        return [None] + [self.powers(k) for k in range(1, self.q)]


def make_field(p: int, e: int) -> Field:
    """Construct GF(p^e) deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree e (coefficients compared high-degree-first), and the primitive
    element is the smallest-index generator of the multiplicative group.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    # before p ** e, which takes long for a large e
    if e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
        order = p if e == 1 else f"{p}^{e}"
        raise ValueError(f"q = {order} exceeds implementation bound "
                         f"{MAX_ORDER}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    q = p ** e

    # digits of k read high-degree-first give lexicographic order; at e = 1
    # this finds X, which raw_mul does not need
    monic = (_digits(k, p, e) + [1] for k in range(p ** e))
    modulus_low = next(c for c in monic if _is_irreducible(c, p))

    def raw_mul(a, b):
        if e == 1:
            return (a * b) % p
        pa = _poly_trim(_digits(a, p, e))
        pb = _poly_trim(_digits(b, p, e))
        return _undigits(_poly_mulmod(pa, pb, modulus_low, p), p)

    # the walk 1, g, g^2, ... back to 1 is the exp table of g
    for g in range(1, q):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = raw_mul(x, g)
        if len(exp) == q - 1:
            break

    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i

    modulus = tuple(reversed(modulus_low)) if e > 1 else ()
    return Field(p=p, e=e, q=q, modulus=modulus, primitive=g,
                 exp=tuple(exp), log=tuple(log))


def field_for_order(q: int) -> Field:
    if q > MAX_ORDER:           # the bound, whether or not q = p^e
        raise ValueError(f"q = {q} exceeds implementation bound {MAX_ORDER}")
    p, e = factor_prime_power(q)
    return make_field(p, e)


# -- univariate polynomials over a Field, coefficients low-degree-first ------

def poly_eval(F: Field, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def lagrange_interpolate(F: Field, points) -> list:
    """Coefficients (low-first, length q) of the unique polynomial of degree
    < q through the points (x, f(x)), which must cover GF(q) once each.

    Since sum_a a^k over GF(q) is -1 when k is a positive multiple of q-1
    and 0 otherwise, c_0 = f(0) and c_i = -sum_a f(a) * a^(q-1-i) for
    1 <= i <= q-1, taking 0^0 = 1.
    """
    q = F.q
    if sorted(x for x, _ in points) != list(range(q)):
        raise ValueError(f"interpolation needs each of the {q} elements of "
                         f"GF({q}) once as an x coordinate")
    f = dict(points)
    coeffs = [f[0]]
    for i in range(1, q):
        acc = f[0] if i == q - 1 else 0
        for a in range(1, q):
            acc = F.add(acc, F.mul(f[a], F.pow(a, q - 1 - i)))
        coeffs.append(F.neg(acc))
    return coeffs
