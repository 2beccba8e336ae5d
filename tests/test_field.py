import math

import pytest

from monomial_digraphs.field import (make_field, field_for_order,
                                     factor_prime_power, is_prime, gcd_bar,
                                     units_mod, lagrange_interpolate,
                                     poly_eval, _is_irreducible)
from monomial_digraphs.sweep import prime_powers

PRIME_POWERS_27 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


def test_gf4_modulus_is_unique_irreducible_quadratic():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # X^2 + X + 1


def test_gf9_modulus_matches_enumeration_oracle():
    # oracle: a monic quadratic over GF(3) is irreducible iff it has no root
    best = None
    for c1 in range(3):
        for c0 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                best = (1, c1, c0)
                break
        if best:
            break
    F = make_field(3, 2)
    assert F.modulus == best == (1, 0, 1)


def test_gf5_primitive_is_smallest_generator():
    # oracle: orders of 2, 3, 4 in Z_5^*
    def order(a):
        x, k = a, 1
        while x != 1:
            x = (x * a) % 5
            k += 1
        return k
    assert order(2) == 4
    F = make_field(5, 1)
    assert F.modulus == ()
    assert F.primitive == 2


def test_arith_examples():
    F5 = make_field(5, 1)
    assert F5.mul(2, 3) == 1
    F4 = make_field(2, 2)
    # X * X = X + 1 under X^2 + X + 1
    assert F4.mul(2, 2) == 3
    F9 = make_field(3, 2)
    for a in F9.elements():
        assert F9.add(a, F9.neg(a)) == 0


def test_pow_examples():
    F5 = make_field(5, 1)
    assert F5.pow(2, 3) == 3
    for q in (3, 4, 5, 9):
        F = field_for_order(q)
        for a in range(1, q):
            assert F.pow(a, q - 1) == 1
    F3 = make_field(3, 1)
    assert F3.pow(2, 3) == 2


def test_pow_of_zero():
    F = make_field(5, 1)
    assert F.pow(0, 3) == 0
    with pytest.raises(ValueError):
        F.pow(0, 0)
    with pytest.raises(ValueError):
        F.pow(0, -2)


def test_inversion_of_zero_rejected():
    F = make_field(7, 1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(2, 17)  # 2^17 over the bound


def test_gcd_bar_examples():
    assert gcd_bar(4, 17) == 4
    assert gcd_bar(0, 11) == 10
    assert gcd_bar(-1, 3) == 1


def test_gcd_bar_needs_no_reduction():
    # gcd_bar reads a itself; the reduced form it replaced is the oracle,
    # on negative a, a = 0, multiples of q - 1 and q = 2 (where q - 1 = 1)
    for q in prime_powers(2, 32):
        for a in range(-2 * q, 2 * q + 1):
            assert gcd_bar(a, q) == math.gcd(a % (q - 1), q - 1), (a, q)


def test_units_mod_examples():
    assert units_mod(4) == [1, 3]
    assert units_mod(1) == [1]
    assert units_mod(10) == [1, 3, 7, 9]


def test_log_is_additive():
    for q in (4, 5, 7, 8, 9, 27):
        F = field_for_order(q)
        for a in range(1, q):
            for b in range(1, q):
                lhs = F.log[F.mul(a, b)]
                assert lhs == (F.log[a] + F.log[b]) % (q - 1)


def test_exp_table_enumerates_nonzero_elements():
    for q in PRIME_POWERS_27:
        F = field_for_order(q)
        assert len(F.exp) == q - 1
        assert sorted(F.exp) == list(range(1, q))
        for x in range(1, q):
            assert F.exp[F.log[x]] == x


def test_construction_is_deterministic():
    for p, e in ((2, 4), (3, 3), (5, 2), (13, 1)):
        a = make_field(p, e)
        b = make_field(p, e)
        assert a == b


def test_frobenius_compatible_exponent_reduction():
    for q in (5, 8, 9):
        F = field_for_order(q)
        for a in F.elements():
            assert F.pow(a, q) == a
        for a in range(1, q):
            for m in (3, q, 2 * q + 1, -4):
                if m % (q - 1) != 0:
                    assert F.pow(a, m) == F.pow(a, m % (q - 1))


def test_power_map_image_and_kernel_sizes():
    # |{x != 0 : x^n = 1}| = gcd_bar(n, q), |{x^n}| = (q-1)/gcd_bar(n, q)
    for q in PRIME_POWERS_27:
        F = field_for_order(q)
        for n in range(0, q):
            kernel = sum(1 for x in range(1, q) if F.pow(x, n) == 1)
            image = len({F.pow(x, n) for x in range(1, q)})
            assert kernel == gcd_bar(n, q)
            assert image == (q - 1) // gcd_bar(n, q)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 32])
def test_power_table_rows_are_powers(q):
    F = field_for_order(q)
    assert "power_table" not in vars(F)
    table = F.power_table
    assert len(table) == q and table[0] is None
    for k in range(1, q):
        assert table[k] == [F.pow(x, k) for x in range(q)]
    # a cached property: made on first use, then kept on the Field
    assert F.power_table is table


def _digit_oracle(q, p, a, b, s):
    """a + s*b in GF(q), from the base-p digits of a and b by divmod."""
    res, mult = 0, 1
    for _ in range(q.bit_length()):
        (a, da), (b, db) = divmod(a, p), divmod(b, p)
        res += (da + s * db) % p * mult
        mult *= p
    return res


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 32, 49, 64, 81, 125, 128])
def test_add_sub_neg_match_digit_oracle(q):
    F = field_for_order(q)
    for a in range(q):
        assert F.neg(a) == _digit_oracle(q, F.p, 0, a, -1), a
        for b in range(q):
            assert F.add(a, b) == _digit_oracle(q, F.p, a, b, 1), (a, b)
            assert F.sub(a, b) == _digit_oracle(q, F.p, a, b, -1), (a, b)


@pytest.mark.parametrize("q", PRIME_POWERS_27 + [32, 49, 64])
def test_powers_match_pow(q):
    F = field_for_order(q)
    for k in range(1, 3 * q + 1):
        assert F.powers(k) == [F.pow(x, k) for x in range(q)], k
    for k in (0, -1):
        with pytest.raises(ValueError):
            F.powers(k)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _monic(p, d):
    """Every monic polynomial of degree d over GF(p), low-degree-first."""
    for k in range(p ** d):
        yield tuple(k // p ** i % p for i in range(d)) + (1,)


def test_is_irreducible_matches_product_oracle():
    # a monic polynomial of degree e is reducible iff it is the product of
    # two monic polynomials of degrees d and e - d with 1 <= d < e
    for p in (x for x in range(2, 257) if is_prime(x)):
        for e in range(1, 257):
            if p ** e > 256:
                break
            reducible = {_poly_mul(f, g, p)
                         for d in range(1, e)
                         for f in _monic(p, d) for g in _monic(p, e - d)}
            for c in _monic(p, e):
                assert _is_irreducible(list(c), p) == (c not in reducible), \
                    (p, c)


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(17) == (17, 1)
    assert factor_prime_power(1000000007) == (1000000007, 1)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    assert is_prime(2) and not is_prime(1)


def _trial_factor_prime_power(q):
    """factor_prime_power as it was, by trial division up to the square
    root of q, kept as the oracle."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    n, e = q, 0
    while n % p == 0:
        n, e = n // p, e + 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _factor_or_none(factor, q):
    try:
        return factor(q)
    except ValueError:
        return None


# semiprimes, prime powers and a strong pseudoprime to the bases 2..23
# (149491 * 747451 * 34233211), each with a small enough factor for the
# trial division of the oracle
LARGE_Q = (10007 * 1000000007, 99989 * 99991, 65537 ** 2 * 3,
           1000003 ** 2, 65537 ** 3, 3 ** 40, 2 ** 61, 10 ** 18,
           3825123056546413051, 1000003 * 1000033)


@pytest.mark.parametrize("qs", [range(-2, 1 << 16), LARGE_Q])
def test_factor_prime_power_matches_trial_division(qs):
    for q in qs:
        assert _factor_or_none(factor_prime_power, q) == \
            _factor_or_none(_trial_factor_prime_power, q), q


def test_factor_prime_power_beyond_trial_division():
    mersenne = 2 ** 61 - 1
    assert factor_prime_power(mersenne) == (mersenne, 1)
    assert factor_prime_power(mersenne ** 2) == (mersenne, 2)
    assert factor_prime_power(10 ** 18 + 3) == (10 ** 18 + 3, 1)
    with pytest.raises(ValueError):
        factor_prime_power((10 ** 9 + 7) * (10 ** 9 + 9))
    # the smallest strong pseudoprime to the bases 2..37, which base 41
    # exposes
    assert not is_prime(318665857834031151167461)


def test_lagrange_interpolation_roundtrip():
    F = field_for_order(9)
    values = [(x, F.pow(x, 3) if x else 0) for x in F.elements()]
    coeffs = lagrange_interpolate(F, values)
    for x, y in values:
        assert poly_eval(F, coeffs, x) == y
    with pytest.raises(ValueError):
        lagrange_interpolate(F, values[:-1])
