"""power_map and psi_automorphism against verify_mapping on the built
digraphs, for random q <= 16, (m, n), units k and nonzero c."""

import pytest

from monomial_digraphs.field import field_for_order, units_mod
from monomial_digraphs.digraph import build_monomial
from monomial_digraphs.iso import (power_map, psi_automorphism,
                                   verify_mapping, verify_power_map,
                                   _norm_exponent)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@st.composite
def _power_cases(draw):
    q = draw(st.sampled_from(Q))
    exps = st.integers(1, q - 1)
    m, n = draw(exps), draw(exps)
    k = draw(st.sampled_from(units_mod(q - 1)))
    other = draw(exps), draw(exps)
    return q, (m, n), k, other


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(_power_cases())
def test_power_map_carries_its_class_member(case):
    # power_map(F, k) carries D(q; km, kn) onto D(q; m, n); as a candidate
    # map onto any other D(q; m', n'), verify_power_map gives the verdict
    # of verify_mapping
    q, (m, n), k, other = case
    F = field_for_order(q)
    source = (_norm_exponent(k * m, q), _norm_exponent(k * n, q))
    mapping = power_map(F, k)
    D1 = build_monomial(F, *source)
    assert verify_mapping(D1, build_monomial(F, m, n), mapping)
    assert verify_power_map(F, mapping, source, (m, n))
    assert (verify_power_map(F, mapping, source, other)
            == verify_mapping(D1, build_monomial(F, *other), mapping))


@st.composite
def _psi_cases(draw):
    q = draw(st.sampled_from(Q))
    exps = st.integers(1, q - 1)
    return q, draw(exps), draw(exps), draw(st.integers(1, q - 1))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(_psi_cases())
def test_psi_is_an_automorphism(case):
    q, m, n, c = case
    F = field_for_order(q)
    D = build_monomial(F, m, n)
    assert verify_mapping(D, D, psi_automorphism(F, m, n, c))
