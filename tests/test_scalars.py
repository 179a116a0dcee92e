import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from queerdual import scalars
from queerdual.scalars import (
    ONE,
    P,
    QINV,
    RatFunc,
    XI,
    ZERO,
    Q,
    EvalPoint,
    IdentityBound,
    PoleAtPoint,
    _padd,
    _pmonomial,
    _pmul,
    identity_bound,
    kronecker_point,
    q_number,
)

from oracles import Laurent, laurent_of, probably_equal


def rand_ratfunc(rng, max_deg=4):
    num = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, max_deg)))
    den = tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, max_deg - 1))) + (rng.randint(1, 5),)
    return RatFunc(num, den)


def test_q_number_values():
    assert q_number(0).is_zero()
    assert q_number(2) == (Q * Q + 1) / Q
    assert q_number(2).to_string() == "(q^2 + 1)/(q)"
    assert RatFunc((-2, 0, 5), (3, 1)).to_string() == "(5*q^2 - 2)/(q + 3)"


def test_q_number_against_laurent_oracle():
    # [j] = q^{j-1} + q^{j-3} + ... + q^{1-j}, [j]! computed independently
    for j in range(0, 7):
        expected = Laurent({j - 1 - 2 * t: 1 for t in range(j)})
        assert laurent_of(q_number(j)) == expected
    fact = Laurent.const(1)
    for j in range(1, 6):
        fact = fact * laurent_of(q_number(j))
        assert laurent_of(q_number(j, factorial=True)) == fact


def test_q_factorial_example():
    assert q_number(3, factorial=True) == (Q + QINV) * (Q**2 + 1 + QINV**2)


def test_specialize():
    assert XI.specialize(1) == 0
    assert q_number(2).specialize(1) == 2
    assert q_number(3, factorial=True).specialize(1) == 6
    with pytest.raises(PoleAtPoint):
        (1 / (Q - 1)).specialize(1)
    assert RatFunc((1, 2, 1), (2,)).specialize(Fraction(1, 3)) == Fraction(8, 9)


def test_probably_equal():
    assert probably_equal((Q**2 - 1) / (Q - 1), Q + 1, trials=5, seed=1)
    assert not probably_equal(Q, QINV, trials=1, seed=3)
    assert probably_equal(XI * q_number(2), Q**2 - QINV**2, trials=5, seed=7)
    # seed-deterministic
    for seed in range(5):
        a = probably_equal(Q**3 - Q, Q * (Q - 1) * (Q + 1), trials=3, seed=seed)
        b = probably_equal(Q**3 - Q, Q * (Q - 1) * (Q + 1), trials=3, seed=seed)
        assert a is b is True
    assert identity_bound((Q, QINV), terms=2).false_match(5) < Fraction(1, 10**20)


def test_identity_bound():
    # Q - QINV = (q^2 - 1)/q: degree 2 after clearing q; 0 and 1 are never drawn
    assert identity_bound((Q, QINV), terms=2) == (2, 2, 2)
    # a genuinely rational value: the two roots of q^2 - 1 count as excluded points
    b = identity_bound((1 / (Q**2 - 1), Q), terms=2)
    assert (b.degree, b.excluded, b.sound) == (3, 4, True)
    assert b.false_match(1) == Fraction(3, P - 4)
    # products of two factors times q^{+-1}
    b = identity_bound((Q, 2 * QINV), (Q, QINV), factors=2, terms=3)
    assert (b.degree, b.height) == (6, 3 * 1 * 2**2)


def test_probably_equal_height_fallback():
    # p q vanishes mod p at every point; the height guard forces the exact comparison
    big = RatFunc((0, P))
    assert not identity_bound((big, ZERO), terms=2).sound
    assert not probably_equal(big, ZERO, trials=5, seed=0)
    assert probably_equal(big, big + ZERO)


_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(tuple)


@st.composite
def _ratfunc_at(draw, c):
    num, den = draw(_polys), draw(_polys)
    if draw(st.booleans()):
        # plant the factor (q - c) in the denominator; it may cancel against the numerator
        den = tuple(a - c * b for a, b in zip((0,) + den, den + (0,)))
    if not any(den):
        den = (1,)
    return RatFunc(num, den)


MERSENNE_521 = (1 << 521) - 1  # a second prime, far above P


@st.composite
def _pair_at_point(draw):
    p = draw(st.sampled_from((P, MERSENNE_521)))
    c = draw(st.one_of(st.integers(2, 50), st.integers(2, p - 1)))
    return draw(_ratfunc_at(c)), draw(_ratfunc_at(c)), c, p


def _image(f, c, p):
    try:
        return f.residue(c, p)
    except PoleAtPoint:
        return None


@settings(max_examples=300, deadline=None)
@given(_pair_at_point())
@example((Q + 2, 1 / (Q - 3), 3, MERSENNE_521))  # a pole at the larger prime
@example((Q + 2, XI, 1 << 10, MERSENNE_521))
@example((1 / (Q - 3), QINV, 3 + P, MERSENNE_521))  # a pole mod P that is none mod 2^521 - 1
@example((Q - 5, XI, 5, P))  # a zero, so no inverse
def test_mod_p_is_a_ring_homomorphism(sample):
    # RatFunc.residue, the map Q(q) -> GF(p) at q = c, on plain ints
    a, b, c, p = sample
    ia, ib = _image(a, c, p), _image(b, c, p)
    for f, img in ((a, ia), (b, ib)):
        # a pole exactly when the reduced denominator vanishes mod p
        den_at_c = sum(x * pow(c, k, p) for k, x in enumerate(f.den)) % p
        assert (img is None) == (den_at_c == 0)
        assert img is None or (type(img) is int and 0 <= img < p)
    if ia is None or ib is None:
        return
    assert (a * b).residue(c, p) == ia * ib % p
    assert (a + b).residue(c, p) == (ia + ib) % p
    assert (a - b).residue(c, p) == (ia - ib) % p
    assert (-a).residue(c, p) == -ia % p
    if not a.is_zero():
        if not ia:
            with pytest.raises(PoleAtPoint):
                a.inverse().residue(c, p)
        else:
            assert a.inverse().residue(c, p) == pow(ia, -1, p)
            assert (a**-2).residue(c, p) == pow(ia, -2, p)


def test_kronecker_point_is_the_smallest_power_of_two_above_the_height():
    # X = 2^B with B = H.bit_length(), whatever the degree bound
    for degree in (0, 3, 60, 10**4):
        assert kronecker_point([Q], IdentityBound(degree, 2, 5)).q == 2**3
        assert kronecker_point([Q], IdentityBound(degree, 2, 2**10 - 1)).q == 2**10
        assert kronecker_point([Q], IdentityBound(degree, 2, 2**10)).q == 2**11
    assert kronecker_point([Q], IdentityBound(3, 2, 5)).name == "q = 2^3 in Z"


def test_kronecker_point_maps_each_value_times_lambda():
    # s = 1 (from q^-1) and M = q + 2, so lam = q (q + 2)
    values = [QINV, 1 / (Q + 2), 3 * Q, ZERO]
    point = kronecker_point(values, identity_bound(values, factors=2, terms=2))
    X = point.q
    assert point.lam == X * (X + 2)
    assert [point.image[v] for v in values] == [X + 2, X, 3 * X * X * (X + 2), 0]
    # one shift σ = 1 for the coefficients of one zero test; none for ints alone
    assert point.coefficients([QINV, ONE, Q, XI, -2]) == [1, X, X * X, X * X - 1, -2 * X]
    assert point.coefficients([1, -1]) == [1, -1]
    with pytest.raises(ValueError, match="Laurent"):
        point.coefficients([1 / (Q + 2)])
    # in GF(p) a coefficient maps to its residue
    assert EvalPoint(5, {}, P).coefficients([QINV, 3]) == [pow(5, -1, P), 3]


@settings(max_examples=150, deadline=None)
@given(st.lists(_ratfunc_at(3), min_size=4, max_size=4), st.booleans())
def test_kronecker_point_zero_tests_are_exact(gs, planted_zero):
    # f = a b - c d + e, two factors per term, e = 1 padded with lam; with the
    # flag, d is chosen so that f = 0 in Q(q)
    a, b, c, d = gs
    if planted_zero and c:
        d = (a * b + 1) / c
    values = {a, b, c, d, ONE}
    point = kronecker_point(values, identity_bound(values, factors=2, terms=3))
    img = point.image
    at_x = img[a] * img[b] - img[c] * img[d] + point.lam**2
    f = a * b - c * d + 1
    assert (at_x == 0) == f.is_zero()
    # the integer is (lam^2 f)(X), lam = q^s M as in the docstring
    assert Fraction(at_x) == f.specialize(point.q) * Fraction(point.lam) ** 2


def test_reduction_canonical():
    # reduced forms are canonical: structural equality iff cross-multiplied equality
    f = RatFunc((0, 0, 2, 2), (0, 2))  # (2q^3+2q^2)/(2q)
    assert f == Q * (Q + 1)
    assert f.num == (0, 1, 1) and f.den == (1,)
    g = RatFunc((-1, 0, 1), (1, 1))  # (q^2-1)/(q+1)
    assert g == Q - 1
    # denominator sign normalization
    h = RatFunc((1,), (-1, -1))
    assert h.den[-1] > 0


def test_field_axioms_randomized():
    rng = random.Random(42)
    for _ in range(300):
        f, g, h = (rand_ratfunc(rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f + g == g + f
        assert (f - g) + g == f
        if not f.is_zero():
            assert f * f.inverse() == ONE
            assert (g / f) * f == g


def test_sqrt():
    assert ((Q + 1) ** 2 / Q**4).sqrt() == (Q + 1) / Q**2
    assert (9 * (2 + Q) ** 2).sqrt() == 3 * (2 + Q)
    assert (Q + 1).sqrt() is None
    assert (-(Q**2)).sqrt() is None
    assert ZERO.sqrt() == ZERO
    rng = random.Random(4)
    for _ in range(40):
        f = rand_ratfunc(rng)
        s = (f * f).sqrt()
        assert s is not None and s * s == f * f


def test_pow():
    assert XI**0 == ONE
    assert XI**3 == XI * XI * XI
    assert XI**-2 == 1 / (XI * XI)
    assert Q**-5 == QINV**5


# -- the Laurent fast path: values whose reduced denominator is c q^t ---------

_monomial_dens = st.builds(
    lambda t, c: (0,) * t + (c,), st.integers(0, 4), st.sampled_from([1, 1, 2, 3, 4, 6, -2])
)


@st.composite
def _laurent(draw):
    num = draw(_polys)
    if draw(st.booleans()):
        num = (0,) * draw(st.integers(1, 3)) + num  # a factor q^k in the numerator
    return RatFunc(num, draw(_monomial_dens))


@st.composite
def _laurent_pair(draw):
    a = draw(_laurent())
    kind = draw(st.sampled_from(["independent", "cancel", "partial"]))
    if kind == "independent":
        return a, draw(_laurent())
    # -a, or -a plus a small term, handed over unreduced so its content and its
    # powers of q have to be found again
    k, s = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    num = (0,) * s + tuple(-k * x for x in a.num)
    if kind == "partial":
        num = _padd(num, draw(_polys))
    return a, RatFunc(num, (0,) * s + tuple(k * x for x in a.den))


def _general_path(num, den):
    """(num, den) reduced by the polynomial-gcd path, with the fast path switched off."""
    with mock.patch.object(scalars, "_pmonomial", lambda a: None):
        f = RatFunc(num, den)
    return f.num, f.den


_LAURENT_EXAMPLES = [
    (RatFunc(1, (0, 2)), RatFunc((0, 2), (1,))),  # 1/(2q) * 2q = 1
    (RatFunc(1, (0, 2)), RatFunc(-1, (0, 2))),  # cancels to zero
    (RatFunc(1, (0, 2)), RatFunc(1, (0, 0, 3))),  # 1/(2q) + 1/(3q^2)
    (RatFunc((0, 0, 3), (2,)), RatFunc(1, (0, 0, 0, 6))),  # trailing zeros meet q^3
]


@settings(max_examples=400, deadline=None)
@given(_laurent_pair())
@example(_LAURENT_EXAMPLES[0])
@example(_LAURENT_EXAMPLES[1])
@example(_LAURENT_EXAMPLES[2])
@example(_LAURENT_EXAMPLES[3])
def test_laurent_fast_path_matches_general_path(pair):
    a, b = pair
    assert _pmonomial(a.den) and _pmonomial(b.den)
    prod, total = a * b, a + b
    assert (prod.num, prod.den) == _general_path(_pmul(a.num, b.num), _pmul(a.den, b.den))
    unreduced_sum = _padd(_pmul(a.num, b.den), _pmul(b.num, a.den))
    assert (total.num, total.den) == _general_path(unreduced_sum, _pmul(a.den, b.den))


@settings(max_examples=60, deadline=None)
@given(_laurent_pair())
@example(_LAURENT_EXAMPLES[2])
@example(_LAURENT_EXAMPLES[3])
def test_laurent_fast_path_against_sympy(pair):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def poly(p):
        return sum(c * q**i for i, c in enumerate(p))

    def value(f):
        return poly(f.num) / poly(f.den)

    a, b = pair
    for got, want in ((a * b, value(a) * value(b)), (a + b, value(a) + value(b))):
        assert sympy.cancel(value(got) - want) == 0
        # reduced: no common polynomial factor and no common integer content
        assert sympy.gcd(poly(got.num), poly(got.den)) == 1 and got.den[-1] > 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, -1]),
    st.one_of(_laurent(), st.builds(RatFunc, _polys, _polys.filter(any))),
)
@example(1, RatFunc((1, 1), (2, 1)))
@example(-1, RatFunc((0, -3), (0, 0, 2)))
def test_unit_factor_shortcut_matches_general_path(s, a):
    # a factor of exactly +-1 returns the other factor or its negation, as the
    # Laurent or gcd path would
    unit = RatFunc(s)
    got = [(x.num, x.den) for x in (unit * a, a * unit, a * s, s * a)]
    with mock.patch.object(scalars, "_UNITS", ()):
        want = [(x.num, x.den) for x in (unit * a, a * unit, a * s, s * a)]
    assert got == want
    if s == 1 and a:
        assert unit * a is a  # the shortcut, not the general path, gave it


def test_laurent_examples():
    half_q = RatFunc(1, (0, 2))
    assert half_q * (2 * Q) == ONE
    assert (half_q - half_q).is_zero() and (half_q - half_q).den == (1,)
    assert half_q + RatFunc(1, (0, 0, 3)) == RatFunc((2, 3), (0, 0, 6))
    assert (half_q * Q**3).num == (0, 0, 1) and (half_q * Q**3).den == (2,)
    # a denominator c q^k reduces to the same value as the general form
    assert RatFunc((0, 4, 6), (0, 0, -2)) == RatFunc((-2, -3), (0, 1))
