"""Exact arithmetic in the field Q(q) of rational functions of the deformation parameter.

Every structure constant in the engine lives here.  A value is a reduced pair of
integer-coefficient polynomials in q; arithmetic is exact, equality is structural
on the canonical form, and specialization at a rational point (q = 1 for the
classical limit) returns an exact ``Fraction``.  When both denominators are single
terms c*q^t (Laurent values, as almost every structure constant is), products,
sums and reductions skip the polynomial gcd: only a power of q and an integer
content can cancel against such a denominator.  A product with a factor of
exactly +-1 costs nothing: it returns the other factor, or its negation.

Identity tests run in prime fields GF(p), whose elements are plain ints in
[0, p): ``RatFunc.residue`` maps a value to its residue mod p at a point
q = c, a ring homomorphism on the values without a pole there.
``identity_bound`` bounds the degree and height of a difference of products of
the values.  From it, the probabilistic checks get the Schwartz-Zippel bound on
a false match at random points of GF(p), and ``kronecker_point`` gives one
integer point q = 2^B, B the height's bit length, at which a zero test is
exact (Kronecker substitution over Z).

Polynomials are dense int tuples, index = power of q, trailing zeros stripped;
``()`` is the zero polynomial.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction


class PoleAtPoint(Exception):
    """Raised when a rational function is evaluated where its denominator vanishes."""


# ---------------------------------------------------------------------------
# integer-coefficient polynomial helpers
# ---------------------------------------------------------------------------

def _ptrim(c: list) -> tuple:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return _ptrim(c)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    c[i + j] += x * y
    return _ptrim(c)


def _pcontent(a) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _pprim(a):
    g = _pcontent(a)
    if g <= 1:
        return a
    return tuple(x // g for x in a)


def _ptrailing(a) -> int:
    for i, x in enumerate(a):
        if x:
            return i
    return 0


def _pmonomial(a):
    """(t, c) when a = c*q^t is a single term, else None."""
    if a.count(0) == len(a) - 1:
        return len(a) - 1, a[-1]
    return None


def _pshift(a, k: int):
    # multiply by q^k, k >= 0
    if not a or k == 0:
        return a
    return (0,) * k + tuple(a)


def _pdivexact(a, b):
    # exact polynomial division over Q, result must be integral after priming
    if not a:
        return ()
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        if r[i]:
            if r[i] % lb:
                raise ArithmeticError("non-exact polynomial division")
            c = r[i] // lb
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("non-exact polynomial division")
    return _ptrim(q)


def _ppseudo_rem(a, b):
    # lc(b)^(deg a - deg b + 1) * a  mod  b, over Z
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        lead = r[i]
        if lead:
            for j in range(len(r)):
                r[j] *= lb
            for j in range(db + 1):
                r[i - db + j] -= lead * b[j]
            r[i] = 0
    return _ptrim(r)


def _pgcd(a, b):
    """Primitive-PRS gcd of integer polynomials, primitive with positive lead."""
    if not a:
        g = _pprim(b)
    elif not b:
        g = _pprim(a)
    else:
        # strip common power of q first; cheap and very common here
        ta, tb = _ptrailing(a), _ptrailing(b)
        t = min(ta, tb)
        a, b = _pprim(a[ta:]), _pprim(b[tb:])
        while b:
            r = _ppseudo_rem(a, b)
            a, b = b, _pprim(r)
        g = _pshift(a, t)
    if g and g[-1] < 0:
        g = _pneg(g)
    return g


def _peval(a, c: Fraction) -> Fraction:
    v = Fraction(0)
    for x in reversed(a):
        v = v * c + x
    return v


def _peval_z(a, bits: int) -> int:
    """a(2^bits) in Z."""
    v = 0
    for x in reversed(a):
        v = (v << bits) + x
    return v


def _peval_mod(a, c: int, p: int) -> int:
    v = 0
    for x in reversed(a):
        v = (v * c + x) % p
    return v


def _pnorm1(a) -> int:
    return sum(abs(x) for x in a)


def _psqrt(a):
    """Exact square root of an integer polynomial, or None."""
    if not a:
        return ()
    if (len(a) - 1) % 2 or a[-1] < 0:
        return None
    t = _ptrailing(a)
    if t % 2:
        return None
    a = a[t:]
    ls = math.isqrt(a[-1])
    if ls * ls != a[-1]:
        return None
    n = (len(a) - 1) // 2
    r = [0] * (n + 1)
    r[n] = ls
    rem = list(a)
    for i in range(n - 1, -1, -1):
        # coefficient of q^(i+n) in r^2 is 2*r[i]*r[n] plus cross terms
        acc = 0
        for j in range(i + 1, n):
            k = i + n - j
            if 0 <= k <= n:
                acc += r[j] * r[k]
        diff = rem[i + n] - acc
        if diff % (2 * ls):
            return None
        r[i] = diff // (2 * ls)
    if _pmul(tuple(r), tuple(r)) != tuple(a):
        return None
    return _pshift(_ptrim(r), t // 2)


# ---------------------------------------------------------------------------
# the prime of the probabilistic checks
# ---------------------------------------------------------------------------

P = (1 << 61) - 1


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

class RatFunc:
    """A rational function of q with integer-coefficient numerator and denominator.

    Canonical reduced form: gcd(num, den) = 1, gcd of the two contents = 1, and
    the denominator's leading coefficient is positive.  Equality and hashing are
    structural on that form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), _reduced=False):
        if isinstance(num, int):
            num = (num,) if num else ()
        if isinstance(den, int):
            den = (den,) if den else ()
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction) -> "RatFunc":
        return RatFunc((x.numerator,) if x.numerator else (), (x.denominator,), _reduced=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        m1, m2 = _pmonomial(self.den), _pmonomial(other.den)
        if m1 and m2:
            # over lcm(c1, c2) q^max(t1, t2)
            t, c = max(m1[0], m2[0]), math.lcm(m1[1], m2[1])
            num = _padd(_lift(self.num, m1, t, c), _lift(other.num, m2, t, c))
            return RatFunc(*_reduce_monomial(num, t, c), _reduced=True)
        if self.den == other.den:
            return RatFunc(_padd(self.num, other.num), self.den)
        return RatFunc(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den, _reduced=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self.den == (1,) and self.num in _UNITS:
            return other if self.num[0] == 1 else -other
        if other.den == (1,) and other.num in _UNITS:
            return self if other.num[0] == 1 else -self
        m1, m2 = _pmonomial(self.den), _pmonomial(other.den)
        if m1 and m2:
            num = _pmul(self.num, other.num)
            return RatFunc(*_reduce_monomial(num, m1[0] + m2[0], m1[1] * m2[1]), _reduced=True)
        # cross-cancel before multiplying to keep intermediates small
        g1 = _pgcd(self.num, other.den)
        g2 = _pgcd(other.num, self.den)
        n1 = self.num if g1 == (1,) else _pdivexact(self.num, g1)
        d2 = other.den if g1 == (1,) else _pdivexact(other.den, g1)
        n2 = other.num if g2 == (1,) else _pdivexact(other.num, g2)
        d1 = self.den if g2 == (1,) else _pdivexact(self.den, g2)
        num, den = _pmul(n1, n2), _pmul(d1, d2)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        cn, cd = _pcontent(num), _pcontent(den)
        g = math.gcd(cn, cd)
        if g > 1:
            num = tuple(x // g for x in num)
            den = tuple(x // g for x in den)
        return RatFunc(num, den, _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return RatFunc(num, den, _reduced=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def specialize(self, c) -> Fraction:
        """Exact value at q = c; raises PoleAtPoint when the denominator vanishes."""
        c = Fraction(c)
        d = _peval(self.den, c)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at q = {c}")
        return _peval(self.num, c) / d

    def residue(self, c: int, p: int) -> int:
        """The image num(c) / den(c) mod the prime p at q = c, a plain int in [0, p).

        Raises PoleAtPoint when p divides den(c).  On the values without a pole
        at c this is a ring homomorphism Q(q) -> GF(p) (see ``identity_bound``).
        """
        d = _peval_mod(self.den, c, p)
        if not d:
            raise PoleAtPoint(f"denominator vanishes mod p at q = {c}")
        return _peval_mod(self.num, c, p) * pow(d, -1, p) % p

    def sqrt(self):
        """An exact square root in Q(q) if one exists, else None."""
        if not self.num:
            return ZERO
        num, den = self.num, self.den
        if num[-1] < 0:
            return None
        rn, rd = _psqrt(num), _psqrt(den)
        if rn is None or rd is None:
            return None
        return RatFunc(rn, rd)

    # -- text form -------------------------------------------------------------

    def __repr__(self):
        return f"RatFunc({self.to_string()!r})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        """Text form "(<numerator>)/(<denominator>)", descending powers of q."""
        return f"({_pformat(self.num)})/({_pformat(self.den)})"


_UNITS = ((1,), (-1,))  # the numerators of +-1 over the denominator (1,)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc((x,) if x else (), (1,), _reduced=True)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    return NotImplemented


def _reduce(num, den):
    num, den = _ptrim(list(num)), _ptrim(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    mono = _pmonomial(den)
    if mono:
        return _reduce_monomial(num, *mono)
    g = _pgcd(num, den)
    if g != (1,):
        num, den = _pdivexact(num, g), _pdivexact(den, g)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    cn, cd = _pcontent(num), _pcontent(den)
    g = math.gcd(cn, cd)
    if g > 1:
        num = tuple(x // g for x in num)
        den = tuple(x // g for x in den)
    return num, den


def _reduce_monomial(num, t: int, c: int):
    """Canonical form of num / (c q^t) with no polynomial gcd: the only common
    factors a single-term denominator can share are a power of q and an integer."""
    if not num:
        return (), (1,)
    s = min(_ptrailing(num), t) if t else 0
    if s:
        num, t = num[s:], t - s
    if c < 0:
        num, c = _pneg(num), -c
    g = math.gcd(c, *num) if c != 1 else 1
    if g > 1:
        num, c = tuple(x // g for x in num), c // g
    return num, _pshift((c,), t)


def _lift(num, mono, t: int, c: int):
    """The numerator of num / (c0 q^t0) over c q^t, a multiple of c0 q^t0 (mono = (t0, c0))."""
    t0, c0 = mono
    if c != c0:
        num = tuple(x * (c // c0) for x in num)
    return _pshift(num, t - t0)


def _pformat(p) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            v = "q" if k == 1 else f"q^{k}"
            body = v if abs(c) == 1 else f"{abs(c)}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# distinguished elements and q-combinatorics
# ---------------------------------------------------------------------------

ZERO = RatFunc((), (1,), _reduced=True)
ONE = RatFunc((1,), (1,), _reduced=True)
Q = RatFunc((0, 1), (1,), _reduced=True)
QINV = RatFunc((1,), (0, 1), _reduced=True)
XI = Q - QINV  # q - q^{-1}


def q_number(j: int, factorial: bool = False) -> RatFunc:
    """The q-integer [j] = (q^j - q^{-j})/(q - q^{-1}); with the flag, [j]! = [1][2]...[j]."""
    if j < 0:
        raise ValueError("q_number needs j >= 0")
    if not factorial:
        # [j] = (q^{2j-2} + q^{2j-4} + ... + 1) / q^{j-1}
        if j == 0:
            return ZERO
        num = tuple(1 if k % 2 == 0 else 0 for k in range(2 * j - 1))
        return RatFunc(num, _pshift((1,), j - 1), _reduced=True)
    out = ONE
    for t in range(1, j + 1):
        out = out * q_number(t)
    return out


# ---------------------------------------------------------------------------
# identity tests: the Schwartz-Zippel bound and the Kronecker point
# ---------------------------------------------------------------------------

class IdentityBound(namedtuple("IdentityBound", "degree excluded height")):
    """The bounds D, E and H of a GF(p) identity test; see ``identity_bound``."""

    __slots__ = ()

    @property
    def sound(self) -> bool:
        return self.height < P

    def false_match(self, trials: int) -> Fraction:
        return Fraction(self.degree, P - self.excluded) ** trials


def identity_bound(values, scalars=(ONE,), factors: int = 1, terms: int = 1) -> IdentityBound:
    """Schwartz-Zippel bound for testing f = 0 in GF(p) at a random point.

    f is a sum of terms +-s * g_1 * ... * g_k with s in ``scalars`` (Laurent
    polynomials), every g_i in ``values`` and k = ``factors``, whose 1-norms
    ||s||_1 add up to at most ``terms``.

    Proof.  Write each nonzero value g = a / (q^t B) with a, B in Z[q] and
    B(0) != 0.  Let M be the product of the distinct B != 1, m = deg M and
    K = prod ||B||_1 (1-norms).  Then g M = a q^-t (M/B) is a Laurent
    polynomial with exponents in [lo(g), hi(g)] = [val(a) - t,
    deg(a) - t + m - deg B] and 1-norm at most ||a||_1 K.  So F = f M^k is a
    Laurent polynomial with exponents in [LO, HI], where

        LO = min(0, min_s lo(s) + k min_g lo(g)),
        HI = max(k m, max_s hi(s) + k max_g hi(g)),

    and P_f = q^-LO F is in Z[q], of degree at most D = HI - LO and 1-norm at
    most H = terms * (max ||a||_1 * K)^k.

    The checkers draw c uniformly from [2, p), redrawing while some value has
    a pole mod p there.  ``RatFunc.residue`` at c is a ring homomorphism on the
    rational functions whose reduced denominator does not vanish mod p at c,
    so the GF(p) computation yields f(c) = c^LO P_f(c) / M(c)^k, which is 0
    iff p divides P_f(c).  If H < p (``sound``), no coefficient of P_f or of
    a B is a nonzero multiple of p.  So for f != 0, P_f mod p is a nonzero
    polynomial of degree at most D and has at most D roots, and at most m
    points are poles.  The sample set misses at most E = m + 2 points of
    GF(p) (0, 1 and the poles), so one trial passes with probability at most
    D / (p - E), and t independent trials with probability at most
    (D / (p - E))^t (``false_match``).  If H >= p the bound does not hold and
    the caller checks exactly.
    """
    values = [g for g in values if g.num]
    dens = {g.den[_ptrailing(g.den):] for g in values} - {(1,)}
    m = sum(len(b) - 1 for b in dens)
    lo_g = hi_g = 0
    if values:
        spans = [(_ptrailing(g.num) - _ptrailing(g.den), len(g.num) + m - len(g.den)) for g in values]
        lo_g, hi_g = min(lo for lo, _ in spans), max(hi for _, hi in spans)
    t_s = []
    for s in scalars:
        mono = _pmonomial(s.den)
        if mono is None or mono[1] != 1:
            raise ValueError(f"scalar {s} is not a Laurent polynomial")
        t_s.append(mono[0])
    lo = min(0, min(_ptrailing(s.num) - t for s, t in zip(scalars, t_s)) + factors * lo_g)
    hi = max(factors * m, max(len(s.num) - 1 - t for s, t in zip(scalars, t_s)) + factors * hi_g)
    a_norm = max((_pnorm1(g.num) for g in values), default=1)
    height = terms * (a_norm * math.prod(_pnorm1(b) for b in dens)) ** factors
    return IdentityBound(hi - lo, m + 2, height)


class EvalPoint(namedtuple("EvalPoint", "q image p lam", defaults=(None, 1))):
    """Where a zero test runs: q = ``q``, each value g an int ``image[g]``.  In Z
    (``p`` None, ``kronecker_point``) a product of fewer than k values is padded
    to k factors with ``lam``, the image of 1; in GF(p) the images are residues
    (``sample_mod_p``) and ``lam`` is 1."""

    __slots__ = ()

    @property
    def name(self) -> str:
        """The point in Z, "q = 2^B in Z", as reports record it in ``exact_point``."""
        return f"q = 2^{self.q.bit_length() - 1} in Z"

    def coefficients(self, coefs) -> list[int]:
        """The images of coefficients s, ints or Laurent polynomials, that zero
        tests combine: in GF(p) their residues at q = c; in Z, (s q^σ)(X) for
        the one σ >= 0 that makes every s q^σ a polynomial."""
        coefs = [_coerce(s) for s in coefs]
        if self.p is not None:
            return [s.residue(self.q, self.p) for s in coefs]
        if any(s.den != _pshift((1,), len(s.den) - 1) for s in coefs):
            raise ValueError("a coefficient is not a Laurent polynomial")
        bits = self.q.bit_length() - 1
        sigma = max([0] + [len(s.den) - 1 - _ptrailing(s.num) for s in coefs if s.num])
        # s.num(X) X^σ is a multiple of X^t = den(X), so the shift is exact
        return [(_peval_z(s.num, bits) << (bits * sigma)) >> (bits * (len(s.den) - 1)) for s in coefs]


def kronecker_point(values, bound: IdentityBound) -> EvalPoint:
    """The point q = X = 2^B in Z, B = H.bit_length() for the height H of
    ``bound``, at which a zero test of any f the bound covers is exact.

    With g = a / (q^t B), M and K as in ``identity_bound``, s the largest t
    and lam = q^s M, a value g maps to (g lam)(X) = num(X) lam(X) / den(X),
    an exact division (g lam = a q^(s - t) (M/B) is in Z[q]), and 1 to
    lam(X).  A coefficient s maps to (s q^σ)(X), one σ >= 0 per zero test
    (``EvalPoint.coefficients``).  The map is not a ring homomorphism, so
    every term of a tested sum carries the same number k of values: a
    product of j < k values is padded with lam(X)^(k - j).  Evaluation at X
    is a ring homomorphism Z[q] -> Z, so the tested integer is P(X) for
    P = q^σ lam^k f.

    Proof.  g lam has 1-norm at most ||a||_1 ||M/B||_1 <= ||a||_1 K, and lam
    at most K; a power of q leaves a 1-norm unchanged.  So P is in Z[q] with
    1-norm at most H (for any k up to the bound's factors), and each
    coefficient has absolute value at most H < X.  If P != 0 has degree d,
    its leading term is at least X^d in absolute value at q = X and the
    others at most (X - 1)(1 + X + ... + X^(d-1)) = X^d - 1 together, so
    P(X) != 0.  As q^σ lam^k != 0, P(X) = 0 exactly when f = 0.  So a
    computation whose every zero test is on an f the bound covers has the
    zero pattern, and so the verdicts and witnesses, of Q(q).
    """
    bits = bound.height.bit_length()
    dens = {g.den[_ptrailing(g.den):] for g in values if g.num} - {(1,)}
    shift = max((_ptrailing(g.den) for g in values), default=0)
    lam = math.prod(_peval_z(b, bits) for b in dens) << (bits * shift)
    return EvalPoint(1 << bits, {g: _peval_z(g.num, bits) * lam // _peval_z(g.den, bits) for g in values}, None, lam)


def sample_mod_p(rng: random.Random, values) -> tuple[int, dict]:
    """Draw c uniformly from [2, p), redrawing while some value has a pole at c;
    return c and the residue mod p of each value at q = c (``RatFunc.residue``).

    Terminates when ``identity_bound(values).sound``: then at most E points are poles.
    """
    while True:
        c = rng.randrange(2, P)
        try:
            return c, {v: v.residue(c, P) for v in values}
        except PoleAtPoint:
            continue
