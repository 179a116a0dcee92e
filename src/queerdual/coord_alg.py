"""The quantum coordinate superalgebra realized by matrix-coefficient functionals.

A degree-l element is a linear combination of monomials t_{a1,b1}...t_{al,bl};
its value on an algebra element x is a signed entry of the matrix of x on the
l-th tensor power of the vector module:

    < t_{a1,b1}...t_{al,bl}, x > = eps(a,b) * M_x[(a1..al), (b1..bl)],
    eps(a,b) = (-1)^{ sum_{r<s} (|a_s|+|b_s|) |a_r| },

the sign produced by iterating the graded convolution product against the
Koszul action on the tensor power.  All Koszul bookkeeping lives in eps (and
its companion kappa relating t-monomials to plain matrix-coefficient pairs);
both are pinned by oracle identities in the tests: the degree-1 expansion
x.v_b = sum_a <t_ab,x> v_a, the coproduct consistency on products of random
generator words, and the exchange-relation instances.

Equality of degree-l functionals is decided by evaluation against a stabilized
basis of the image of the algebra in End(V^{(x)l}): degree-l functionals factor
through that image, so the test is sound and complete degree by degree.
"""

from __future__ import annotations

import functools

from .hecke_clifford import HCAction, HCSpec, hc_check, hc_tensor_action, zero_weight_hc
from .report import VerifyReport
from .scalars import ONE, Q, RatFunc, ZERO, kronecker_point
from .superlinalg import (
    Echelon,
    SOp,
    SuperSpace,
    certified_span,
    index_parity,
    index_range,
    relation_bound,
    relation_failures,
    supercommutation_failures,
    tensor_space,
    word_sum,
)
from .uq_queer import (
    PARAM_Q,
    PARAM_QINV,
    AlgebraSpec,
    QueerRep,
    dual_rep,
    generator_pairs,
    phi,
    s_matrix,
    sigma_twist,
    tensor_rep,
    vector_rep,
)


class DegreeMismatch(Exception):
    """Functional degrees (or the basis degree) disagree."""


def eval_sign(rows: tuple, cols: tuple) -> int:
    """The Koszul sign eps(a,b) carried by a monomial's evaluation."""
    acc = 0
    left = 0  # running sum of |a_r| for r < s
    for s in range(len(rows)):
        if s:
            acc += (index_parity(rows[s]) + index_parity(cols[s])) * left
        left += index_parity(rows[s])
    return -1 if acc & 1 else 1


def kappa_sign(rows: tuple, cols: tuple) -> int:
    """Sign relating a t-monomial to the plain matrix-coefficient pair
    (dual row word, column word): t = kappa * tau."""
    pa = sum(index_parity(a) for a in rows) & 1
    pb = sum(index_parity(b) for b in cols) & 1
    s = eval_sign(rows, cols)
    return -s if ((pa + pb) & pb) else s


def monomial_parity(rows: tuple, cols: tuple) -> int:
    return sum(index_parity(x) for x in rows + cols) & 1


class CoordFunctional:
    """A RatFunc-linear combination of same-degree coordinate monomials."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree = degree
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    @staticmethod
    def monomial(rows, cols, coeff: RatFunc = ONE) -> "CoordFunctional":
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("row and column words must have equal length")
        return CoordFunctional(len(rows), {(rows, cols): coeff})

    @staticmethod
    def unit() -> "CoordFunctional":
        return CoordFunctional(0, {((), ()): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CoordFunctional") -> "CoordFunctional":
        if self.degree != other.degree:
            raise DegreeMismatch(f"{self.degree} vs {other.degree}")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, ZERO) + v
        return CoordFunctional(self.degree, out)

    def __sub__(self, other: "CoordFunctional") -> "CoordFunctional":
        return self + other.scale(-1)

    def scale(self, s) -> "CoordFunctional":
        if isinstance(s, int):
            s = RatFunc(s)
        return CoordFunctional(self.degree, {k: s * v for k, v in self.terms.items()})

    def normalized(self) -> "CoordFunctional":
        """Column-normal form: flip t_{a,b} to t_{-a,-b} wherever b < 0.

        Uses the degree-1 identity t_{ab} = t_{-a,-b}; sound for everything that
        consumes normalized monomials, and itself verified by the relation suite.
        """
        out: dict = {}
        for (rows, cols), v in self.terms.items():
            nr, nc = list(rows), list(cols)
            for r in range(len(nc)):
                if nc[r] < 0:
                    nc[r] = -nc[r]
                    nr[r] = -nr[r]
            key = (tuple(nr), tuple(nc))
            out[key] = out.get(key, ZERO) + v
        return CoordFunctional(self.degree, out)

    def __repr__(self):
        if not self.terms:
            return "CoordFunctional(0)"
        bits = []
        for (rows, cols), v in sorted(self.terms.items()):
            mono = "".join(f"t[{a},{b}]" for a, b in zip(rows, cols)) or "1"
            bits.append(f"({v}) {mono}")
        return " + ".join(bits)


def product(f: CoordFunctional, g: CoordFunctional) -> CoordFunctional:
    """Degree-additive convolution product: plain concatenation of monomials.

    Every Koszul sign of the dual product is absorbed into the evaluation sign
    eps, so concatenation with multiplied coefficients is exact.
    """
    out: dict = {}
    for (r1, c1), v1 in f.terms.items():
        for (r2, c2), v2 in g.terms.items():
            key = (r1 + r2, c1 + c2)
            v = v1 * v2
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    return CoordFunctional(f.degree + g.degree, out)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

GenWord = list  # [(((i1,j1), (i2,j2), ...), coeff: RatFunc), ...]: the terms of superlinalg.word_sum


def word_parity(word: GenWord) -> int:
    ps = set()
    for letters, _ in word:
        ps.add(sum((index_parity(i) + index_parity(j)) for i, j in letters) & 1)
    if len(ps) != 1:
        raise ValueError("generator word is not parity-homogeneous")
    return ps.pop()


class ImageBasis:
    """Echelonized basis of the span of all generator-word operators on V^{(x)l}."""

    def __init__(self, l: int, ops: list[SOp], certified_by: str):
        self.l = l
        self.ops = ops
        self.certified_by = certified_by  # how the dimension was found: "gf_p" or "exact"

    @property
    def dim(self) -> int:
        return len(self.ops)


def operator_image_basis(n: int, l: int) -> ImageBasis:
    """Stabilized image of the rank-n algebra inside End(V^{(x)l}), its dimension
    certified against the commutant of the Hecke-Clifford action.  Memoized in
    ``_image_basis`` (the operators are never mutated), cleared by its ``cache_clear()``."""
    if l < 1:
        raise ValueError("l >= 1 required")
    return _image_basis(n, l)


@functools.cache
def _image_basis(n: int, l: int) -> ImageBasis:
    rep = tensor_rep(vector_rep(n, PARAM_Q), l)
    span = certified_span(list(rep.gen.values()), hc_tensor_action(n, l, PARAM_Q).generators())
    return ImageBasis(l, span.basis, span.certified_by)


def eval_on_operator(f: CoordFunctional, op: SOp) -> RatFunc:
    """Value of a functional on an operator image (signed matrix entries)."""
    total = ZERO
    for (rows, cols), v in f.terms.items():
        e = op.entries.get((rows, cols))
        if e is not None:
            total = total + (v * e if eval_sign(rows, cols) > 0 else -(v * e))
    return total


def _counit_value(word: GenWord) -> RatFunc:
    # epsilon(L_ij) = delta_ij and epsilon(L_ii) = 1
    val = ZERO
    for letters, coeff in word:
        if all(i == j for (i, j) in letters):
            val = val + coeff
    return val


def functional_is_zero(f: CoordFunctional, basis: ImageBasis) -> bool:
    if f.degree != basis.l:
        raise DegreeMismatch(f"functional degree {f.degree}, basis degree {basis.l}")
    return all(eval_on_operator(f, op).is_zero() for op in basis.ops)


def functional_equal(f: CoordFunctional, g: CoordFunctional, basis: ImageBasis) -> bool:
    if f.degree != g.degree:
        raise DegreeMismatch(f"{f.degree} vs {g.degree}")
    return functional_is_zero(f - g, basis)


# ---------------------------------------------------------------------------
# translation actions
# ---------------------------------------------------------------------------

@functools.cache
def _translation_rep(kind: str, rank: int, l: int) -> QueerRep:
    """The degree-l translation module; memoized, cleared by ``_translation_rep.cache_clear()``."""
    base = tensor_rep(vector_rep(rank, PARAM_Q), l)
    if kind == "col":
        return base
    if kind == "row_dual":
        return dual_rep(base)
    if kind == "row_twist":
        return sigma_twist(base)
    raise ValueError(kind)


# label -> (translation module kind, the word it acts on: 0 rows / 1 columns,
# whether an odd x picks up the parity of the other word)
_ACTIONS = {"phi": ("col", 1, True), "psi": ("row_dual", 0, False), "psit": ("row_twist", 0, True)}


def act(label: str, x: GenWord, f: CoordFunctional, n: int, m: int) -> CoordFunctional:
    """The three translation actions on coordinate functionals.

    phi  : column side, x from the rank-m algebra (param q);
    psi  : row side through the antipode-twisted left translation (param q);
    psit : row side through the sigma-twisted left translation (param q^{-1}).

    On monomials each action is the corresponding module action on the column
    word (phi) or the row word (psi / psit), with the kappa signs translating
    between t-monomials and plain matrix-coefficient pairs; one loop serves all
    three, read from ``_ACTIONS``.  An odd x picks up the parity of the other
    word under phi (the row word) and psit (the column word: the sigma-twisted
    left translation is pre-composition with pi(sigma(x)), and transporting it
    through tau gives (-1)^{|x||v|}), not under psi.  On degree 0 every label
    acts through the counit on the unit functional; an unknown label raises
    ValueError at every degree.
    """
    if label not in _ACTIONS:
        raise ValueError(f"unknown action label {label!r}")
    kind, side, signed = _ACTIONS[label]
    l = f.degree
    xp = word_parity(x)
    if l == 0:
        return f.scale(_counit_value(x)) if xp == 0 else CoordFunctional(0)
    W = word_sum(_translation_rep(kind, m if side else n, l).gen, x)
    out: dict = {}
    for key, v in f.terms.items():
        k1 = kappa_sign(*key)
        front = -v if signed and xp and sum(index_parity(a) for a in key[1 - side]) & 1 else v
        for word, w in W.column(key[side]):
            new = (key[0], word) if side else (word, key[1])
            c = front * w
            if k1 * kappa_sign(*new) < 0:
                c = -c
            _accumulate(out, new, c)
    return CoordFunctional(l, out)


def _accumulate(out: dict, key, c) -> None:
    prev = out.get(key)
    out[key] = c if prev is None else prev + c


def gen_word(i: int, j: int, coeff: RatFunc = ONE) -> GenWord:
    return [(((i, j),), coeff)]


def phi_weight_exponents(cols: tuple, m: int) -> tuple:
    """Exponent vector (e_1..e_m) with Phi_{k_i}-eigenvalue q^{e_i} on a monomial."""
    return tuple(sum(phi(b, i) for b in cols) for i in range(1, m + 1))


def psit_weight_exponents(rows: tuple, n: int) -> tuple:
    """Row content: the sigma-twisted k_i eigenvalue is (q^{-1})^{e_i}."""
    return tuple(sum(1 for a in rows if abs(a) == i) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# graded components
# ---------------------------------------------------------------------------

def normalized_monomials(n: int, m: int, l: int) -> list[tuple]:
    """All (rows, cols) with rows in I_{n|n}^l and weakly increasing positive cols."""
    if l == 0:
        return [((), ())]
    rows_pool = tensor_space(SuperSpace.standard(n), l).labels

    def col_words(lo: int, length: int):
        if length == 0:
            yield ()
            return
        for b in range(lo, m + 1):
            for rest in col_words(b, length - 1):
                yield (b,) + rest

    out = []
    for cols in col_words(1, l):
        for rows in rows_pool:
            out.append((rows, cols))
    return out


class GradedComponent:
    """The degree-l component: its dimension, a monomial basis, and coordinates.

    Coordinates over the basis are unique (the basis monomials are independent)
    and linear in the functional, so ``coordinates`` sums those of its
    monomials.  A basis monomial's coordinates are its unit vector; any other
    monomial is reduced against ``ech`` once, and its coordinates (None when it
    is not in the span) are memoized on the component.
    """

    def __init__(self, n, m, l, image_basis, monomials, basis, ech, positions):
        self.n = n
        self.m = m
        self.l = l
        self.image_basis = image_basis
        self.monomials = monomials
        self.basis = basis
        self.ech = ech
        self._positions = positions  # insertion index -> monomial key
        self._coords = {key: {key: ONE} for key in basis}  # monomial key -> coordinates or None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def eval_vector(self, f: CoordFunctional) -> dict:
        return _eval_vector(self.image_basis, f)

    def coordinates(self, f: CoordFunctional) -> dict:
        """Coordinates over the basis monomials (exact); ValueError when f does
        not lie in the component."""
        if f.degree != self.l:
            raise DegreeMismatch(f"functional degree {f.degree}, component degree {self.l}")
        out: dict = {}
        for key, v in f.terms.items():
            coords = self._monomial_coordinates(key)
            if coords is None:
                # the residuals of several monomials can cancel: decide on f itself
                res, coords = self._reduce(f)
                if res:
                    raise ValueError("functional does not lie in the spanned component")
                return coords
            for mono, c in coords.items():
                _accumulate(out, mono, v * c)
        return {mono: c for mono, c in out.items() if not c.is_zero()}

    def _monomial_coordinates(self, key) -> dict | None:
        if key not in self._coords:
            res, coords = self._reduce(CoordFunctional.monomial(*key))
            self._coords[key] = None if res else coords
        return self._coords[key]

    def _reduce(self, f: CoordFunctional) -> tuple[dict, dict]:
        """The residual of f's evaluation vector and its coordinates over the basis."""
        res, combo = self.ech.reduce(self.eval_vector(f))
        return res, {self._positions[idx]: c for idx, c in combo.items()}


def _eval_vector(image: ImageBasis, f: CoordFunctional) -> dict:
    """The values of f on the image basis operators, by index (zeros left out)."""
    vec: dict = {}
    for t, op in enumerate(image.ops):
        val = eval_on_operator(f, op)
        if not val.is_zero():
            vec[t] = val
    return vec


def graded_component(n: int, m: int, l: int) -> GradedComponent:
    """Exact rank of the normalized degree-l monomials, with an independent
    sub-family selected greedily in ``normalized_monomials`` order.  Memoized in
    ``_graded_component`` (one object per (n, m, l), its coordinate memo
    shared), cleared by its ``cache_clear()``; the public name stays a plain
    function, as ``operator_image_basis`` does, so a tracer that wraps
    functions still times it.

    The selected set does not depend on the order of the column words.  A
    monomial's phi-weight is the content of its column word, and a normalized
    column word is weakly increasing, so each column word is one weight.  The
    k_j lie in the image, so functionals of distinct weights are independent
    on it: the evaluation vectors of different column words span independent
    subspaces, and greedy selection picks, within each column word, the same
    monomials in the same rows order, whatever the order of the words.  So at
    l = m the zero-weight monomials t_{(a),(1..m)} are selected exactly as if
    they were seeded first; ``zero_weight_iso`` reads them off the basis.
    """
    return _graded_component(n, m, l)


@functools.cache
def _graded_component(n: int, m: int, l: int) -> GradedComponent:
    if l == 0:
        return GradedComponent(n, m, 0, None, [((), ())], [((), ())], None, {})
    image = operator_image_basis(max(n, m), l)
    monos = normalized_monomials(n, m, l)
    ech = Echelon(track=True)
    basis = []
    positions = {}
    for key in monos:
        idx = ech.n_inserted
        if ech.insert(_eval_vector(image, CoordFunctional.monomial(*key))):
            basis.append(key)
            positions[idx] = key
    return GradedComponent(n, m, l, image, monos, basis, ech, positions)


def phi_component_rep(n: int, m: int, l: int):
    """The column-translation action as a rank-m representation on the degree-l
    component basis (``graded_component``'s memoized object, whose basis order
    it keeps; degree 0 included, where phi acts through the counit).

    Each generator acts on every basis monomial through ``act``; the images'
    coordinates come from ``comp.coordinates``."""
    comp = graded_component(n, m, l)
    labels = comp.basis
    space = SuperSpace(labels, {k: monomial_parity(*k) for k in labels})
    gen = {}
    for (i, j) in generator_pairs(m):
        x = gen_word(i, j)
        entries = {}
        for key in labels:
            img = act("phi", x, CoordFunctional.monomial(*key), n, m)
            for mono, c in comp.coordinates(img.normalized()).items():
                entries[(mono, key)] = c
        gen[(i, j)] = SOp(space, space, word_parity(x), entries, validate=False)
    rep = QueerRep(AlgebraSpec(m, PARAM_Q), space, gen)
    return rep, comp


# ---------------------------------------------------------------------------
# exchange relations and the zero-weight isomorphism
# ---------------------------------------------------------------------------

def qca_report(n: int) -> VerifyReport:
    """Verify the coordinate-algebra relations at rank n:

    qca1: t_{ab} = t_{-a,-b} for all index pairs (degree 1);
    qca2: every entry identity of S12 T13 T23 = T23 T13 S12 (degree 2), checked
    as R = P S commuting with the image of the algebra on V (x) V.

    Proof.  With the Koszul sign (-1)^{|f||Y|} of the operator-valued product,
    entry ((a,b),(c,d)) of T13 T23 is (-1)^{|a|(|b|+|d|)} times the monomial
    with rows (a,b) and columns (c,d); that sign is its eval_sign, so at an
    image operator X it evaluates to X[(a,b),(c,d)], and the lhs to S X.  The
    same bookkeeping leaves (-1)^{|a||b|+|c||d|} X[(b,a),(d,c)] on T23 T13, so
    the rhs evaluates to P X P S, P(v_a (x) v_c) = (-1)^{|a||c|} v_c (x) v_a
    the super flip.  Degree-2 functionals agree when they agree on the image
    basis, and P^2 = 1, so qca2 holds iff R X = X R for every basis operator
    X, R being even: one ``supercommutation_failures`` check, exact on
    integers at a Kronecker point.  The witness keys are the entries of
    P (R X - X R) = S X - P X P S, in Q(q), over the failing X.  Entry (r, c)
    of the lhs is sum_x S[r, x] times a monomial with rows x, distinct for
    distinct x, so it is nonzero iff row r of S is; likewise the rhs and
    column c.  Those (r, c) are the entries checked.
    """
    report = VerifyReport("coord_relations", {"n": n})
    ib1 = operator_image_basis(n, 1)
    report.derive("image_dim_l1", ib1.dim)
    report.derive("image_dim_l1_certified_by", ib1.certified_by)
    bad = []
    for a in index_range(n):
        for b in index_range(n):
            f = CoordFunctional.monomial((a,), (b,))
            g = CoordFunctional.monomial((-a,), (-b,))
            if not functional_equal(f, g, ib1):
                bad.append((a, b))
    report.add("qca1", not bad, witness=bad or None)

    S = s_matrix(n)
    W = S.dom
    P = SOp(W, W, 0, {((c, a), (a, c)): -ONE if index_parity(a) and index_parity(c) else ONE for a, c in W.labels})
    ib2 = operator_image_basis(n, 2)
    report.derive("image_dim_l2", ib2.dim)
    report.derive("image_dim_l2_certified_by", ib2.certified_by)
    failing, _ = supercommutation_failures([P @ S], ib2.ops)
    bad = set()
    for _, t in failing:
        X = ib2.ops[t]
        bad.update((S @ X - P @ X @ P @ S).entries)
    report.add("qca2", not bad, witness=sorted(bad)[:4] or None)
    rows = {r for r, _ in S.entries}
    cols = {c for _, c in S.entries}
    report.derive("qca2_entries_checked", sum(r in rows or c in cols for r in W.labels for c in W.labels))
    return report.finish()


def zero_weight_monomial(rows: tuple, m: int):
    return (rows, tuple(range(1, m + 1)))


def zero_weight_iso(n: int, m: int) -> VerifyReport:
    """Verify the zero-weight correspondence between the tensor module and the
    degree-m component of the coordinate superalgebra.

    Checks: (i) the monomials t_{a_1,1}...t_{a_m,m} are independent of full rank
    (2n)^m; (ii) a normalized degree-l monomial is fixed-weight for the column
    action iff l = m and b_i = i; (iii) the kappa-corrected assignment
    v_(a) -> kappa(a) t_{(a),(1..m)} intertwines the sigma-twisted row action
    exactly; (iv) the transported braid/Clifford operators on the block are the
    sign-twisted q-action (-T_a) and the suffix-signed flip family (-C-check_b),
    an HC structure for the q^{-1} parameter; the plain (uncorrected) assignment
    and the displayed Clifford normalization are reported alongside.
    """
    report = VerifyReport("zero_weight_iso", {"n": n, "m": m})
    W = tensor_space(SuperSpace.standard(n), m)
    cols = tuple(range(1, m + 1))
    rows_pool = W.labels
    kap = {a: kappa_sign(a, cols) for a in rows_pool}

    phi_rep, comp = phi_component_rep(n, m, m)
    zw_keys = {zero_weight_monomial(a, m) for a in rows_pool}
    basis = set(comp.basis)
    report.add(
        "image_rank",
        zw_keys <= basis,
        value={"rank": len(zw_keys & basis), "expected": len(rows_pool)},
    )

    ok = True
    witness = None
    for l in range(0, m + 2):
        for (rws, cls) in normalized_monomials(n, m, l):
            fixed = phi_weight_exponents(cls, m) == (1,) * m
            expected = l == m and cls == cols
            if fixed != expected:
                ok = False
                witness = {"l": l, "cols": cls}
    report.add("zero_weight_characterization", ok, witness=witness)

    # row side: Psi~ generator matrices on the block vs the twisted tensor action
    twist = sigma_twist(tensor_rep(vector_rep(n, PARAM_Q), m))
    exact = plain = 0
    for (i, j) in generator_pairs(n):
        entries = {}
        for a in rows_pool:
            img = act("psit", gen_word(i, j), CoordFunctional.monomial(a, cols), n, m)
            for (ar, _ac), c in img.terms.items():
                entries[(ar, a)] = c
        Wm = twist.act(i, j)
        # kappa(a) kappa(a2) is +-1: each entry is compared with +-w by negation
        pairs = [
            (entries.get((a2, a), ZERO), Wm.entries.get((a2, a), ZERO), kap[a] == kap[a2])
            for a in rows_pool
            for a2 in rows_pool
        ]
        exact += all(e == (w if same else -w) for e, w, same in pairs)
        plain += all(e == w for e, w, _ in pairs)
    n_gens = len(generator_pairs(n))
    report.add("row_equivariance_kappa", exact == n_gens, value={"matched": exact, "of": n_gens})
    report.derive("row_equivariance_plain_matches", plain)

    # column side: transported braid and Clifford operators
    zw = zero_weight_hc(phi_rep)
    hc_res = hc_check(zw)
    report.add("zw_hc_qinv", hc_res.ok)
    report.derive("zw_clifford_square", hc_res.derived_values.get("clifford_square"))
    report.derive("zw_hc_q_param_passes", hc_check(zw, Q).ok)

    def zw_as_word(op, par):
        entries = {}
        for ((r, _rc), (c, _cc)), v in op.entries.items():
            entries[(r, c)] = v * (kap[r] * kap[c])
        return SOp(W, W, par, entries, validate=False)

    hcq = hc_tensor_action(n, m, PARAM_Q)
    braid_ok = all(zw_as_word(zw.t(a), 0) == hcq.t(a).scale(-1) for a in range(1, m))
    report.add("braid_equivariance", braid_ok, value="T_a^zw = -T_a^(q) under the kappa map")

    def suffix_flip(b):
        entries = {}
        for w in W.labels:
            flipped = w[: b - 1] + (-w[b - 1],) + w[b:]
            s = -1 if sum(index_parity(x) for x in w[b:]) & 1 else 1
            entries[(flipped, w)] = RatFunc(-s)
        return SOp(W, W, 1, entries, validate=False)

    cliff_ok = all(zw_as_word(zw.c(b), 1) == suffix_flip(b) for b in range(1, m + 1))
    report.add(
        "clifford_equivariance",
        cliff_ok,
        value="C_b^zw = -(suffix-signed flip) under the kappa map; squares +1",
    )
    displayed_matches = all(
        zw_as_word(zw.c(b), 1) in (hcq.c(b), hcq.c(b).scale(-1)) for b in range(1, m + 1)
    )
    report.derive("displayed_clifford_matches", displayed_matches)

    # joint consistency: the transported pair is an HC_{q^{-1}} action that
    # commutes with the twisted row action on the nose
    cand = HCAction(
        HCSpec(m, PARAM_QINV),
        W,
        [hcq.t(a).scale(-1) for a in range(1, m)],
        [suffix_flip(b) for b in range(1, m + 1)],
    )
    report.add("transported_hc_qinv", hc_check(cand).ok)
    # plain commutation x h = h x, not the graded one: odd generators commute on the nose
    hs = dict(enumerate(cand.generators()))
    ops = {**{("x", g): twist.act(*g) for g in generator_pairs(n)}, **hs}
    instances = [((g, t), [((("x", g), t), 1)], [((t, ("x", g)), 1)]) for g in generator_pairs(n) for t in hs]
    point = kronecker_point(*relation_bound(ops, instances))
    report.add("row_hc_commutation", not relation_failures(ops, instances, point))
    return report.finish()
