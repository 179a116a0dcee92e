"""Independent oracles for cross-checking the exact engine.

Deliberately primitive: dense Fraction matrices with textbook Gaussian
elimination, dict-based Laurent polynomials, and zero tests decided in Q(q)
on operators built with ``SOp`` arithmetic.  Nothing here shares code with
the package's elimination or its integer and residue zero tests, except the
last section: references that only the tests use (the transcribed vector
action table, the omega map, side-by-side supercommutation, direct
evaluation of a coordinate functional, the seeded GF(p) identity test, the
exchange relation as operator-valued functionals and the braid operator as
the plain triple product, the eager operator algebra span, the
unmemoized tensor power, the term-by-term tensor product and
Hecke-Clifford action, the translation actions by one loop per side, and
the graded-component basis selected zero-weight first).
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

from queerdual import coord_alg, hecke_clifford, superlinalg, uq_queer
from queerdual.coord_alg import CoordFunctional, _counit_value, eval_on_operator, kappa_sign, monomial_parity, product
from queerdual.scalars import (
    ONE, ZERO, RatFunc, _pmonomial, _ptrailing, identity_bound, kronecker_point, sample_mod_p,
)
from queerdual.superlinalg import (
    SOp, SuperSpace, _flat_product, flatten_vector, graded_tensor, index_parity, index_range, kernel_basis, relation_bound,
    word_sum,
)
from queerdual.uq_queer import PARAM_Q, _relation_terms, param_q, s_matrix, tensor_rep, vector_rep


def frac_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a dense Fraction matrix by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def specialize_op_rows(op, point) -> list[list[Fraction]]:
    """Dense Fraction matrix of a sparse operator at q = point (rows in label order)."""
    dom, cod = op.dom, op.cod
    mat = [[Fraction(0)] * dom.dim for _ in range(cod.dim)]
    for (r, c), v in op.entries.items():
        mat[cod.pos[r]][dom.pos[c]] = v.specialize(point)
    return mat


def flatten_ops_rows(ops, point) -> list[list[Fraction]]:
    """One dense row per operator: the flattened specialized matrix."""
    out = []
    for op in ops:
        dom, cod = op.dom, op.cod
        row = [Fraction(0)] * (dom.dim * cod.dim)
        for (r, c), v in op.entries.items():
            row[cod.pos[r] * dom.dim + dom.pos[c]] = v.specialize(point)
        out.append(row)
    return out


def vectors_rows(space, vecs, point) -> list[list[Fraction]]:
    out = []
    for vec in vecs:
        row = [Fraction(0)] * space.dim
        for lab, v in vec.items():
            row[space.pos[lab]] = v.specialize(point)
        out.append(row)
    return out


class Laurent:
    """Dict-based Laurent polynomials over Fraction, for q-identity oracles."""

    def __init__(self, coeffs: dict | None = None):
        self.c = {k: Fraction(v) for k, v in (coeffs or {}).items() if v}

    @staticmethod
    def q(power: int = 1) -> "Laurent":
        return Laurent({power: 1})

    @staticmethod
    def const(v) -> "Laurent":
        return Laurent({0: v})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Laurent(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return Laurent({k: v * s for k, v in self.c.items()})

    def __mul__(self, other):
        out: dict = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
        return Laurent(out)

    def __eq__(self, other):
        return self.c == other.c

    def __repr__(self):
        return f"Laurent({self.c})"


def laurent_of(rf) -> Laurent:
    """Convert a RatFunc with monomial denominator to a Laurent polynomial."""
    num, den = rf.num, rf.den
    nz = [k for k, c in enumerate(den) if c]
    assert len(nz) == 1, "denominator is not a monomial"
    shift, lead = nz[0], den[nz[0]]
    return Laurent({k - shift: Fraction(c, lead) for k, c in enumerate(num) if c})


def _one_row_q(k: int, n: int) -> int:
    """Q_(k)(1^n): the coefficient of t^k in ((1 + t) / (1 - t))^n."""
    # (1 + t) / (1 - t) = 1 + 2t + 2t^2 + ...
    series = [1] + [0] * k
    for _ in range(n):
        series = [sum(series[j] * (2 if i > j else 1) for j in range(i + 1)) for i in range(k + 1)]
    return series[k]


def schur_q_dim(lam: tuple, n: int) -> int:
    """dim L_n(lam) = 2^{-floor(len(lam)/2)} Q_lam(1^n) for the rank-n queer
    superalgebra, from integer combinatorics only: the one-row generating function
    and, for two rows, the Pfaffian rule
    Q_(a,b) = Q_a Q_b + 2 sum_{i=1..b} (-1)^i Q_{a+i} Q_{b-i}."""
    lam = tuple(x for x in lam if x)
    if len(lam) == 0:
        return 1
    if len(lam) == 1:
        return _one_row_q(lam[0], n)
    if len(lam) == 2:
        a, b = lam
        q = _one_row_q(a, n) * _one_row_q(b, n) + 2 * sum(
            (-1) ** i * _one_row_q(a + i, n) * _one_row_q(b - i, n) for i in range(1, b + 1)
        )
        assert q % 2 == 0
        return q // 2
    raise NotImplementedError("Schur Q-function dimensions for at most two rows")


# -- zero tests in Q(q) ------------------------------------------------------


def relation_sides(G, i, j, k, l, qq, xi):
    """The two side operators (lhs, rhs) of quadratic relation instance
    (i, j, k, l), built in Q(q) from the operators G."""
    qpow = {e: (s, -s) for e, s in ((-1, qq.inverse()), (0, ONE), (1, qq))}
    return tuple(word_sum(G, side) for side in _relation_terms(i, j, k, l, qpow, (xi, -xi)))


def relation_failures_in_qq(ops, instances, point=None, prod=None) -> list[int]:
    """``superlinalg.relation_failures`` decided in Q(q): the instances whose
    two sides, built as operators (``word_sum``), differ."""
    return [t for t, (_, lhs, rhs) in enumerate(instances) if word_sum(ops, lhs) != word_sum(ops, rhs)]


def invariance_differences(ops, vectors, rows) -> list:
    """Every nonzero entry of op v - sum_l (op v)[p_l] r_l, computed in Q(q)."""
    pos = ops[0].dom.pos
    out = []
    for op in ops:
        for vec in vectors:
            img = {}
            for (r, c), v in op.entries.items():
                if pos[c] in vec:
                    img[pos[r]] = img.get(pos[r], RatFunc(0)) + v * vec[pos[c]]
            diff = dict(img)
            for pivot, row in rows:
                for k, v in row.items():
                    diff[k] = diff.get(k, RatFunc(0)) - img.get(pivot, RatFunc(0)) * v
            out += [f for f in diff.values() if f]
    return out


def dot_products(rows, basis) -> list:
    """Every dot product of a row with a basis vector, computed in Q(q)."""
    return [sum((v * vec[k] for k, v in r.items() if k in vec), RatFunc(0)) for r in rows for vec in basis]


def decide_in_qq(mp) -> None:
    """Patch every exact zero test of the package (relations, supercommutation,
    invariance certificates, dropped kernel rows) to run in Q(q) instead."""
    for module in (superlinalg, uq_queer, hecke_clifford):
        mp.setattr(module, "relation_failures", relation_failures_in_qq)
    mp.setattr(superlinalg, "invariant_under", lambda ops, vectors, rows: not invariance_differences(ops, vectors, rows))
    mp.setattr(superlinalg, "_annihilates", lambda rows, basis, ncols: not any(dot_products(rows, basis)))


# -- the bounds behind the Kronecker points ----------------------------------


def recording_relation_bounds(mp, module) -> list:
    """Patch ``module.relation_bound`` to record the (values, bound) of every call."""
    calls = []

    def recording(ops, instances):
        calls.append(relation_bound(ops, instances))
        return calls[-1]

    mp.setattr(module, "relation_bound", recording)
    return calls


def assert_bound_covers(values, bound, diffs, factors):
    """For every f in diffs, P_f = q^-LO f M^factors is in Z[q] with 1-norm at
    most H < X, the Kronecker point, and degree at most D."""
    M = ONE
    for b in {v.den[_ptrailing(v.den):] for v in values if v} - {(1,)}:
        M = M * RatFunc(b)
    assert diffs
    assert bound.height < kronecker_point(values, bound).q
    for f in diffs:
        pf = f * M ** factors
        _, c = _pmonomial(pf.den)
        assert c == 1  # f M^factors is a Laurent polynomial with integer coefficients
        assert sum(abs(a) for a in pf.num) <= bound.height
        assert len(pf.num) - 1 - _ptrailing(pf.num) <= bound.degree


def point_bits(report) -> int:
    """B of the point q = 2^B in Z that a report records as ``exact_point``."""
    return int(report.derived_values["exact_point"].removeprefix("q = 2^").removesuffix(" in Z"))


# -- references: transcribed tables and direct evaluations -------------------


def probably_equal(f: RatFunc, g: RatFunc, trials: int = 5, seed: int = 0) -> bool:
    """Seed-deterministic identity test in GF(p) at random points.

    For f != g it answers True with probability at most
    ``identity_bound((f, g), terms=2).false_match(trials)``; when that bound is
    not sound it compares exactly.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    if not identity_bound((f, g), terms=2).sound:
        return f == g
    rng = random.Random(seed)
    for _ in range(trials):
        _, image = sample_mod_p(rng, (f, g))
        if image[f] != image[g]:
            return False
    return True


def supercommutes(A: SOp, B: SOp) -> bool:
    """Whether A B = (-1)^{|A||B|} B A, compared side by side (no sum is built)."""
    ba = B @ A
    return A @ B == (-ba if A.par and B.par else ba)


def omega_map(n: int) -> SOp:
    """The odd map v_a -> (-1)^{|a|} v_{-a}; squares to -id."""
    V = SuperSpace.standard(n)
    entries = {((-a,), (a,)): -ONE if index_parity(a) else ONE for a in index_range(n)}
    return SOp(V, V, 1, entries, validate=False)


def vector_action_table(n: int, param: str = PARAM_Q) -> dict:
    """The expected Chevalley action on V, transcribed row by row:

    k_i v_{+-j} = q^{d_ij} v_{+-j},  kbar_i: v_{+-i} <-> v_{-+i},
    e_i: v_{i+1} -> v_i, v_{-i-1} -> v_{-i},   f_i: v_i -> v_{i+1}, v_{-i} -> v_{-i-1},
    ebar_i: v_{i+1} -> v_{-i}, v_{-i-1} -> v_i, fbar_i: v_i -> v_{-i-1}, v_{-i} -> v_{i+1}.
    """
    V = SuperSpace.standard(n)
    qq = param_q(param)
    unit = lambda r, c: SOp.unit(V, V, (r,), (c,))
    tab = {}
    for i in range(1, n + 1):
        for key, k in (("k", qq), ("kinv", qq.inverse())):
            tab[(key, i)] = SOp(V, V, 0, {((a,), (a,)): k if abs(a) == i else ONE for a in index_range(n)})
        tab[("kbar", i)] = unit(-i, i) + unit(i, -i)
    for i in range(1, n):
        tab[("e", i)] = unit(i, i + 1) + unit(-i, -i - 1)
        tab[("f", i)] = unit(i + 1, i) + unit(-i - 1, -i)
        tab[("ebar", i)] = unit(-i, i + 1) + unit(i, -i - 1)
        tab[("fbar", i)] = unit(-i - 1, i) + unit(i + 1, -i)
    return tab


def eval_functional(f, word, n: int, param: str = PARAM_Q) -> RatFunc:
    """Value of a degree-l coordinate functional on an algebra element given as
    a word (``coord_alg.GenWord``): the counit at degree 0, else the signed
    entries of the word's operator on V^{(x)l}."""
    if f.degree == 0:
        return f.terms.get(((), ()), ZERO) * _counit_value(word)
    return eval_on_operator(f, word_sum(tensor_rep(vector_rep(n, param), f.degree).gen, word))


def _op_valued_product(lhs: list, rhs: list) -> list:
    """Multiply sums of (operator (x) functional) pairs with the Koszul sign
    (X (x) f)(Y (x) g) = (-1)^{|f||Y|} XY (x) fg."""
    out = []
    for X, f in lhs:
        for Y, g in rhs:
            sign = -1 if ({monomial_parity(*key) for key in f.terms} == {1} and Y.par) else 1
            out.append(((X @ Y).scale(sign), product(f, g)))
    return out


def _collect_entries(terms: list) -> dict:
    acc: dict = {}
    for X, f in terms:
        for key, v in X.entries.items():
            cur = acc.get(key)
            scaled = f.scale(v)
            acc[key] = scaled if cur is None else cur + scaled
    return {k: f for k, f in acc.items() if not f.is_zero()}


def qca2_sides(n: int, S: SOp | None = None) -> tuple[dict, dict]:
    """The entries of S12 T13 T23 and T23 T13 S12 as degree-2 functionals,
    {(row, column): functional} without the zero entries, built as sums of
    operator-valued functionals with the Koszul sign of each product; S is
    ``s_matrix(n)`` unless given."""
    V = SuperSpace.standard(n)
    ident = SOp.identity(V)
    t13, t23 = [], []
    for a in index_range(n):
        for b in index_range(n):
            e_ab = SOp.unit(V, V, (a,), (b,))
            f_ab = CoordFunctional.monomial((a,), (b,))
            t13.append((graded_tensor(e_ab, ident), f_ab))
            t23.append((graded_tensor(ident, e_ab), f_ab))
    s12 = [(s_matrix(n) if S is None else S, CoordFunctional.unit())]
    lhs = _collect_entries(_op_valued_product(s12, _op_valued_product(t13, t23)))
    rhs = _collect_entries(_op_valued_product(_op_valued_product(t23, t13), s12))
    return lhs, rhs


def braid_triple_product(rep, a: int) -> SOp:
    """T_a as the divided-power sum with every term the plain product
    e_a^(i) f_a^(j) e_a^(k) k_a^{k-i} k_{a+1}^{i-k}, built from scratch."""
    ch = rep.chevalley()
    qq = param_q(rep.param)
    e_div = hecke_clifford._divided_powers(ch[("e", a)])
    f_div = hecke_clifford._divided_powers(ch[("f", a)])
    ka, ka_inv = ch[("k", a)], ch[("kinv", a)]
    kb, kb_inv = ch[("k", a + 1)], ch[("kinv", a + 1)]

    def k_pow(op_pos, op_neg, t):
        return op_pos.power(t) if t >= 0 else op_neg.power(-t)

    total = None
    for i in range(len(e_div)):
        for j in range(len(f_div)):
            for k in range(len(e_div)):
                coeff = qq ** (k * (k - j) - i * (i - j + k) + j - 1)
                if j & 1:
                    coeff = -coeff
                term = (
                    e_div[i] @ f_div[j] @ e_div[k] @ k_pow(ka, ka_inv, k - i) @ k_pow(kb, kb_inv, i - k)
                ).scale(coeff)
                total = term if total is None else total + term
    return total


def hw_in_block(space, hw: list[dict], ech) -> list[tuple[int, dict]]:
    """S & HW_mu computed in V, as the census did before it asked the block:
    (p, flat w), w of parity |hw[0]| + p, the combinations of hw whose residuals
    modulo S (its echelon) cancel, per parity (S is graded)."""
    cols = {i: list(flatten_vector(space, v).items()) for i, v in enumerate(hw)}  # hw by columns
    residuals: dict = {}  # position -> {i: the residual of hw[i] there}
    for i, col in cols.items():
        for k, v in ech.reduce(dict(col))[0].items():
            residuals.setdefault(k, {})[i] = v
    shifts = [(space.parity[next(iter(v))] + space.parity[next(iter(hw[0]))]) % 2 for v in hw]
    kernel = kernel_basis(list(residuals.values()), len(hw), shifts)
    return [(shifts[next(iter(c))], _flat_product(cols, c, len(hw), None)) for c in kernel]


def operator_algebra_span(gens: list[SOp]):
    """(echelon, basis) of the span of all words in the generators, by the exact
    closure, with the kept words rebuilt eagerly as operators, one product each."""
    seeds = superlinalg._algebra_seeds(gens)
    ech, _, words = superlinalg._closure(gens, seeds)
    return ech, superlinalg._rebuild(gens, seeds, words)


def tensor_power_fold(rep, m: int):
    """The m-th tensor power of rep as the plain left fold, with no memo."""
    out = rep
    for _ in range(m - 1):
        out = uq_queer.tensor_product_rep(out, rep)
    return out


def graded_tensor_reference(A: SOp, B: SOp) -> SOp:
    """The Koszul-signed tensor product by the plain double loop: one product
    per pair of entries, on fresh spaces."""
    out = {}
    for (ra, ca), va in A.entries.items():
        for (rb, cb), vb in B.entries.items():
            v = va * vb
            out[(ra + rb, ca + cb)] = -v if B.par and A.dom.parity[ca] else v
    dom, cod = superlinalg.tensor_pair(A.dom, B.dom), superlinalg.tensor_pair(A.cod, B.cod)
    return SOp(dom, cod, A.par + B.par, out, validate=False)


def tensor_product_reference(A, B) -> dict:
    """The generators of A (x) B term by term: Delta(L_ij) = sum_k L_ik (x) L_kj,
    one plain tensor product per k, joined with + in increasing k."""
    gen = {}
    for (i, j) in uq_queer.generator_pairs(A.spec.n):
        terms = [graded_tensor_reference(A.act(i, k), B.act(k, j)) for k in index_range(A.spec.n) if i <= k <= j]
        gen[(i, j)] = functools.reduce(operator.add, terms)
    return gen


def hc_tensor_action_reference(n: int, m: int, param: str = PARAM_Q):
    """(T_1..T_{m-1}, C_1..C_m) on V^{(x)m}, each entry from the closed formulas
    at its own word."""
    W = superlinalg.tensor_space(SuperSpace.standard(n), m)
    qq, xi = param_q(param), uq_queer.param_xi(param)
    t_ops = []
    for a in range(1, m):
        entries: dict = {}
        for w in W.labels:
            i, j = w[a - 1], w[a]
            swapped = w[: a - 1] + (j, i) + w[a + 1 :]
            coeff = qq ** uq_queer.phi(i, j)
            if index_parity(i) and index_parity(j):
                coeff = -coeff
            entries[(swapped, w)] = entries.get((swapped, w), 0) + coeff
            if i < j:
                entries[(w, w)] = entries.get((w, w), 0) + xi
            if -i < j:
                flipped = w[: a - 1] + (-i, -j) + w[a + 1 :]
                add = -xi if index_parity(j) else xi
                entries[(flipped, w)] = entries.get((flipped, w), 0) + add
        t_ops.append(SOp(W, W, 0, {k: v for k, v in entries.items() if v}, validate=False))
    c_ops = []
    for b in range(1, m + 1):
        entries = {}
        for w in W.labels:
            exp = sum(index_parity(x) for x in w[: b - 1]) + index_parity(w[b - 1])
            flipped = w[: b - 1] + (-w[b - 1],) + w[b:]
            entries[(flipped, w)] = -ONE if exp & 1 else ONE
        c_ops.append(SOp(W, W, 1, entries, validate=False))
    return t_ops, c_ops


def act_reference(label: str, x, f: CoordFunctional, n: int, m: int) -> CoordFunctional:
    """The translation actions with one loop for the column side (phi) and one
    for the row side (psi, psit), each sign written out at its own side."""
    l = f.degree
    if l == 0:
        return f.scale(_counit_value(x)) if coord_alg.word_parity(x) == 0 else CoordFunctional(0)
    xp = coord_alg.word_parity(x)
    out: dict = {}
    if label == "phi":
        M = word_sum(coord_alg._translation_rep("col", m, l).gen, x)
        for (rows, cols), v in f.terms.items():
            k1 = kappa_sign(rows, cols)
            pa = sum(index_parity(a) for a in rows) & 1
            front = -v if (xp and pa) else v
            for bc, w in M.column(cols):
                c = front * w
                if k1 * kappa_sign(rows, bc) < 0:
                    c = -c
                coord_alg._accumulate(out, (rows, bc), c)
        return CoordFunctional(l, out)
    if label in ("psi", "psit"):
        W = word_sum(coord_alg._translation_rep("row_dual" if label == "psi" else "row_twist", n, l).gen, x)
        for (rows, cols), v in f.terms.items():
            k1 = kappa_sign(rows, cols)
            front = v
            if label == "psit" and xp:
                pb = sum(index_parity(b) for b in cols) & 1
                if pb:
                    front = -front
            for ar, w in W.column(rows):
                c = front * w
                if k1 * kappa_sign(ar, cols) < 0:
                    c = -c
                coord_alg._accumulate(out, (ar, cols), c)
        return CoordFunctional(l, out)
    raise ValueError(f"unknown action label {label!r}")


def greedy_basis(n: int, m: int, l: int, order: list) -> list:
    """The normalized degree-l monomials kept by greedy selection in ``order``:
    each one whose evaluation vector on the image is independent of those kept
    before it."""
    image = coord_alg.operator_image_basis(max(n, m), l)
    ech = superlinalg.Echelon()
    return [key for key in order if ech.insert(coord_alg._eval_vector(image, CoordFunctional.monomial(*key)))]


def zero_weight_first_basis(n: int, m: int, l: int) -> list:
    """The degree-l component basis selected greedily with, at l = m, the
    zero-weight monomials t_{(a),(1..m)} seeded first and the other normalized
    monomials after them in their own order."""
    rows_pool = superlinalg.tensor_space(SuperSpace.standard(n), l).labels
    first = [(rows, tuple(range(1, m + 1))) for rows in rows_pool] if l == m else []
    return greedy_basis(n, m, l, first + [key for key in coord_alg.normalized_monomials(n, m, l) if key not in first])
