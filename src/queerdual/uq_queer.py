"""The quantum queer superalgebra and its concrete representations.

The algebra of rank n is generated by L_ij (i <= j in {-n..-1, 1..n}) of parity
|i|+|j|, subject to the unit relations L_ii L_{-i,-i} = 1 and the quadratic
relation governed by the S-matrix

    S = sum_{i,j} q^{phi(i,j)} E_ii (x) E_jj
      + xi * sum_{i<j} (-1)^{|i|} (E_ji + E_{-j,-i}) (x) E_ij,

with phi(i,j) = (-1)^{|j|} (delta_{i,j} + delta_{i,-j}) and xi = q - q^{-1}.
A representation stores one sparse operator per generator; everything downstream
(relation checking, duals, twists, weights, submodules) is exact operator
arithmetic on a chosen module, never abstract normal-form rewriting.  Relation
checking runs on integers at a point q = 2^B in Z where a zero test is exact
(see ``check_defining_relations``).

The ``param`` flag selects the q or q^{-1} form of the algebra: the q^{-1} form
has every structure constant substituted q -> q^{-1}.
"""

from __future__ import annotations

import random
import weakref

from .report import VerifyReport
from .scalars import (
    ONE, P, QINV, Q, EvalPoint, IdentityBound, PoleAtPoint, RatFunc, _pmonomial, kronecker_point, sample_mod_p,
)
from .superlinalg import (
    SOp,
    SuperSpace,
    graded_tensor,
    index_parity,
    index_range,
    joint_kernel,
    relation_bound,
    relation_failures,
    span_dim,
    submodule_echelon,
    tensor_pair,
    tensor_space,
    unflatten_vector,
    word_sum,
)

PARAM_Q = "q"
PARAM_QINV = "qinv"


class NonInvertibleDiagonal(Exception):
    """A diagonal generator action is singular (the rep is invalid)."""


class NonDiagonalCartan(Exception):
    """Some k_i is not diagonal on the chosen basis."""


def opposite_param(param: str) -> str:
    return PARAM_QINV if param == PARAM_Q else PARAM_Q


def param_q(param: str) -> RatFunc:
    return Q if param == PARAM_Q else QINV


def param_xi(param: str) -> RatFunc:
    qq = param_q(param)
    return qq - qq.inverse()


def phi(i: int, j: int) -> int:
    """Exponent phi(i,j) = (-1)^{|j|} (delta_{i,j} + delta_{i,-j})."""
    d = (1 if i == j else 0) + (1 if i == -j else 0)
    return -d if j < 0 else d


def theta(i: int, j: int, k: int) -> int:
    """Sign theta(i,j,k) = (-1)^{|i||j| + |j||k| + |k||i|}."""
    pi, pj, pk = index_parity(i), index_parity(j), index_parity(k)
    return -1 if (pi * pj + pj * pk + pk * pi) & 1 else 1


def generator_pairs(n: int) -> list[tuple[int, int]]:
    idx = index_range(n)
    return [(i, j) for i in idx for j in idx if i <= j]


class AlgebraSpec:
    """The rank n and the parameter flag; equal specs share one vector representation."""

    def __init__(self, n: int, param: str = PARAM_Q):
        if n < 1:
            raise ValueError("rank n >= 1 required")
        if param not in (PARAM_Q, PARAM_QINV):
            raise ValueError(f"param must be 'q' or 'qinv', got {param!r}")
        self.n, self.param = n, param

    def __eq__(self, other):
        return type(other) is AlgebraSpec and (self.n, self.param) == (other.n, other.param)

    def __hash__(self):
        return hash((self.n, self.param))

    def __repr__(self):
        return f"AlgebraSpec(n={self.n!r}, param={self.param!r})"


class QueerRep:
    """A representation: one operator per generator L_ij, plus the parameter flag; its
    Chevalley operators are built on first use, its tensor powers kept weakly (``tensor_rep``)."""

    def __init__(self, spec: AlgebraSpec, space: SuperSpace, gen: dict):
        self.spec = spec
        self.space = space
        self.gen = dict(gen)
        self._chev = None
        self._powers = weakref.WeakValueDictionary()

    @property
    def param(self) -> str:
        return self.spec.param

    def act(self, i: int, j: int) -> SOp:
        return self.gen[(i, j)]

    def chevalley(self) -> dict:
        if self._chev is None:
            self._chev = chevalley_ops(self)
        return self._chev

    def __repr__(self):
        return f"QueerRep(n={self.spec.n}, param={self.spec.param}, dim={self.space.dim})"


def s_matrix(n: int, param: str = PARAM_Q) -> SOp:
    """The S-matrix on V (x) V (Koszul-signed identification of End(V)^{(x)2})."""
    V = SuperSpace.standard(n)
    idx = index_range(n)
    qq = param_q(param)
    xi = param_xi(param)
    out = SOp.zero(tensor_space(V, 2), par=0)
    for i in idx:
        for j in idx:
            e_ii = SOp.unit(V, V, (i,), (i,))
            e_jj = SOp.unit(V, V, (j,), (j,))
            out = out + graded_tensor(e_ii, e_jj).scale(qq ** phi(i, j))
    for i in idx:
        for j in idx:
            if i < j:
                a = SOp.unit(V, V, (j,), (i,)) + SOp.unit(V, V, (-j,), (-i,))
                term = graded_tensor(a, SOp.unit(V, V, (i,), (j,)))
                s = xi if index_parity(i) == 0 else -xi
                out = out + term.scale(s)
    return out


_VECTOR_REPS: dict = {}


def vector_rep(n: int, param: str = PARAM_Q) -> QueerRep:
    """The vector representation: generator actions read off the S-matrix slots.

    One representation per (n, param) for the life of the process, so that the
    powers ``tensor_rep`` keeps on it are found again by every caller."""
    spec = AlgebraSpec(n, param)
    if spec in _VECTOR_REPS:
        return _VECTOR_REPS[spec]
    V = SuperSpace.standard(n)
    xi = param_xi(param)
    qq = param_q(param)
    gen = {}
    for (i, j) in generator_pairs(n):
        if i == j:
            gen[(i, j)] = SOp(
                V, V, 0, {((a,), (a,)): qq ** phi(a, j) for a in index_range(n)}, validate=False
            )
        else:
            s = xi if index_parity(i) == 0 else -xi
            op = SOp.unit(V, V, (j,), (i,), s) + SOp.unit(V, V, (-j,), (-i,), s)
            gen[(i, j)] = op
    rep = _VECTOR_REPS[spec] = QueerRep(spec, V, gen)
    return rep


def tensor_product_rep(A: QueerRep, B: QueerRep) -> QueerRep:
    """Tensor product module via the comultiplication Delta(L_ij) = sum_k L_ik (x) L_kj.

    Every term and generator lives on one space, ``tensor_pair(A.space,
    B.space)``, and each term multiplies each distinct pair of values once
    (``graded_tensor``).  The entries come in the order of the terms joined
    with ``+`` in increasing k, which failure witnesses read."""
    if A.spec != B.spec:
        raise ValueError("factor representations must share the algebra spec")
    n = A.spec.n
    space = tensor_pair(A.space, B.space)
    gen = {}
    for (i, j) in generator_pairs(n):
        acc = None
        for k in index_range(n):
            if i <= k <= j:
                term = graded_tensor(A.act(i, k), B.act(k, j), space)
                acc = term if acc is None else acc + term
        gen[(i, j)] = acc
    return QueerRep(A.spec, space, gen)


def tensor_rep(rep: QueerRep, m: int) -> QueerRep:
    """The m-th tensor power of a representation (m = 1 returns the input), the
    left fold tensor_product_rep(tensor_rep(rep, m - 1), rep).

    Each power is kept in a weak-valued memo on rep: while some caller holds
    it, every call returns that one object, with its Chevalley operators, and
    once no caller does it is freed.  So callers that work on one V^{(x)m} at a
    time share it without keeping any power alive for the whole process."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if m == 1:
        return rep
    out = rep._powers.get(m)
    if out is None:
        out = rep._powers[m] = tensor_product_rep(tensor_rep(rep, m - 1), rep)
    return out


def chevalley_ops(rep: QueerRep) -> dict:
    """The named operator family {k_i, k_i^{-1}, kbar_i, e_j, f_j, ebar_j, fbar_j}.

    Products of L-generators per the standard dictionary; the scalar on e_j is
    -xi^{-1} (not the sometimes-quoted -xi), which is the normalization that
    reproduces the vector-module action table verbatim.
    """
    n = rep.spec.n
    xi_inv = param_xi(rep.param).inverse()
    ops = {}
    for i in range(1, n + 1):
        ops[("k", i)] = rep.act(i, i)
        ops[("kinv", i)] = rep.act(-i, -i)
        ops[("kbar", i)] = rep.act(-i, i).scale(-xi_inv)
    for j in range(1, n):
        ops[("e", j)] = (rep.act(j + 1, j + 1) @ rep.act(-j - 1, -j)).scale(-xi_inv)
        ops[("f", j)] = (rep.act(j, j + 1) @ rep.act(-j - 1, -j - 1)).scale(xi_inv)
        ops[("ebar", j)] = (rep.act(j + 1, j + 1) @ rep.act(-j - 1, j)).scale(-xi_inv)
        ops[("fbar", j)] = (rep.act(-j, j + 1) @ rep.act(-j - 1, -j - 1)).scale(-xi_inv)
    return ops


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _relation_terms(i, j, k, l, qpow, xi):
    """Both sides of quadratic instance (i, j, k, l), each a list of terms
    (word, c): the product G[a] @ G[b] for the word (a, b), scaled by c.
    qpow[e] is (q^e, -q^e) for e in (-1, 0, 1) and xi is (xi, -xi): every
    coefficient is one of these objects, with no product."""
    pi, pj, pk, pl = index_parity(i), index_parity(j), index_parity(k), index_parity(l)
    lhs = [(((i, j), (k, l)), qpow[phi(j, l)][((pi + pj) * (pk + pl)) & 1])]
    if k <= j < l:
        lhs.append((((i, l), (k, j)), xi[theta(i, j, k) < 0]))
    if i <= -l < j <= -k:
        lhs.append((((i, -l), (k, -j)), xi[theta(-i, -j, k) < 0]))
    rhs = [(((k, l), (i, j)), qpow[phi(i, k)][0])]
    if k < i <= l:
        rhs.append((((i, l), (k, j)), xi[theta(i, j, k) < 0]))
    if -j <= k < -i <= l:
        rhs.append((((-i, l), (-k, j)), xi[theta(-i, -j, k) < 0]))
    return lhs, rhs


def _quadratic_instances(pairs, qq, xi) -> list:
    """Every quadratic relation instance (i, j, k, l) over the generator pairs."""
    qpow, xis = {e: (s, -s) for e, s in ((-1, qq.inverse()), (0, ONE), (1, qq))}, (xi, -xi)
    return [((i, j, k, l), *_relation_terms(i, j, k, l, qpow, xis)) for (i, j) in pairs for (k, l) in pairs]


def _first_failure(G, key: str, instances, point: EvalPoint):
    """The witness of the first instance that fails on the operators G at
    ``point``, or None: the first entry of its lhs - rhs, built from G in Q(q)."""
    failures = relation_failures(G, instances, point)
    if not failures:
        return None
    ctx, lhs, rhs = instances[failures[0]]
    diff = word_sum(G, lhs) - word_sum(G, rhs)
    return {key: ctx, "basis_vector": repr(next(iter(diff.entries))[1])}


def _quadratic_witness(G, pairs, qq, xi, point: EvalPoint | None = None):
    """The first quadratic relation instance that fails on the operators G, or
    None; by default at the Kronecker point of ``relation_bound`` on them."""
    instances = _quadratic_instances(pairs, qq, xi)
    if point is None:
        point = kronecker_point(*relation_bound(G, instances))
    return _first_failure(G, "instance", instances, point)


def _prob_trials(report: VerifyReport, values, bound: IdentityBound, trials: int, seed: int):
    """Record a GF(p) identity test's bound and draw its trial points.

    Returns one (c, residue of each value at q = c) per trial, or None when the
    bound is not sound; the caller then checks exactly, as the report records.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    report.derive("degree_bound", bound.degree)
    report.derive("excluded_points", bound.excluded)
    if not bound.sound:
        report.derive("prob_fallback", f"exact: height bound {bound.height} >= p")
        report.derive("false_match_bound", "0")
        return None
    rng = random.Random(seed)
    draws = [sample_mod_p(rng, values) for _ in range(trials)]
    report.derive("trial_points", [str(c) for c, _ in draws])
    report.derive("false_match_bound", str(bound.false_match(trials)))
    return draws


def check_defining_relations(
    rep: QueerRep, mode: str = "exact", trials: int = 5, seed: int = 0
) -> VerifyReport:
    """Verify every unit relation and every expanded quadratic relation instance.

    Each instance is one pass on plain ints (``superlinalg.relation_failures``):
    its terms are merged by word and each word, of at most two letters, is
    added straight into lhs - rhs, so no product of generators is built; the
    two sides are built as operators only for the witness of the first failing
    instance, from the generators in Q(q).  Both modes map every generator
    entry to an int at a point and test there.  The unit and quadratic
    instances are built once, and bounds D on
    the degree and H on the height of every entry they test come from those
    instances, with the generator entries and the coefficients they use
    (``superlinalg.relation_bound`` has the proof).

    Exact mode evaluates once, at the Kronecker point q = 2^B in Z, B the bit
    length of H, where an entry is 0 exactly when it is 0 in Q(q)
    (``scalars.kronecker_point``): every verdict and witness is that of Q(q),
    with no error probability, and the report records the point as ``exact_point``.

    Probabilistic mode runs the checks in GF(p), p = 2^61 - 1, once per
    trial: it draws c uniformly from [2, p) with the seeded RNG (redrawing at
    poles) and maps to GF(p) at q = c.  A relation that fails in Q(q) passes
    all trials with probability at most false_match_bound =
    (D / (p - E))^trials, recorded with D (degree_bound) and E
    (excluded_points), the number of points the sample leaves out.  When
    H >= p, so that p could divide every coefficient of a nonzero difference,
    the check runs in exact mode and the report says so.
    """
    n = rep.spec.n
    report = VerifyReport(
        "relations",
        {"n": n, "param": rep.param, "dim": rep.space.dim, "mode": mode},
    )
    if mode not in ("exact", "prob"):
        raise ValueError(f"unknown mode {mode!r}")
    pairs = generator_pairs(n)
    unit = [  # L_ii L_{-i,-i} = 1 and L_{-i,-i} L_ii = 1
        (i, [((left, right), 1)], [((), 1)])
        for i in index_range(n) for left, right in (((i, i), (-i, -i)), ((-i, -i), (i, i)))
    ]
    quadratic = _quadratic_instances(pairs, param_q(rep.param), param_xi(rep.param))
    values, bound = relation_bound(rep.gen, unit + quadratic)
    points = None
    if mode == "prob":
        draws = _prob_trials(report, values, bound, trials, seed)
        if draws is not None:
            points = [(f"@q={c}:", EvalPoint(c, image, P)) for c, image in draws]
    if points is None:
        point = kronecker_point(values, bound)
        report.derive("exact_point", point.name)
        points = [("", point)]
    for tag, point in points:
        for name, key, instances in (("unit", "i", unit), ("quadratic", "instance", quadratic)):
            witness = _first_failure(rep.gen, key, instances, point)
            report.add(f"{tag}{name}_relations", witness is None, witness=witness)
    report.derive("n_quadratic_instances", len(pairs) ** 2)
    return report.finish()


# ---------------------------------------------------------------------------
# antipode machinery, duals, the sigma twist
# ---------------------------------------------------------------------------

def _op_inverse(op: SOp) -> SOp:
    """Inverse of an invertible endomorphism (fast path for diagonal operators)."""
    space = op.dom
    if all(r == c for (r, c) in op.entries):
        if len(op.entries) < space.dim:
            raise NonInvertibleDiagonal("diagonal generator action is singular")
        return SOp(space, space, 0, {k: v.inverse() for k, v in op.entries.items()}, validate=False)
    dim = space.dim
    pos = space.pos
    rows = []
    for r_lab in space.labels:
        row = {}
        for (r, c), v in op.entries.items():
            if r == r_lab:
                row[pos[c]] = v
        row[dim + pos[r_lab]] = ONE
        rows.append(row)
    reduced = span_dim(rows)[1].rows  # [op | 1] reduces to [1 | op^{-1}]
    if len(reduced) != dim or any(col >= dim for col, _ in reduced):
        raise NonInvertibleDiagonal("generator action is singular")
    entries = {}
    for col, row in reduced:
        for k, v in row.items():
            if k >= dim:
                entries[(space.labels[col], space.labels[k - dim])] = v
    return SOp(space, space, op.par, entries, validate=False)


def antipode_images(rep: QueerRep) -> dict:
    """Operators of the antipode images S(L_ij), by triangular back-substitution
    from sum_k S(L_ik) L_kj = delta_ij."""
    n = rep.spec.n
    idx = index_range(n)
    s: dict = {}
    for i in idx:
        s[(i, i)] = _op_inverse(rep.act(i, i))
    order = sorted(
        ((i, j) for (i, j) in generator_pairs(n) if i < j),
        key=lambda p: idx.index(p[1]) - idx.index(p[0]),
    )
    for (i, j) in order:
        acc = None
        for k in idx:
            if i < k <= j:
                term = rep.act(i, k) @ s[(k, j)]
                acc = term if acc is None else acc + term
        s[(i, j)] = (s[(i, i)] @ acc).scale(-1)
    return s


def dual_space(V: SuperSpace) -> SuperSpace:
    """The dual basis indexed by the same labels with the same parities."""
    return SuperSpace(V.labels, V.parity)


def dual_rep(rep: QueerRep) -> QueerRep:
    """Dual module: <x.f, v> = (-1)^{|x||f|} <f, S(x).v> on the dual basis."""
    s = antipode_images(rep)
    Vd = dual_space(rep.space)
    par = rep.space.parity
    gen = {}
    for (i, j), op in s.items():
        p = (index_parity(i) + index_parity(j)) & 1
        entries = {}
        for (r, c), v in op.entries.items():
            # matrix on the dual basis: entry (a, b) = (-1)^{|L||b|} S(L)[b, a]
            entries[(c, r)] = -v if (p and par[r]) else v
        gen[(i, j)] = SOp(Vd, Vd, p, entries, validate=False)
    return QueerRep(rep.spec, Vd, gen)


def sigma_twist(rep: QueerRep) -> QueerRep:
    """Representation of the opposite-parameter algebra on the dual basis of the
    same space, twisted by sigma: L_ij -> (-1)^{|i||j|+|j|} L_{-j,-i}.

    sigma extends the displayed generator map to a plain (non-Koszul)
    anti-homomorphism out of the opposite-parameter algebra; pairing it against
    the module gives <x.f, v> = <f, sigma(x).v>, so each generator acts by the
    signed plain transpose of the sigma-image.  This is the module structure the
    row-side translation action needs; it realizes x |-> S^{-1}(sigma(x)) with
    the unsigned dual pairing, passes every defining-relation check for the
    opposite parameter, and squares to the identity on matrices.
    """
    Vd = dual_space(rep.space)
    gen = {}
    for (i, j) in generator_pairs(rep.spec.n):
        pi, pj = index_parity(i), index_parity(j)
        sign = -1 if (pi * pj + pj) & 1 else 1
        src = rep.act(-j, -i)
        entries = {(c, r): v * sign for (r, c), v in src.entries.items()}
        gen[(i, j)] = SOp(Vd, Vd, (pi + pj) & 1, entries, validate=False)
    return QueerRep(AlgebraSpec(rep.spec.n, opposite_param(rep.param)), Vd, gen)


# ---------------------------------------------------------------------------
# weights, highest weight vectors, submodules
# ---------------------------------------------------------------------------

def _monomial_exponent(v: RatFunc) -> int | None:
    a, b = _pmonomial(v.num), _pmonomial(v.den)
    if a and b and a[1] == b[1] == 1:
        return a[0] - b[0]
    return None


def weight_spaces(rep: QueerRep) -> dict:
    """Partition of the basis by the integer exponent vector of the k_i eigenvalues."""
    n = rep.spec.n
    sign = 1 if rep.param == PARAM_Q else -1
    diag = []
    for i in range(1, n + 1):
        op = rep.act(i, i)
        if any(r != c for (r, c) in op.entries):
            raise NonDiagonalCartan(f"k_{i} is not diagonal on the chosen basis")
        diag.append(op)
    out: dict = {}
    for lab in rep.space.labels:
        mu = []
        for i, op in enumerate(diag, start=1):
            e = _monomial_exponent(op.entry(lab, lab))
            if e is None:
                raise NonDiagonalCartan(f"k_{i} eigenvalue on {lab!r} is not a power of q")
            mu.append(sign * e)
        out.setdefault(tuple(mu), []).append(lab)
    return out


def is_dominant_weight(mu: tuple) -> bool:
    """The strictness predicate: weakly decreasing, equal adjacent entries both zero."""
    for a, b in zip(mu, mu[1:]):
        if a < b or (a == b and a != 0):
            return False
    return True


def raising_operators(rep: QueerRep) -> list[SOp]:
    ch = rep.chevalley()
    n = rep.spec.n
    return [ch[("e", i)] for i in range(1, n)] + [ch[("ebar", i)] for i in range(1, n)]


def highest_weight_vectors(rep: QueerRep, weight: tuple) -> list[dict]:
    """Basis of the vectors of the weight killed by every raising operator e_i,
    ebar_i: the joint kernel on which each k_i acts by q^{weight_i} (q^{-1} for
    the q^{-1} form), even vectors first."""
    n = rep.spec.n
    if len(weight) != n:
        raise ValueError(f"weight {tuple(weight)} has {len(weight)} entries, rank n = {n}")
    qq = param_q(rep.param)
    cartan = [(rep.act(i, i), qq ** mu) for i, mu in enumerate(weight, start=1)]
    return joint_kernel(raising_operators(rep), cartan)


def generate_submodule(rep: QueerRep, seeds: list[dict]) -> list[dict]:
    """The reduced row echelon basis of the closure of the seed span under all
    generator actions, exact: words picked in GF(p) and certified invariant,
    or the exact closure (``superlinalg.submodule_echelon`` has the argument)."""
    ech, _ = submodule_echelon(list(rep.gen.values()), seeds)
    return [unflatten_vector(rep.space, dict(row)) for _, row in ech.rows]


def classical_limit(rep: QueerRep) -> dict:
    """Specialization at q = 1 of the Chevalley family, with k_i replaced by
    h_i = (k_i - 1)/(q - 1); raises PoleAtPoint naming the offending generator."""
    ch = rep.chevalley()
    n = rep.spec.n
    out = {}
    qm1_inv = (Q - ONE).inverse()
    for name, op in ch.items():
        kind = name[0]
        try:
            if kind == "k":
                h = (op - SOp.identity(rep.space)).scale(qm1_inv)
                out[("h", name[1])] = h.specialize(1)
            elif kind == "kinv":
                continue
            else:
                out[name] = op.specialize(1)
        except PoleAtPoint as exc:
            raise PoleAtPoint(f"generator {name}: {exc}") from exc
    return out
