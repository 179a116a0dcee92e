"""Z2-graded linear algebra over the rational-function field.

Spaces carry a labeled, parity-tagged basis (labels are words: tuples of nonzero
indices, or opaque strings for fixture modules).  Operators are parity-homogeneous
sparse matrices.  Tensor products follow the Koszul sign rule

    (A (x) B)(u (x) w) = (-1)^{|B||u|} A(u) (x) B(w).

All results are exact and deterministic for a fixed basis order.  There is one
elimination engine, ``Echelon``: it keeps its rows fully reduced with pivot 1,
so after inserting a family its rows are the reduced row echelon form of the
family's span, and kernels and inverses are read off it.  Operator entries are
``RatFunc`` values of Q(q); a value of GF(p) is a plain int in [0, p), and
every GF(p) step runs ``Echelon`` on such residues (``RatFunc.residue``),
reduced mod p once per update.  There is one intertwiner system:
``intertwiners(A_ops, B_ops)`` solves X b = (-1)^{|X||a|} a X for every pair
(a, b), numbering X[r, c] only where every even diagonal pair has a_r = b_c,
and eliminating each connected block of unknowns on its own;
``graded_commutant`` is the case A_ops = B_ops, and ``joint_kernel`` the case
of maps from ``POINT``, the even line V^{(x)0}.  There is one flat layout of
an operator, ``_columns`` ({c N + r: entry}), and one closure,
``_closure(gens, seeds)``: an operator algebra seeds it with the identity and
the generators, a submodule with its vectors as maps from ``POINT``, and one
body multiplies the flat operators, exactly or on residues.  GF(p) only
chooses, at one point, and an exact argument or check proves each choice:
``kernel_basis`` eliminates exactly over a row basis picked in GF(p) and
checks every dropped row exactly against the kernel it found, falling back to
all rows when one does not vanish; ``certified_span`` picks the words of an
operator span in GF(p) and certifies their number against the GF(p) nullity
of a commutant that must contain the span, falling back to exact elimination
when the two bounds differ; ``submodule_echelon`` picks the words of a
submodule in GF(p) and certifies that their span is invariant
(``invariant_under``), falling back to the exact closure when it is not.
Every exact zero test (``relation_failures``,
``invariant_under``, ``kernel_basis``'s dropped rows) runs on integers at a
Kronecker point q = 2^B in Z, where it is exact; every relation check takes
its point from ``relation_bound``, derived from the instances it tests.
"""

from __future__ import annotations

import bisect
import functools
import random
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .scalars import (
    ONE, P, ZERO, EvalPoint, IdentityBound, RatFunc, _coerce, _pnorm1, identity_bound, kronecker_point, sample_mod_p,
)


def index_parity(i: int) -> int:
    """Parity of a basis index: even for positive, odd for negative."""
    if i == 0:
        raise ValueError("0 is not a basis index")
    return 0 if i > 0 else 1


def index_range(n: int) -> list[int]:
    """The index set {-n..-1, 1..n} in its total order."""
    return list(range(-n, 0)) + list(range(1, n + 1))


class SuperSpace:
    """A finite graded space with an ordered, parity-tagged basis."""

    __slots__ = ("labels", "parity", "pos")

    def __init__(self, labels: Sequence, parity: dict):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.parity = dict(parity)
        self.pos = {lab: k for k, lab in enumerate(self.labels)}

    @staticmethod
    def standard(n: int) -> "SuperSpace":
        """The vector superspace with basis v_i, i in {-n..-1, 1..n}; labels are 1-letter words."""
        labels = [(i,) for i in index_range(n)]
        return SuperSpace(labels, {lab: index_parity(lab[0]) for lab in labels})

    @staticmethod
    def named(labels: Sequence[str], odd: Iterable[str]) -> "SuperSpace":
        odd = set(odd)
        return SuperSpace(labels, {lab: 1 if lab in odd else 0 for lab in labels})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, SuperSpace)
            and self.labels == other.labels
            and self.parity == other.parity
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"SuperSpace(dim={self.dim})"


def tensor_space(V: SuperSpace, m: int) -> SuperSpace:
    """Word basis of length-m label tuples; parity is additive."""
    if m < 1:
        raise ValueError("m >= 1 required")
    out = V
    for _ in range(m - 1):
        out = tensor_pair(out, V)
    return out


def tensor_pair(V: SuperSpace, W: SuperSpace) -> SuperSpace:
    labels = []
    parity = {}
    for a in V.labels:
        pa = V.parity[a]
        for b in W.labels:
            lab = a + b
            labels.append(lab)
            parity[lab] = (pa + W.parity[b]) & 1
    return SuperSpace(labels, parity)


class SOp:
    """A parity-homogeneous sparse operator between graded spaces."""

    __slots__ = ("dom", "cod", "par", "entries", "_by_col")

    def __init__(self, dom: SuperSpace, cod: SuperSpace, par: int, entries: dict, validate: bool = True):
        self.dom = dom
        self.cod = cod
        self.par = par & 1
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        self._by_col = None
        if validate:
            dp, cp = dom.parity, cod.parity
            for (r, c) in self.entries:
                if (cp[r] + dp[c]) & 1 != self.par:
                    raise ValueError(f"entry ({r!r},{c!r}) violates operator parity {self.par}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(V: SuperSpace, one=ONE) -> "SOp":
        return SOp(V, V, 0, {(lab, lab): one for lab in V.labels}, validate=False)

    @staticmethod
    def zero(dom: SuperSpace, cod: SuperSpace | None = None, par: int = 0) -> "SOp":
        return SOp(dom, cod if cod is not None else dom, par, {}, validate=False)

    @staticmethod
    def unit(dom: SuperSpace, cod: SuperSpace, r, c, value: RatFunc = ONE) -> "SOp":
        """The matrix unit E_{rc} (scaled); parity inferred from the labels."""
        par = (cod.parity[r] + dom.parity[c]) & 1
        return SOp(dom, cod, par, {(r, c): value}, validate=False)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "SOp") -> "SOp":
        if (self.dom is not other.dom and self.dom != other.dom) or (
            self.cod is not other.cod and self.cod != other.cod
        ):
            raise ValueError("shape mismatch")
        if self.par != other.par and self.entries and other.entries:
            raise ValueError("cannot add operators of different parity")
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            w = v if s is None else s + v
            if w.is_zero():
                out.pop(k, None)
            else:
                out[k] = w
        par = self.par if self.entries else other.par
        return SOp(self.dom, self.cod, par, out, validate=False)

    def __sub__(self, other: "SOp") -> "SOp":
        return self + (-other)

    def __neg__(self) -> "SOp":
        return SOp(self.dom, self.cod, self.par, {k: -v for k, v in self.entries.items()}, validate=False)

    def scale(self, s) -> "SOp":
        if s == 0:
            return SOp.zero(self.dom, self.cod, self.par)
        if s == 1:  # SOps are never mutated, so sharing self is safe
            return self
        if s == -1:
            return -self
        products: dict = {}  # values are canonical: one product per distinct value
        entries = {k: products[v] if v in products else products.setdefault(v, s * v) for k, v in self.entries.items()}
        return SOp(self.dom, self.cod, self.par, entries, validate=False)

    def __rmul__(self, s):
        return self.scale(s)

    def _cols(self):
        if self._by_col is None:
            by = {}
            for (r, c), v in self.entries.items():
                by.setdefault(c, []).append((r, v))
            self._by_col = by
        return self._by_col

    def column(self, c) -> list:
        """The nonzero entries (r, v) of column c."""
        return self._cols().get(c, [])

    def __matmul__(self, other: "SOp") -> "SOp":
        """Composition self after other (plain operator product, no signs)."""
        if other.cod != self.dom:
            raise ValueError("composition shape mismatch")
        a_cols = self._cols()
        acc: dict = {}
        for (k, c), bv in other.entries.items():
            hits = a_cols.get(k)
            if not hits:
                continue
            for r, av in hits:
                key = (r, c)
                s = acc.get(key)
                w = av * bv if s is None else s + av * bv
                acc[key] = w
        return SOp(other.dom, self.cod, self.par + other.par, acc, validate=False)

    def power(self, k: int) -> "SOp":
        if self.dom != self.cod:
            raise ValueError("power of a non-endomorphism")
        out = SOp.identity(self.dom)
        for _ in range(k):
            out = self @ out
        return out

    def apply(self, vec: dict) -> dict:
        """Matrix-vector application; vec maps domain labels to scalars."""
        return {r: v for (r, _), v in (self @ point_map(self.dom, vec)).entries.items()}

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SOp)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SOp({self.cod.dim}x{self.dom.dim}, parity={self.par}, nnz={len(self.entries)})"

    def entry(self, r, c) -> RatFunc:
        return self.entries.get((r, c), ZERO)

    def restrict(self, labels: Sequence, space: SuperSpace | None = None) -> "SOp":
        """Restriction of an endomorphism to the span of a label subset (must be invariant)."""
        keep = set(labels)
        sub = space or SuperSpace(list(labels), {lab: self.dom.parity[lab] for lab in labels})
        out = {}
        for (r, c), v in self.entries.items():
            if c in keep:
                if r not in keep:
                    raise ValueError(f"subspace not invariant: leaks to {r!r}")
                out[(r, c)] = v
        return SOp(sub, sub, self.par, out, validate=False)

    def map(self, fn) -> "SOp":
        """Entrywise image under a scalar map; entries mapped to zero are dropped."""
        return SOp(self.dom, self.cod, self.par, {k: fn(v) for k, v in self.entries.items()}, validate=False)

    def specialize(self, c) -> "SOp":
        """Entrywise specialization at q = c, embedded back as constant scalars."""
        c = Fraction(c)
        return self.map(lambda v: RatFunc.from_fraction(v.specialize(c)))


def graded_tensor(A: SOp, B: SOp, space: SuperSpace | None = None) -> SOp:
    """Koszul-signed tensor product of operators on word-labeled spaces.

    ``space``, when given, must be ``tensor_pair`` of the domains of two
    endomorphisms A and B; the product then lives on that one object, so the
    terms of a sum share it (``tensor_product_rep``).  Each distinct pair of
    values (va, vb) is multiplied once, as ``SOp.scale`` does for one value.
    The entries come in the order of the plain double loop over A's and B's
    entries, which failure witnesses read."""
    dom = space or tensor_pair(A.dom, B.dom)
    cod = space or tensor_pair(A.cod, B.cod)
    sign_flip = B.par == 1
    dparity = A.dom.parity
    values: dict = {}  # B's distinct values, numbered
    b_entries = [(rb, cb, values.setdefault(vb, len(values))) for (rb, cb), vb in B.entries.items()]
    products: dict = {}  # va -> [va * vb for B's values]
    rows: dict = {}  # (va, flip) -> the products of va, negated when flip
    out = {}
    for (ra, ca), va in A.entries.items():
        flip = sign_flip and dparity[ca] == 1
        signed = rows.get((va, flip))
        if signed is None:
            if va not in products:
                products[va] = [va * vb for vb in values]
            signed = rows[(va, flip)] = [-v for v in products[va]] if flip else products[va]
        for rb, cb, k in b_entries:
            out[(ra + rb, ca + cb)] = signed[k]
    return SOp(dom, cod, A.par + B.par, out, validate=False)


def supercommutator(A: SOp, B: SOp) -> SOp:
    """A B - (-1)^{|A||B|} B A."""
    ab = A @ B
    ba = B @ A
    if A.par and B.par:
        return ab + ba
    return ab - ba


# ---------------------------------------------------------------------------
# relations between words in operators
# ---------------------------------------------------------------------------

def word_sum(ops: dict, terms) -> SOp:
    """The operator sum of c * ops[w_1] @ ... @ ops[w_k] over the terms (word, c),
    the empty word being the identity."""
    space = next(iter(ops.values())).dom
    total = None
    for word, c in terms:
        op = ops[word[0]] if word else SOp.identity(space)
        for w in word[1:]:
            op = op @ ops[w]
        op = op.scale(c)
        total = op if total is None else total + op
    return total if total is not None else SOp.zero(space)


def relation_failures(ops: dict, instances, point: EvalPoint, prod=None) -> list[int]:
    """The indices, in order, of the instances whose two sides differ at ``point``.

    ``ops`` maps generator keys to endomorphisms of one space.  An instance is
    (ctx, lhs, rhs), each side a list of terms (word, c) standing for
    c * ops[w_1] @ ... @ ops[w_k], c an int or a Laurent polynomial; the empty
    word is the identity.  Every entry v of ops, and every coefficient object
    (``EvalPoint.coefficients``, one X^σ for all), becomes a plain int once; a
    word of j letters is padded with lam^(K - j), K the longest word of all
    the instances.  Each instance sums lhs - rhs on ints into one dict and
    tests its entries for 0: in Z at a Kronecker point, where that is exact
    (``scalars.kronecker_point``), or mod p, once per entry.

    Each product of two or more letters is built once, kept in ``prod`` while
    a later instance still uses it, and dropped after the instance that uses it
    last.
    """
    N = next(iter(ops.values())).dom.dim
    p, lam = point.p, point.lam
    used = {w for _, lhs, rhs in instances for word, _ in (*lhs, *rhs) for w in word}
    mats = {key: _columns(ops[key], point.image.__getitem__) for key in used}  # (flat, by columns)
    # keyed by identity, so that no term hashes a RatFunc; callers share coefficient objects
    coefs = {id(c): c for _, lhs, rhs in instances for _, c in (*lhs, *rhs)}
    coef_image = dict(zip(coefs, point.coefficients(coefs.values())))
    longest = max((len(word) for _, lhs, rhs in instances for word, _ in (*lhs, *rhs)), default=0)
    pads = [lam ** (longest - j) for j in range(longest + 1)]  # by word length; negated for rhs
    side_pads = (pads, [-x for x in pads])
    ident = {i * N + i: 1 for i in range(N)}

    def product(word: tuple) -> dict:
        if not word:
            return ident
        out = mats[word[-1]][0]
        for w in reversed(word[:-1]):
            out = _flat_product(mats[w][1], out, N, p)
        return out

    last_use = {}
    for t, (_, lhs, rhs) in enumerate(instances):
        for word, _ in (*lhs, *rhs):
            if len(word) > 1:
                last_use[word] = t
    expiring: list[list] = [[] for _ in instances]
    for word, t in last_use.items():
        expiring[t].append(word)
    prod = {} if prod is None else prod

    failures = []
    for t, (_, lhs, rhs) in enumerate(instances):
        diff: dict = {}
        for side, pad in zip((lhs, rhs), side_pads):
            for word, c in side:
                c = coef_image[id(c)] * pad[len(word)]
                if not c:
                    continue
                op = prod.get(word)
                if op is None:
                    op = product(word)
                    if len(word) > 1:
                        prod[word] = op
                for k, v in op.items():
                    s = diff.get(k)
                    diff[k] = c * v if s is None else s + c * v
        for word in expiring[t]:
            prod.pop(word, None)
        if any(diff.values()) if p is None else any(v % p for v in diff.values()):
            failures.append(t)
    return failures


def relation_bound(ops: dict, instances) -> tuple[set, IdentityBound]:
    """Every entry of ``ops`` and 1, and the identity bound that covers every
    entry of lhs - rhs that ``relation_failures`` tests on ``instances``.

    Proof.  Entry (r, c) of a word g_1 ... g_k is the sum over the paths
    r = s_0, s_1, ..., s_k = c of g_1[s_0, s_1] ... g_k[s_{k-1}, s_k]; for
    i < k, s_i runs over the nonzero entries of one row of g_i, so the sum has
    at most w_1 ... w_{k-1} nonzero terms, w_i the row width of g_i (one for
    the empty word).  Padded with the value 1 to K factors, K the longest
    word, a term (word, s) contributes products s g_1 ... g_K whose
    coefficients' 1-norms add up to at most ||s||_1 w_1 ... w_{k-1}.  The
    largest sum of these over the terms of one instance is the ``terms`` of
    ``scalars.identity_bound``, whose scalars are the coefficients.
    """
    widths = {key: row_width([op]) for key, op in ops.items()}
    scalars = {id(c): _coerce(c) for _, lhs, rhs in instances for _, c in (*lhs, *rhs)}  # keyed as in relation_failures
    norms = {key: _pnorm1(s.num) for key, s in scalars.items()}
    factors = terms = 0
    for _, lhs, rhs in instances:
        count = 0
        for word, c in (*lhs, *rhs):
            norm = norms[id(c)]
            for w in word[:-1]:
                norm *= widths[w]
            count += norm
            factors = max(factors, len(word))  # as relation_failures pads
        terms = max(terms, count)
    values = {v for op in ops.values() for v in op.entries.values()} | {ONE}
    return values, identity_bound(values, [s for s in scalars.values() if s.num] or [ONE], factors, terms)


def _columns(op: SOp, scalar=lambda v: v) -> tuple[dict, dict]:
    """op over basis positions, each entry v as scalar(v): flat, {c * N + r: value}
    with N = op.cod.dim, and by columns, {c: [(r, value), ...]}.  This is the one
    flat layout of an operator; a vector is the operator from ``POINT`` (c = 0)."""
    pos_r, pos_c, N = op.cod.pos, op.dom.pos, op.cod.dim
    flat, by_col = {}, {}
    for (r, c), v in op.entries.items():
        x = flat[pos_c[c] * N + pos_r[r]] = scalar(v)
        by_col.setdefault(pos_c[c], []).append((pos_r[r], x))
    return flat, by_col


def _flat_product(a_cols: dict, b: dict, N: int, p: int | None) -> dict:
    """a @ b on flat operators with N rows (``_columns``), a given by columns, without
    zero entries; with a prime p on residues, summed on ints and reduced once per entry."""
    acc: dict = {}
    for key, bv in b.items():
        k = key % N
        base = key - k
        for r, av in a_cols.get(k, ()):
            s = acc.get(base + r)
            acc[base + r] = av * bv if s is None else s + av * bv
    if p is None:
        return {k: v for k, v in acc.items() if v}
    return {k: x for k, v in acc.items() if (x := v % p)}


def row_width(ops: Iterable[SOp]) -> int:
    """The largest number of nonzero entries in one row of one of the operators."""
    return max((max(Counter(r for r, _ in op.entries).values(), default=0) for op in ops), default=0)


def supercommutation_failures(A_ops: list[SOp], B_ops: list[SOp]) -> tuple[list[tuple[int, int]], str]:
    """The pairs (i, j), in order, with A_ops[i] B_ops[j] != (-1)^{|a||b|}
    B_ops[j] A_ops[i], and the point the check ran at, "q = 2^B in Z".

    Both families have entries in Q(q).  Each pair is one instance of
    ``relation_failures``, on integers at the Kronecker point of
    ``relation_bound``: there a difference entry is 0 exactly when it is 0 in
    Q(q), so the pairs are those of Q(q).
    """
    ops = {**{("a", i): a for i, a in enumerate(A_ops)}, **{("b", j): b for j, b in enumerate(B_ops)}}
    pairs = [(i, j) for i in range(len(A_ops)) for j in range(len(B_ops))]
    instances = [
        ((i, j), [((("a", i), ("b", j)), 1)], [((("b", j), ("a", i)), -1 if A_ops[i].par and B_ops[j].par else 1)])
        for i, j in pairs
    ]
    point = kronecker_point(*relation_bound(ops, instances))
    return [pairs[t] for t in relation_failures(ops, instances, point)], point.name


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _sub_multiple(vec: dict, c, row: dict, p: int | None = None) -> None:
    """vec -= c * row in place, dropping the entries that cancel; on residues mod p once per entry."""
    if p is not None:
        for k, v in row.items():
            w = (vec.get(k, 0) - c * v) % p
            if w:
                vec[k] = w
            else:
                vec.pop(k, None)
        return
    for k, v in row.items():
        s = vec.get(k)
        w = -c * v if s is None else s - c * v
        if w.is_zero():
            vec.pop(k, None)
        else:
            vec[k] = w


def _times(c, vec: dict, p: int | None) -> dict:
    """c * vec without its zero entries; with a prime p on residues, mod p."""
    if p is None:
        return {k: c * v for k, v in vec.items() if v}
    return {k: x for k, v in vec.items() if (x := c * v % p)}


class Echelon:
    """Incremental reduced echelon basis of sparse vectors over integer keys.

    Rows are kept fully reduced with pivot coefficient 1.  With ``track=True``
    each row remembers its expression in the inserted vectors, so membership
    queries can return coordinates.  With a prime ``p`` the entries are
    residues, ints in [0, p), reduced mod p once per update.
    """

    def __init__(self, track: bool = False, p: int | None = None):
        self.rows: list[tuple[int, dict]] = []
        self.track = track
        self.p = p
        self.combos: list[dict] = []
        self.n_inserted = 0
        # pivot -> (row, combo): the dicts in rows/combos, which back-substitution updates in place
        self._by_pivot: dict[int, tuple[dict, dict | None]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, combo: dict | None):
        # rows are fully reduced: subtracting one leaves vec unchanged at every other
        # pivot, so only the pivots in vec's support fire, each with vec's coefficient
        vec = dict(vec)
        for pivot in sorted(vec.keys() & self._by_pivot):
            c = vec[pivot]
            if not c:
                continue
            row, row_combo = self._by_pivot[pivot]
            _sub_multiple(vec, c, row, self.p)
            if combo is not None:
                _sub_multiple(combo, c, row_combo, self.p)
        return {k: v for k, v in vec.items() if v}, combo

    def reduce(self, vec: dict):
        """Residual of vec modulo the span, and, when tracking, the nonzero
        coordinates of vec minus the residual over the inserted vectors."""
        res, minus = self._reduce(vec, {} if self.track else None)
        return res, None if minus is None else _times(-1, minus, self.p)

    def insert(self, vec: dict) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        combo: dict | None = None
        if self.track:
            combo = {self.n_inserted: ONE if self.p is None else 1} if vec else {}
        self.n_inserted += 1
        res, combo = self._reduce(vec, combo)
        if not res:
            return False
        pivot = min(res)
        inv = res[pivot].inverse() if self.p is None else pow(res[pivot], -1, self.p)
        row = _times(inv, res, self.p)
        combo = None if combo is None else _times(inv, combo, self.p)
        # back-substitute into existing rows to keep the reduced form
        for i, (_, r) in enumerate(self.rows):
            c = r.get(pivot)
            if c is None:
                continue
            _sub_multiple(r, c, row, self.p)
            if self.track:
                _sub_multiple(self.combos[i], c, combo, self.p)
        at = bisect.bisect_left(self.rows, pivot, key=lambda pivot_row: pivot_row[0])
        self.rows.insert(at, (pivot, row))
        if self.track:
            self.combos.insert(at, combo)
        self._by_pivot[pivot] = (row, combo)
        return True

    def contains(self, vec: dict) -> bool:
        res, _ = self._reduce(dict(vec), None)
        return not res


def _exact_kernel(rows: list[dict], ncols: int) -> list[dict]:
    reduced = span_dim(rows)[1].rows  # the reduced row echelon form
    pivots = {col for col, _ in reduced}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: ONE}
        for col, row in reduced:  # the rows hold no zero entries
            if free in row:
                vec[col] = -row[free]
        basis.append(vec)
    return basis


def _independent_rows(rows: list[dict]) -> tuple[list[dict], list[dict]]:
    """Split rows into (kept, dropped): kept are the rows that enlarge the span of
    the earlier ones in GF(P) at one point q = c, eliminated on residues.

    Rows independent in GF(P) are independent over Q(q), so the kept rows have
    full rank; a dropped row need not lie in their span over Q(q) (c may be a
    root of a minor), which the caller checks exactly.
    """
    _, image = sample_mod_p(random.Random(0), {v for r in rows for v in r.values()})
    ech = Echelon(p=P)
    kept, dropped = [], []
    for r in rows:
        (kept if ech.insert({k: image[v] for k, v in r.items()}) else dropped).append(r)
    return kept, dropped


def _annihilates(rows: list[dict], basis: list[dict], ncols: int) -> bool:
    """Exactly: does every row have zero dot product with every basis vector?

    A dot product of a row r with a vector is a sum of at most len(r) terms
    of two entries, so the test runs on integers at the Kronecker point of
    identity_bound(entries, factors=2, terms=the longest row's length), where
    it is exact (``scalars.kronecker_point``)."""
    values = {v for vec in (*rows, *basis) for v in vec.values()}
    image = kronecker_point(values, identity_bound(values, factors=2, terms=max(map(len, rows)))).image
    by_col: dict = {}
    for b, vec in enumerate(basis):
        for k, v in vec.items():
            by_col.setdefault(k, []).append((b, image[v]))
    # the nonzero dot products with each row
    return not any(_flat_product(by_col, {k: image[v] for k, v in r.items()}, ncols, None) for r in rows)


def kernel_basis(rows: list[dict], ncols: int, block_of: Sequence | None = None) -> list[dict]:
    """Exact basis of the null space of the sparse constraint rows (columns
    0..ncols-1, entries in Q(q)); each vector is ``ONE`` at its free column.

    The basis is read off the reduced row echelon form, which the row space
    determines, so it does not depend on which spanning rows are eliminated.
    Elimination runs on a row basis picked in GF(p) (``_independent_rows``); the
    kernel is then verified exactly on the dropped rows, and recomputed from all
    rows if one of them does not vanish on it.

    With ``block_of`` (see ``_blocks``) each block is eliminated on its own and
    the vectors are merged in free-column order.  The reduced row echelon form
    of the system is that of its blocks together, so the basis is the same.
    """
    rows = [r for r in ({k: v for k, v in r.items() if not v.is_zero()} for r in rows) if r]
    basis = []
    for cols, block in _blocks(rows, block_of or [0] * ncols):
        kept, dropped = _independent_rows(block)
        kernel = _exact_kernel(kept, len(cols)) if len(kept) < len(cols) else []  # rank_p <= rank <= ncols
        if dropped and kernel and not _annihilates(dropped, kernel, len(cols)):
            kernel = _exact_kernel(block, len(cols))
        basis += ({cols[j]: v for j, v in vec.items()} for vec in kernel)
    return sorted(basis, key=lambda vec: next(iter(vec)))  # a vector's first key is its free column


def _blocks(rows: list[dict], block_of: Sequence) -> list[tuple[list[int], list[dict]]]:
    """(the columns, the nonzero rows with their columns numbered from 0) of each
    block: column i lies in block block_of[i], and the columns of each row in one."""
    blocks: dict = {}
    for i, b in enumerate(block_of):
        blocks.setdefault(b, ([], []))[0].append(i)
    local = {i: j for cols, _ in blocks.values() for j, i in enumerate(cols)}
    for r in rows:
        if r:
            blocks[block_of[next(iter(r))]][1].append({local[i]: v for i, v in r.items()})
    return list(blocks.values())


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def flatten_vector(space: SuperSpace, vec: dict) -> dict:
    return {space.pos[lab]: v for lab, v in vec.items() if not v.is_zero()}


def unflatten_vector(space: SuperSpace, flat: dict) -> dict:
    return {space.labels[k]: v for k, v in flat.items()}


def span_dim(elems: Sequence, track: bool = False, p: int | None = None):
    """Rank and echelon basis of a family of operators or flat vectors: exact, or in GF(p) on residues."""
    ech = Echelon(track=track, p=p)
    for e in elems:
        ech.insert(_columns(e)[0] if isinstance(e, SOp) else dict(e))
    return ech.dim, ech


def _numbered(pairs: list) -> tuple[dict, dict]:
    """The unknowns X[r, c] numbered in the order of ``pairs``, grouped by row
    label, {r: [(c, i), ...]}, and by column label, {c: [(r, i), ...]}."""
    by_row: dict = {}
    by_col: dict = {}
    for i, (r, c) in enumerate(pairs):
        by_row.setdefault(r, []).append((c, i))
        by_col.setdefault(c, []).append((r, i))
    return by_row, by_col


def _sylvester_rows(A: SOp, B: SOp, numbered: tuple[dict, dict], sign: int = 1, image=None) -> list[dict]:
    """Constraint rows of X B = sign * A X, as A X - sign * X B = 0, in the unknown
    entries X[r, c], numbered as ``_numbered`` groups them; with ``image``, on
    the residues mod P."""
    scalar = (lambda v: v) if image is None else image.__getitem__
    by_row, by_col = numbered
    by_rc: dict = {}
    # -sign (X B)[r,c] = -sign sum_k X[r,k] B[k,c]
    for (k, c), v in B.entries.items():
        hits = by_col.get(k)
        if not hits:
            continue
        w = -scalar(v) if sign > 0 else scalar(v)  # negated once, only for an entry that meets an unknown
        for r, i in hits:
            row = by_rc.setdefault((r, c), {})
            s = row.get(i)
            row[i] = w if s is None else s + w
    # (A X)[r,c] = sum_k A[r,k] X[k,c]
    for (r, k), v in A.entries.items():
        w = scalar(v)
        for c, i in by_row.get(k, ()):
            row = by_rc.setdefault((r, c), {})
            s = row.get(i)
            row[i] = w if s is None else s + w
    keep = (lambda v: v) if image is None else (lambda v: v % P)  # a value, or its residue in [0, P)
    return [{i: x for i, v in row.items() if (x := keep(v))} for row in by_rc.values()]


def _components(ops: list[SOp], labels: Sequence) -> dict:
    """Each label's connected component, named by one of its labels: two labels
    are joined when some operator has an entry at (r, c)."""
    members = {lab: [lab] for lab in labels}  # one list per component, shared by its labels
    for op in ops:
        for r, c in op.entries:
            a, b = sorted((members[r], members[c]), key=len)
            if a is not b:  # merge the smaller into the larger, which keeps its first label
                b += a
                members.update(dict.fromkeys(a, b))
    return {lab: comp[0] for lab, comp in members.items()}


def _intertwiner_systems(
    A_ops: list[SOp], B_ops: list[SOp], parities: Sequence[int] = (0, 1), image: dict | None = None
) -> list[tuple[int, list, list[dict], list]]:
    """Per parity p of ``parities``: (p, the numbered unknowns X[r, c], the
    constraint rows, the block of each unknown) of X b = (-1)^{|X||a|} a X for
    every pair (a, b) of A_ops and B_ops; with ``image``, on residues mod P.  The
    block of X[r, c] is (the ``_components`` of r and c): the row of entry (r, c)
    has terms a[r, k] X[k, c] and X[r, k] b[k, c], all in that block."""
    if not A_ops or len(A_ops) != len(B_ops):
        raise ValueError("need two nonempty operator families of one length")
    cod, dom = A_ops[0].dom, B_ops[0].dom
    for a, b in zip(A_ops, B_ops):
        if a.dom != cod or a.cod != cod or b.dom != dom or b.cod != dom:
            raise ValueError("operators must be endomorphisms of one space per family")
    # X b = a X for an even diagonal pair gives X[r, c] (b_c - a_r) = 0: only the
    # unknowns with a_r = b_c for every such pair are numbered, and it adds no rows
    diagonal, others = [], []
    for a, b in zip(A_ops, B_ops):
        diag = not (a.par or b.par) and all(r == c for op in (a, b) for r, c in op.entries)
        (diagonal if diag else others).append((a, b))
    row_weight = {r: tuple(a.entries.get((r, r)) for a, _ in diagonal) for r in cod.labels}
    col_weight = {c: tuple(b.entries.get((c, c)) for _, b in diagonal) for c in dom.labels}
    row_comp, col_comp = _components(A_ops, cod.labels), _components(B_ops, dom.labels)
    systems = []
    for p in parities:
        pairs = [
            (r, c) for r in cod.labels for c in dom.labels
            if (cod.parity[r] + dom.parity[c]) & 1 == p and row_weight[r] == col_weight[c]
        ]
        numbered = _numbered(pairs)
        rows = []
        for a, b in others:
            rows.extend(_sylvester_rows(a, b, numbered, -1 if (p and a.par) else 1, image))
        systems.append((p, pairs, rows, [(row_comp[r], col_comp[c]) for r, c in pairs]))
    return systems


def intertwiners(A_ops: list[SOp], B_ops: list[SOp], parity: int | None = None) -> list[SOp]:
    """Basis of all X from the space of B_ops to that of A_ops with
    X b = (-1)^{|X||a|} a X for every pair (a, b), split by parity (even first);
    with ``parity``, only the system of that parity is built and solved."""
    systems = _intertwiner_systems(A_ops, B_ops, (0, 1) if parity is None else (parity,))
    cod, dom = A_ops[0].dom, B_ops[0].dom
    return [
        SOp(dom, cod, p, {pairs[i]: v for i, v in flat.items()}, validate=False)
        for p, pairs, rows, block_of in systems for flat in kernel_basis(rows, len(pairs), block_of)
    ]


def graded_commutant(ops: list[SOp]) -> list[SOp]:
    """Basis of all X with X a = (-1)^{|X||a|} a X for every a in ops, split by parity."""
    return intertwiners(ops, ops)


def _nullities(ops: list[SOp], image: dict) -> list[int]:
    """The nullity in GF(P) of the graded commutant system of ops at the point of
    ``image`` (residues mod P), per parity (even first), block by block, the rows
    by decreasing first column: the rank is the same, and the rows stay sparse."""
    return [
        len(pairs) - sum(span_dim(sorted(b, key=min, reverse=True), p=P)[0] for _, b in _blocks(rows, block_of))
        for _, pairs, rows, block_of in _intertwiner_systems(ops, ops, image=image)
    ]


POINT = SuperSpace([()], {(): 0})  # V^{(x)0}: a vector of V is an operator POINT -> V


def point_map(space: SuperSpace, vec: dict) -> SOp:
    """The operator POINT -> space that sends the point's basis vector to vec."""
    par = next((space.parity[lab] for lab in vec), 0)
    return SOp(POINT, space, par, {(lab, ()): v for lab, v in vec.items()}, validate=False)


def joint_kernel(ops: list[SOp], weight: Sequence = ()) -> list[dict]:
    """Exact basis of the vectors killed by every operator in ops on which each
    diagonal d of the (d, eigenvalue) pairs in weight acts by its eigenvalue,
    parity-homogeneous, even first: the intertwiners from POINT on which each
    op acts by 0 and each d by its eigenvalue (a zero eigenvalue, an empty
    scalar, matches the entries where d vanishes)."""
    A_ops = [*ops, *(d for d, _ in weight)]
    B_ops = [SOp.zero(POINT)] * len(ops) + [SOp.identity(POINT, value) for _, value in weight]
    return [{r: v for (r, _), v in X.entries.items()} for X in intertwiners(A_ops, B_ops)]


def _closure(gens: list[SOp], seeds: list[SOp], limit: int | None = None, image: dict | None = None):
    """Left-multiplication closure of the seeds under the generators, iterated
    until the span stabilizes or reaches dimension ``limit``: (echelon, basis,
    words), where words[k] = (g, parent) records basis[k] = gens[g] @
    basis[parent]; g None is seeds[parent].

    Every operator is flat (``_columns``) and multiplied by ``_flat_product``:
    exactly, or with ``image`` in GF(P) on residues.  A word is kept when it
    leaves the span of the earlier ones, whatever the order of the keys."""
    scalar, p = (lambda v: v, None) if image is None else (image.__getitem__, P)
    N = gens[0].dom.dim
    cols = [_columns(g, scalar)[1] for g in gens]
    ech = Echelon(p=p)
    basis: list = []
    words: list[tuple] = []

    def candidates():
        for s, op in enumerate(seeds):
            yield {k: x for k, x in _columns(op, scalar)[0].items() if x}, (None, s)
        done = 0
        while done < len(basis):  # multiply the words kept in the last round
            layer, done = range(done, len(basis)), len(basis)
            for g in range(len(gens)):
                for b in layer:
                    yield _flat_product(cols[g], basis[b], N, p), (g, b)

    for op, word in candidates():
        if op and ech.insert(op):
            basis.append(op)
            words.append(word)
            if len(basis) == limit:
                break
    return ech, basis, words


def invariance_bound(ops: list[SOp], vectors: list[dict], rows: list[tuple[int, dict]]) -> tuple[set, IdentityBound]:
    """The entries of ops, vectors and rows and 1, and the identity bound that
    covers every entry ``invariant_under`` tests: identity_bound(values,
    factors=3, terms=w (1 + c)), w = ``row_width(ops)`` and c the largest
    number c_i of rows with r_l[i] != 0, over the positions i.

    Proof.  Entry i of op v is sum_k op[i, k] v[k], at most w terms of two
    values; entry i of sum_l (op v)[p_l] r_l is the sum over the c_i rows
    with r_l[i] != 0 of sum_k op[p_l, k] v[k] r_l[i], at most w c_i terms of
    three.  Padded with the value 1 to three factors, an entry of
    op v - sum_l (op v)[p_l] r_l is a sum of at most w (1 + c) terms
    +-g_1 g_2 g_3.
    """
    values = {v for op in ops for v in op.entries.values()} | {ONE}
    values |= {v for vec in (*vectors, *(row for _, row in rows)) for v in vec.values()}
    c = max(Counter(i for _, row in rows for i in row).values(), default=0)
    return values, identity_bound(values, factors=3, terms=row_width(ops) * (1 + c))


def invariant_under(ops: list[SOp], vectors: list[dict], rows: list[tuple[int, dict]]) -> bool:
    """Whether op v lies in the span of ``rows`` for every op and every vector v,
    decided exactly with one zero test per entry.

    Entries are in Q(q).  Vectors and rows are flat dicts over the positions
    of the ops' space; rows are an ``Echelon``'s (pivot, row): row l is 1 at
    its pivot p_l and 0 at every other row's pivot.  A vector u lies in their
    span exactly when u = sum_l u[p_l] r_l (if u = sum_l c_l r_l, reading
    position p_l gives c_l = u[p_l]), so the test is f = op v - sum_l
    (op v)[p_l] r_l = 0.

    The test runs on integers at the Kronecker point of ``invariance_bound``,
    with op v padded by lam to three factors; there (``scalars.kronecker_point``
    has the proof) each entry is 0 exactly when it is 0 in Q(q).
    """
    if not ops:
        return True
    point = kronecker_point(*invariance_bound(ops, vectors, rows))
    image = point.image
    rows = [(pivot, {k: image[v] for k, v in row.items()}) for pivot, row in rows]
    vectors = [{k: image[v] for k, v in vec.items()} for vec in vectors]
    for op in ops:
        by_col = _columns(op, image.__getitem__)[1]
        for vec in vectors:
            img = _flat_product(by_col, vec, op.dom.dim, None)
            diff = {k: point.lam * v for k, v in img.items()}
            for pivot, row in rows:
                c = img.get(pivot)
                if c:
                    for k, v in row.items():
                        diff[k] = diff.get(k, 0) - c * v
            if any(diff.values()):
                return False
    return True


def submodule_echelon(gens: list[SOp], seeds: list[dict]) -> tuple[Echelon, list[tuple] | None]:
    """The exact ``Echelon`` of the smallest subspace that contains the seed
    vectors (dicts over the labels of the gens' space) and is invariant under
    gens, all with entries in Q(q), and its words (``_closure``): its rows are
    that subspace's reduced row echelon form, tracked over the words' vectors.

    GF(p) picks the words, at one point q = c where no entry has a pole: the
    closure runs there, and the kept words, rebuilt exactly one product each,
    are inserted into an exact ``Echelon``.  Words independent in GF(p) are
    independent over Q(q), and every word lies in the closure; so the words
    span the closure exactly when their span contains the seeds and is
    invariant.  A seed kept as a word lies in it; any other is checked
    exactly, and invariance is certified by ``invariant_under`` on the rows.
    When either fails (the point lowered some rank), the closure runs by exact
    elimination, with no words (None).  The reduced row echelon form depends
    only on the subspace, so both paths return the same rows.
    """
    space = gens[0].dom
    seed_ops = [point_map(space, v) for v in seeds]
    _, image = sample_mod_p(random.Random(0), {v for op in (*gens, *seed_ops) for v in op.entries.values()})
    words = _closure(gens, seed_ops, image=image)[2]
    ech = span_dim(_rebuild(gens, seed_ops, words), track=True)[1]
    kept = {parent for g, parent in words if g is None}
    seeds_in = all(ech.contains(flatten_vector(space, v)) for s, v in enumerate(seeds) if s not in kept)
    if seeds_in and invariant_under(gens, [row for _, row in ech.rows], ech.rows):
        return ech, words
    return _closure(gens, seed_ops)[0], None


def _rebuild(gens: list[SOp], seeds: list[SOp], words: list[tuple]) -> list[SOp]:
    """The operators of a closure's words, rebuilt exactly, one product each."""
    basis: list[SOp] = []
    for g, parent in words:
        basis.append(seeds[parent] if g is None else gens[g] @ basis[parent])
    return basis


def _algebra_seeds(gens: list[SOp]) -> list[SOp]:
    """The seeds of the algebra the generators span: the identity, then the generators."""
    if not gens:
        raise ValueError("need at least one generator")
    return [SOp.identity(gens[0].dom), *gens]


class CertifiedSpan:
    """The span of the algebra generated by some operators, as the closure's kept
    words, and the path that found its dimension: "gf_p" (matching GF(p)
    bounds, see ``certified_span``: the span is then the whole graded
    commutant of the partners) or "exact" (exact elimination, whose echelon
    form is kept for membership tests).  ``dim`` is the number of words; the
    words are rebuilt exactly as operators, one product each, only when
    ``basis`` is first read.

    ``supercommutes`` is the premise, checked exactly: every generator
    supercommutes with every partner.  It holds exactly when every basis word
    does: the words are homogeneous products of the generators, and the
    supercommutant of a partner is closed under products and same-parity sums;
    conversely a generator lies in the span, so it is a sum of same-parity basis
    words, one of which fails with the partner it fails with."""

    def __init__(
        self, gens: list[SOp], words: list[tuple], certified_by: str, echelon: Echelon | None, supercommutes: bool,
    ):
        self.gens, self.words, self.certified_by = gens, words, certified_by
        self.echelon, self.supercommutes = echelon, supercommutes

    @functools.cached_property
    def basis(self) -> list[SOp]:
        return _rebuild(self.gens, _algebra_seeds(self.gens), self.words)

    @property
    def dim(self) -> int:
        return len(self.words)

    def contains(self, op: SOp) -> bool:
        """Whether op lies in the span, by the exact echelon ("exact" path only)."""
        return self.echelon.contains(_columns(op)[0])


def certified_span(gens: list[SOp], partners: list[SOp]) -> CertifiedSpan:
    """The span of all words in gens (the identity included), certified against the
    graded commutant of partners; both families have entries in Q(q).

    When every generator supercommutes with every partner (checked exactly, by
    ``supercommutation_failures``), the words lie in that commutant, and at
    one point q = c of GF(p) with no poles

        rank_p(words) <= dim span <= dim commutant <= nullity_p(commutant system):

    words independent in GF(p) are independent over Q(q), and specializing the
    commutant's constraint rows can only lower their rank.  The closure runs in
    GF(p) and stops once its rank reaches the nullity: no later word could
    enlarge it, so the kept words are those of the full closure.  When its rank
    equals the nullity, all four numbers are equal, and the kept words, rebuilt
    exactly one product each (when ``basis`` is read), are a basis of the
    span.  They are the words the exact closure keeps unless the point lowers
    the rank of some intermediate family of words.  When the bounds differ (or
    the premise fails) the closure runs by exact elimination.
    """
    premise = not supercommutation_failures(gens, partners)[0]
    seeds = _algebra_seeds(gens)
    if premise:
        _, image = sample_mod_p(random.Random(0), {v for op in (*seeds, *partners) for v in op.entries.values()})
        nullity = sum(_nullities(partners, image))
        words = _closure(gens, seeds, limit=nullity, image=image)[2]
        if len(words) == nullity:
            return CertifiedSpan(gens, words, "gf_p", None, premise)
    ech, _, words = _closure(gens, seeds)
    return CertifiedSpan(gens, words, "exact", ech, premise)
