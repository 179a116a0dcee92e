"""The Hecke-Clifford superalgebra HC_q(m) acting on tensor space and on zero
weight spaces.

Generators: even T_1..T_{m-1}, odd C_1..C_m.  Relation families checked by
``hc_check`` (q' is q or q^{-1} per the parameter flag):

    hc1  (T_a - q')(T_a + q'^{-1}) = 0
    hc2  T_a T_{a+1} T_a = T_{a+1} T_a T_{a+1}
    hc3  T_a T_b = T_b T_a                and |a-b| > 1
    hc4  C_a^2 = eps * 1, one global eps in {+1, -1}
    hc5  C_a C_b = -C_b C_a              and a != b
    hc6  T_a C_a = C_{a+1} T_a
    hc7  T_a C_b = C_b T_a               and b != a, a+1

On hc4: over the rational-function base field the two Clifford normalizations
are inequivalent forms.  The zero-weight Clifford generators kbar_b square to
+1 there, while the tensor-action generators (Koszul extensions of the odd
involution to one slot) square to -1; rescaling one into the other needs a
square root of -1, which the field lacks.  hc_check therefore accepts a single
uniform sign eps and reports it as derived_values["clifford_square"]; every
other family is checked verbatim, hc1 in the expanded form
T_a T_a + (q'^{-1} - q') T_a - 1 = 0.

Each family instance is a relation between words of at most three generators,
checked in one pass by ``superlinalg.relation_failures`` (only hc2's words
build an inner product) on integers at one Kronecker point q = 2^B in Z,
whose bound ``superlinalg.relation_bound`` derives from the instances
themselves, so the verdicts and witnesses are those of Q(q); the report
records the point as ``exact_point``.

The tensor action transcribes the two closed formulas (graded swap with
q-weight, two xi-corrections guarded by the order on the index set, tabled
once on two adjacent letters; Clifford sign counts the odd letters up to and
including the flipped slot).
Braid operators on a weight module are built one weight space V_mu at a
time: T_a maps V_mu onto V_{s_a mu}, so of the divided-power triple sum only
the terms that land there are kept, each computed on the block's columns
alone.  On the zero weight space they pair with C_b = kbar_b to give the
HC-module structure for the opposite parameter, and only that block is built.
"""

from __future__ import annotations

import itertools

from .report import VerifyReport
from .scalars import ONE, kronecker_point, q_number
from .superlinalg import (
    SOp, SuperSpace, index_parity, index_range, relation_bound, relation_failures, tensor_space, word_sum,
)
from .uq_queer import (
    PARAM_Q,
    QueerRep,
    opposite_param,
    param_q,
    param_xi,
    phi,
    weight_spaces,
)


class EmptyZeroWeight(Exception):
    """The zero weight block is zero (rank vs. tensor degree mismatch)."""


class HCSpec:
    """The number m of tensor factors and the parameter flag of HC_m."""

    def __init__(self, m: int, param: str = PARAM_Q):
        if m < 1:
            raise ValueError("m >= 1 required")
        self.m, self.param = m, param

    def __eq__(self, other):
        return type(other) is HCSpec and (self.m, self.param) == (other.m, other.param)

    def __hash__(self):
        return hash((self.m, self.param))

    def __repr__(self):
        return f"HCSpec(m={self.m!r}, param={self.param!r})"


class HCAction:
    """Concrete T/C operators on a graded space, tagged with the parameter flag."""

    def __init__(self, spec: HCSpec, space: SuperSpace, t_ops: list[SOp], c_ops: list[SOp]):
        self.spec = spec
        self.space = space
        self.t_ops = list(t_ops)  # T_1 .. T_{m-1}
        self.c_ops = list(c_ops)  # C_1 .. C_m

    def t(self, a: int) -> SOp:
        return self.t_ops[a - 1]

    def c(self, b: int) -> SOp:
        return self.c_ops[b - 1]

    def generators(self) -> list[SOp]:
        return self.t_ops + self.c_ops

    def __repr__(self):
        return f"HCAction(m={self.spec.m}, param={self.spec.param}, dim={self.space.dim})"


def hc_tensor_action(n: int, m: int, param: str = PARAM_Q) -> HCAction:
    """The T_a/C_b action on V^{(x)m} for the rank-n vector superspace.

    T_a is read from one table of T on two adjacent letters (i, j): the new
    pairs with their coefficients, placed at letters a, a + 1 of each word.
    The entries of each operator come in the order of the words and, within a
    word, of the closed formula's terms, which failure witnesses read."""
    V = SuperSpace.standard(n)
    W = tensor_space(V, m)
    qq = param_q(param)
    xi = param_xi(param)
    # (i, j) -> [((i', j'), coefficient of v_i' (x) v_j')]; the pairs differ, since
    # (j, i) = (i, j) only when i = j and (j, i) = (-i, -j) only when j = -i,
    # where the guards fail, and (i, j) != (-i, -j); no coefficient is zero
    table = {}
    for i, j in itertools.product(index_range(n), repeat=2):
        coeff = qq ** phi(i, j)
        row = table[(i, j)] = [((j, i), -coeff if index_parity(i) and index_parity(j) else coeff)]
        if i < j:
            row.append(((i, j), xi))
        if -i < j:
            row.append(((-i, -j), -xi if index_parity(j) else xi))
    t_ops = []
    for a in range(1, m):
        entries: dict = {}
        for w in W.labels:
            head, tail = w[: a - 1], w[a + 1 :]
            for pair, v in table[w[a - 1 : a + 1]]:
                entries[(head + pair + tail, w)] = v
        t_ops.append(SOp(W, W, 0, entries, validate=False))
    c_ops = []
    signs = (ONE, -ONE)
    for b in range(1, m + 1):
        entries = {}
        for w in W.labels:  # the sign counts the odd letters up to and including slot b
            flipped = w[: b - 1] + (-w[b - 1],) + w[b:]
            entries[(flipped, w)] = signs[sum(map(index_parity, w[:b])) & 1]
        c_ops.append(SOp(W, W, 1, entries, validate=False))
    return HCAction(HCSpec(m, param), W, t_ops, c_ops)


def _weight_blocks(rep) -> dict:
    """{mu: labels}: ``weight_spaces`` of a QueerRep, or the module's own table."""
    return weight_spaces(rep) if isinstance(rep, QueerRep) else rep.weight_blocks()


def _divided_chain(op: SOp, start: SOp, weights: int) -> list[SOp]:
    """[op^(0) start, op^(1) start, ...] up to the first zero, op^(j) = op^j / [j]!.
    An op that moves every weight by one root vanishes within ``weights``
    steps, the number of weights; a chain longer than that raises ValueError."""
    out = [start]
    while True:
        nxt = (op @ out[-1]).scale(q_number(len(out)).inverse())
        if nxt.is_zero():
            return out
        if len(out) == weights:
            raise ValueError(f"divided powers of {op!r} do not vanish within {weights} steps: not a root vector")
        out.append(nxt)


def _braid_block(rep, a: int, blocks: dict, mu: tuple) -> dict:
    """The entries of T_a on the columns of the weight space V_mu; ``blocks``
    maps each weight to its labels.  Every product has the columns of V_mu as
    its right factor.  A row outside V_{s_a mu} raises ValueError naming it
    (``braid_operator`` has the proof)."""
    ch = rep.chevalley()
    if ("e", a) not in ch:
        raise ValueError(f"braid index {a} needs rank > {a}")
    qq = param_q(rep.param)
    e = ch[("e", a)]
    h = mu[a - 1] - mu[a]
    labels = blocks[mu]
    dom = SuperSpace(labels, {lab: rep.space.parity[lab] for lab in labels})
    lam = ch[("k", a)].entry(labels[0], labels[0]) * ch[("kinv", a + 1)].entry(labels[0], labels[0])
    grouped: dict = {}  # i -> G_i, the sum over k of the scaled f^(i+k+h) e^(k) on V_mu
    inclusion = SOp(dom, rep.space, 0, {(c, c): ONE for c in labels}, validate=False)
    for k, e_k in enumerate(_divided_chain(e, inclusion, len(blocks))):
        for j, fe in enumerate(_divided_chain(ch[("f", a)], e_k, len(blocks))):
            i = j - k - h
            if i < 0:
                continue
            coeff = qq ** (k * (k - j) - i * (i - j + k) + j - 1) * lam ** (k - i)
            term = fe.scale(-coeff if j & 1 else coeff)
            grouped[i] = grouped[i] + term if i in grouped else term
    # sum_i e^(i) G_i by Horner: G_0 + e/[1] (G_1 + e/[2] (G_2 + ...))
    total = SOp.zero(dom, rep.space)
    for i in range(max(grouped, default=-1), -1, -1):
        total = (e @ total).scale(q_number(i + 1).inverse())
        if i in grouped:
            total = total + grouped[i]
    target = set(blocks.get(mu[: a - 1] + (mu[a], mu[a - 1]) + mu[a + 1 :], ()))
    leaks = list(dict.fromkeys(r for r, _ in total.entries if r not in target))
    if leaks:
        raise ValueError(f"braid operator T_{a} leaks from weight {mu} to {leaks}")
    return total.entries


def braid_operator(rep, a: int) -> SOp:
    """The braid operator T_a on a weight module, the divided-power sum

        T_a = sum_{i,j,k >= 0} (-1)^j q^{k(k-j) - i(i-j+k) + j - 1}
              e_a^(i) f_a^(j) e_a^(k) k_a^{k-i} k_{a+1}^{i-k},

    truncated where the divided powers vanish, as the sum of its blocks on
    the weight spaces V_mu (``_braid_block``).  ``rep`` needs a Chevalley
    family of rank > a and a parameter flag (QueerRep or fixture module).

    Proof that the blocks give T_a.  Let h = mu_a - mu_{a+1} and alpha the
    weight e_a adds.  On V_mu, k_a^{k-i} k_{a+1}^{i-k} is the scalar lam^{k-i},
    lam = k_a k_{a+1}^{-1} read off the diagonals at one label of V_mu, and the
    term (i, j, k) maps V_mu into V_{mu + (i-j+k) alpha}.  T_a maps V_mu onto
    V_{s_a mu} = V_{mu - h alpha} (Lusztig, Introduction to Quantum Groups,
    5.2; Jantzen, Lectures on Quantum Groups, ch. 8) and distinct weight
    spaces are independent, so on V_mu the terms of every other target weight
    sum to zero and T_a is the sum over j = i + k + h alone.  With
    G_i = sum_k (-1)^j q^{...} lam^{k-i} f^(j) e^(k) on V_mu, that sum is
    sum_i e^(i) G_i = G_0 + e/[1] (G_1 + e/[2] (G_2 + ...)), since
    e^(i) = e^i / ([1]...[i]).  A row outside V_{s_a mu} means that e_a or f_a
    does not move weights by alpha or that the weight table is wrong: it
    raises ValueError instead of being dropped.
    """
    blocks = _weight_blocks(rep)
    entries: dict = {}
    for mu in blocks:
        entries.update(_braid_block(rep, a, blocks, mu))
    return SOp(rep.space, rep.space, 0, entries, validate=False)


def zero_weight_hc(rep) -> HCAction:
    """The HC-action on the zero weight space (weight (1,...,1)): braid
    operators and C_b = kbar_b, tagged with the opposite parameter (the
    convention hc_check confirms).  Each T_a is built on that block alone
    (``_braid_block``), never on the whole module."""
    m = rep.spec.n
    blocks = _weight_blocks(rep)
    zero = (1,) * m
    labels = blocks.get(zero)
    if not labels:
        raise EmptyZeroWeight("zero weight space is zero")
    sub = SuperSpace(labels, {lab: rep.space.parity[lab] for lab in labels})
    ch = rep.chevalley()
    t_ops = [SOp(sub, sub, 0, _braid_block(rep, a, blocks, zero), validate=False) for a in range(1, m)]
    c_ops = [ch[("kbar", b)].restrict(labels, sub) for b in range(1, m + 1)]
    return HCAction(HCSpec(m, opposite_param(rep.param)), sub, t_ops, c_ops)


def hc_check(action: HCAction, qq=None) -> VerifyReport:
    """Verify relation families hc1..hc7 exactly; failures carry a witness word.

    ``qq`` is the value of q' in hc1, a ``RatFunc``: by default q or q^{-1}
    per the parameter flag; the classical cross-check passes ``ONE`` for an
    action specialized at q = 1.  hc1 is checked as
    T T + (q'^{-1} - q') T - 1 = 0.

    Each relation is one pass on integers (``superlinalg.relation_failures``)
    that adds its words straight into lhs - rhs; only hc2's words of three
    letters build their inner product.  The two sides are built as operators
    in Q(q) only for the witness of a failing instance.  The action is
    evaluated once, at the Kronecker point q = 2^B in Z of
    ``superlinalg.relation_bound`` over the Clifford squares and every family
    instance (``scalars.kronecker_point`` has the proof), so every verdict and
    witness is that of Q(q); the report records the point as ``exact_point``.
    """
    m = action.spec.m
    if qq is None:
        qq = param_q(action.spec.param)
    report = VerifyReport(
        "hc", {"m": m, "param": action.spec.param, "dim": action.space.dim}
    )
    ops = {**{("T", a): action.t(a) for a in range(1, m)}, **{("C", b): action.c(b) for b in range(1, m + 1)}}
    shift = qq.inverse() - qq  # the hc1 coefficient, one object for every a

    def T(a):
        return ("T", a)

    def C(b):
        return ("C", b)

    def families(eps) -> list:
        """hc1..hc7 for the Clifford square eps, or one failing hc4 when eps is None."""
        checks = [("hc1", {"a": a}, [((T(a), T(a)), 1), ((T(a),), shift), ((), -1)], []) for a in range(1, m)]
        for a in range(1, m - 1):
            checks.append(("hc2", {"a": a}, [((T(a), T(a + 1), T(a)), 1)], [((T(a + 1), T(a), T(a + 1)), 1)]))
        for a in range(1, m):
            for b in range(a + 2, m):
                checks.append(("hc3", {"a": a, "b": b}, [((T(a), T(b)), 1)], [((T(b), T(a)), 1)]))
        if eps is None:
            checks.append(("hc4", {"b": 1}, [((C(1), C(1)), 1)], [((), 1)]))
        else:
            for b in range(1, m + 1):
                checks.append(("hc4", {"b": b, "eps": eps}, [((C(b), C(b)), 1)], [((), eps)]))
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                checks.append(("hc5", {"a": a, "b": b}, [((C(a), C(b)), 1)], [((C(b), C(a)), -1)]))
        for a in range(1, m):
            checks.append(("hc6", {"a": a}, [((T(a), C(a)), 1)], [((C(a + 1), T(a)), 1)]))
        for a in range(1, m):
            for b in range(1, m + 1):
                if b not in (a, a + 1):
                    checks.append(("hc7", {"a": a, "b": b}, [((T(a), C(b)), 1)], [((C(b), T(a)), 1)]))
        return checks

    # the Clifford square: one uniform sign across all generators
    squares = [(e, [((C(1), C(1)), 1)], [((), e)]) for e in (1, -1)]
    # the sign of eps leaves the bound unchanged, and families(1) holds every instance of families(None)
    point = kronecker_point(*relation_bound(ops, squares + [check[1:] for check in families(1)]))
    report.derive("exact_point", point.name)
    failing = relation_failures(ops, squares, point)
    eps = next((e for t, (e, _, _) in enumerate(squares) if t not in failing), None)
    checks = families(eps)
    failing = set(relation_failures(ops, [check[1:] for check in checks], point))
    report.derive("clifford_square", eps)
    for t, (name, ctx, lhs, rhs) in enumerate(checks):
        if t not in failing:
            report.add(name, True)
            continue
        if name == "hc1":  # the witness of the factored form (T - q')(T + q'^{-1})
            tt = action.t(ctx["a"])
            ident = SOp.identity(action.space)
            diff = (tt + ident.scale(-qq)) @ (tt + ident.scale(qq.inverse()))
        else:
            diff = word_sum(ops, lhs) - word_sum(ops, rhs)
        report.add(name, False, witness={"instance": ctx, "basis_vector": repr(next(iter(diff.entries))[1])})
    return report.finish()
