"""Exact symbolic toolkit for quantum queer superalgebra dualities.

Layers:

- ``scalars``: the field Q(q) of rational functions, q-combinatorics,
  specialization, residues mod a prime (GF(p) on plain ints), the
  identity-test bound and the Kronecker point q = 2^B in Z at which one
  evaluation on integers decides every zero test exactly;
- ``superlinalg``: parity-tagged bases, Koszul-sign tensor calculus, exact
  kernels, spans and graded commutants;
- ``uq_queer``: the quantum queer superalgebra through its S-matrix
  presentation, representations, duals, twists, weights and submodules;
- ``hecke_clifford``: the Hecke-Clifford superalgebra on tensor space and on
  zero weight spaces;
- ``coord_alg``: the quantum coordinate superalgebra as matrix-coefficient
  functionals with the translation actions;
- ``duality``: the verification suites (mutual centralizers, isotypic
  censuses, the graded Howe census, the rank-2 fixture, classical limits);
- ``cli``: the command-line entry point.
"""

from .scalars import (
    ONE, QINV, RatFunc, XI, ZERO, Q, PoleAtPoint, identity_bound, q_number,
)
from .superlinalg import SOp, SuperSpace, graded_commutant, graded_tensor, joint_kernel, span_dim, tensor_space
from .uq_queer import (
    AlgebraSpec,
    QueerRep,
    chevalley_ops,
    check_defining_relations,
    classical_limit,
    dual_rep,
    generate_submodule,
    highest_weight_vectors,
    s_matrix,
    sigma_twist,
    tensor_rep,
    vector_rep,
    weight_spaces,
)
from .hecke_clifford import HCAction, HCSpec, braid_operator, hc_check, hc_tensor_action, zero_weight_hc
from .coord_alg import (
    CoordFunctional,
    functional_equal,
    graded_component,
    operator_image_basis,
    product,
    zero_weight_iso,
)
from .duality import (
    FixtureModule,
    IsotypicCensus,
    classical_crosscheck,
    enumerate_strict_partitions,
    fixture_module,
    howe_verify,
    isotypic_census,
    sergeev_verify,
)
from .report import Check, VerifyReport

__version__ = "0.1.0"
