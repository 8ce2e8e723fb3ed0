"""Combinatorial computation of the Lusztig-Vogan bijection for GL_n.

The forward map is available in two equivalent forms (integer sequences and
weight diagrams), the inverse works clump by clump on dominant weights, and
the oracle module verifies minimality, uniqueness, and the round trips by
brute force at desk scale.
"""

from .core import (
    OmegaPair,
    Partition,
    as_partition,
    conjugate,
    dom,
    is_dominant_wrt,
    levi_blocks,
    norm_sq,
    two_rho,
    validate_omega_pair,
)
from .diagrams import (
    DiagramPair,
    WeightDiagram,
    concat,
    e_inverse,
    e_map,
    eta,
    h_weight,
    is_distinguished,
    kappa,
    parse_diagram,
    render_diagram,
    shape_class,
    truncate_columns,
)
from .seq_algorithm import (
    Stage,
    alg_A,
    alg_A_stages,
    candidate,
    column_seq,
    gamma_forward,
    ranking,
)
from .diagram_algorithm import (
    BranchPlan,
    alg_W,
    branch_plan,
    gamma_via_diagrams,
    row_survival,
)
from .inverse_algorithm import (
    InternalConsistencyError,
    alg_B,
    clumps,
    gamma_inverse,
    majuscule_extract,
)
from .oracle import (
    CheckResult,
    SearchSpaceError,
    SweepReport,
    default_window,
    distinguished_fillings,
    dominant_sequences,
    enumerate_fillings,
    inverse_roundtrip_sweep,
    min_norm_over_fillings,
    omega_pairs,
    oracle_sweep,
    partitions_of,
    roundtrip_sweep,
)

__version__ = "0.1.0"
