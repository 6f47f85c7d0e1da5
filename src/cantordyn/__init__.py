"""Kakutani-Rokhlin tower constructions on Cantor space.

Builds, stage by stage, a minimal homeomorphism of {0,1}^N whose
invariant measures form a prescribed simplex, and checks at every
finite stage that the construction is on course: exact invariant-cone
vertices, minimality certificates, and full-group witnesses.
"""

from cantordyn.clopen import (
    EMPTY,
    FULL,
    ClopenSet,
    DepthTooSmall,
    enumerate_clopen,
    normalize,
    union_all,
)
from cantordyn.measure import (
    FamilyParseError,
    InvalidWeights,
    MeasureFamily,
    TreeMeasure,
    format_family,
    goodness_obstruction,
    parse_family,
    validate_family,
)
from cantordyn.oracles import (
    DivisibilityFailure,
    GoodnessFailure,
    NotEquivalent,
    SearchFailure,
    affine_approx,
    approx_divide,
    build_k_automorphism,
    goodness_select,
    n_copies,
    select_copy,
    subset_in_box,
)
from cantordyn.tower import (
    KRPartition,
    NotAPartition,
    NotEquivalentColumn,
    balance_columns,
    cut_column_at_level,
    from_columns,
    locate_atom,
    refine_small_base_top,
    refines,
    run_decomposition,
    to_dot,
    trivial_partition,
)
from cantordyn.builder import (
    BuildFailure,
    HitsTop,
    TowerSequence,
    apply,
    build_saturated,
    enumerate_pairs,
    load_sequence,
    serialize_sequence,
    validate_sequence,
)
from cantordyn.verify import (
    FullGroupWitness,
    InvariantCone,
    MinimalityReport,
    PairNotScheduled,
    StageTooShallow,
    apply_witness,
    collapse_metric,
    first_return_divide,
    invariant_cone,
    minimality_check,
    saturation_witness,
    verify_all,
)

__version__ = "0.1.0"
