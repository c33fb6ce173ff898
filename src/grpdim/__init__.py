"""Dimension witnesses for finite groupoid windows.

Combinatorial models of finite ample groupoids, quantitative dad witness
search, control-function lifts, coarse decompositions of the arrow space,
and the constructive transfers between them.
"""

from .groupoid import (
    ArrowSet,
    AxiomError,
    Groupoid,
    GroupoidError,
    OwnerMismatchError,
    Tables,
    UnitSet,
    ValidationReport,
    Violation,
    arrows_within,
    compose_sets,
    from_triples,
    generated,
    is_principal,
    power,
    restrict,
    symmetrize,
    triples,
    validate,
)
from .covers import (
    ControlFunction,
    Cover,
    CoverError,
    control_apply,
    fold_number,
    ostrand_lift,
    shrink_nfold,
)
from .dad import (
    DadWitness,
    GluingCertificate,
    HypothesisError,
    WitnessError,
    blowup_lift,
    blowup_transfer,
    discover_control_function,
    glue_chain,
    glue_two,
    kl_dad_check,
    kl_dad_search,
    product_combine,
    pullback_witness,
    union_combine,
)
from .coarse import (
    AsdimBridge,
    CoarseError,
    Graphing,
    TreeCoverResult,
    asdim_fiber_decompositions,
    asdim_to_dad,
    dad_to_asdim,
    ef_asdim_check,
    ef_asdim_search,
    fiber_gauge,
    gauge_from,
    treeable_cover,
)
from .builders import (
    Blowup,
    BuilderError,
    LoadError,
    PartialActionSpec,
    Product,
    action_groupoid,
    blowup,
    cyclic_table,
    load,
    load_graphing,
    pair_groupoid,
    pair_index,
    partial_action_groupoid,
    product,
    replicate_psi,
    rotation_perms,
    save,
    save_graphing,
    tree_window,
    trivial_perms,
    z_shift_partial_spec,
)

__version__ = "0.1.0"
