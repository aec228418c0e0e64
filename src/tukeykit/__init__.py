"""tukeykit: exact desk-scale calculus for Tukey morphisms between
combinatorial cardinal-invariant triples."""

from .apfuncs import (
    APFunc,
    IDENTITY,
    ZERO,
    constant,
    eventually_dominates,
    parse_apfunc,
    pointwise_max,
)
from .branchmap import (
    Branch,
    BoundCertificate,
    ColumnTuple,
    bound_from_trace,
    branch_of,
    common_witnesses,
    empty_columns_certificate,
    exact_intersection,
    image_contains,
    image_prefix,
    tuple_code,
    tuple_decode,
    witness_stream,
)
from .catalog import builtin_morphisms, catalog, family_property, vd_diagram
from .gadgets import (
    refute_filterclass_to_unbounded,
    refute_pseudo_intersection_to_tower,
)
from .splitorder import (
    SplitSpec,
    antichain,
    bt_edge,
    bucket_count,
    bucket_count_by_filling,
    is_nm_splitting,
    min_columns_hit,
    x_order,
)
from .triples import (
    CodedTriple,
    FiniteTriple,
    MorphismCandidate,
    check_morphism,
    compose,
    dual,
    dual_morphism,
    finite_norm,
    is_dominating,
)
from .upsets import (
    EMPTY,
    EVENS,
    FULL,
    ODDS,
    UPSet,
    almost_disjoint,
    almost_subset,
    parse_upset,
    splits,
    upset_algebra,
)
from .adversary import (
    AdversaryCertificate,
    build_adversary,
    identity_machine,
    predicted_element,
    predicts,
    splitter_from_free_class,
    verify_certificate,
)

__version__ = "0.1.0"
