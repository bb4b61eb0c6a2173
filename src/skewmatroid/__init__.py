"""Skew-polynomial matroids over finite fields.

Arithmetic in twisted polynomial rings, conjugacy classes and the warping
map, minimal polynomials with their closure operator, the induced matroid
(flats, rank, representation over the base field, flat metric), the
subspace-to-flat isometry, and a network-coding simulator whose packets are
single field elements.
"""

import types

from .conjugacy import (
    class_elements,
    class_invariance_holds,
    class_label,
    class_of,
    conjugate,
    unwarp,
    unwarp_method1,
    unwarp_method2,
    warp,
)
from .errors import (
    BadDegreeDivisibility,
    DivisionByZero,
    DivisionByZeroPoly,
    DomainError,
    EmptyInput,
    FieldTooLarge,
    GcdViolation,
    InapplicableField,
    MixedClasses,
    MixedContexts,
    NonPrimeP,
    NonPrimitiveModpoly,
    NotC1Flat,
    NotClosed,
    ParseError,
    RankOutOfRange,
    SpecInvalid,
    TooLargeToEnumerate,
    WrongClass,
    ZeroArgument,
    ZeroConjugator,
    ZeroInput,
)
from .field import Fe, FieldCtx, ONE, ZERO, field_from_spec, get_field
from .matroid import (
    Flat,
    RepMatrix,
    Subspace,
    all_subspaces,
    class_flat,
    columns_independent,
    dist,
    flats,
    matroid_closure,
    phi,
    phi_inverse,
    representation,
    subspace_dist,
    subspace_sum,
    verify_isometry,
)
from .minimal import (
    canonical_points,
    closure,
    decompose_check,
    is_p_independent,
    lift,
    minimal_poly,
    p_basis,
    rank_of,
)
from .netsim import (
    NetSpec,
    TrialReport,
    encode_message,
    relay_forward,
    rlnc_oracle_trial,
    run_trial,
    simulate,
)
from .skewpoly import AssocPoly, SkewPoly, eval_product, grcd, llcm

__version__ = "0.1.0"

# The public surface is what the imports above bind, less the submodules
# they also bind as package attributes.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
