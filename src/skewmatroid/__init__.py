"""Skew-polynomial matroids over finite fields.

Arithmetic in twisted polynomial rings, conjugacy classes and the warping
map, minimal polynomials with their closure operator, the induced matroid
(flats, rank, representation over the base field, flat metric), the
subspace-to-flat isometry, and a network-coding simulator whose packets are
single field elements.

Importing the package loads no submodule: the first read of a public name
imports the module that defines it (PEP 562), so a caller pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The public surface: each submodule and the names it exports.
_EXPORTS = {
    "conjugacy": """class_elements class_invariance_holds class_label class_of conjugate
        unwarp unwarp_method2 warp""",
    "errors": """BadDegreeDivisibility DivisionByZero DivisionByZeroPoly DomainError
        EmptyInput FieldTooLarge GcdViolation InapplicableField MixedClasses
        MixedContexts NonPrimeP NonPrimitiveModpoly NotC1Flat ParseError
        RankOutOfRange SpecInvalid TooLargeToEnumerate WrongClass ZeroArgument
        ZeroConjugator ZeroInput""",
    "field": "Fe FieldCtx ONE ZERO field_from_spec get_field",
    "matroid": """Flat RepMatrix Subspace all_subspaces class_flat dist flats
        matroid_closure phi phi_inverse representation subspace_dist subspace_sum
        verify_isometry""",
    "minimal": "canonical_points closure is_p_independent lift minimal_poly p_basis rank_of",
    "netsim": """NetSpec TrialReport encode_message relay_forward rlnc_oracle_trial
        run_trial simulate""",
    "skewpoly": "AssocPoly SkewPoly eval_product grcd llcm",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
