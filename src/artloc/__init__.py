"""Exact workbench for Artinian local algebras over prime fields.

Everything is computed over F_p with integer matrices, no floating point
anywhere: invariants of finite-dimensional local algebras, minimal free
resolutions, Tor and Ext^1, extension enumeration with triangular
presentations, and a diagnostic for nontrivial extension-closed module
subcategories.
"""

from .linalg import PrimeFieldMatrix
from .polyparse import (
    InfiniteDimensionError,
    PolyParseError,
    Polynomial,
    buchberger,
    normal_form,
    parse_polynomial,
    standard_monomial_basis,
)
from .algebra import (
    AlgebraClass,
    AlgebraInvariants,
    IdealSubspace,
    LocalAlgebra,
    NotLocalError,
    check_axioms,
    from_presentation,
    idealization,
    quotient_ring,
    tensor_product,
)
from .modules import (
    Ext1Space,
    FpModule,
    FreePresentation,
    IsoResult,
    ModuleMap,
    Resolution,
    RingMatrix,
    base_change,
    betti_numbers,
    cyclic_module,
    direct_sum,
    ext1,
    free_module,
    is_isomorphic,
    jordan_type,
    matlis_dual,
    minimal_free_resolution,
    minimal_presentation,
    quotient_module,
    regular_module,
    residue_field,
    splits_off_k,
    splitting_flags,
    sub_module,
    tor,
)
from .extensions import (
    ClosureVerdict,
    EnumerationBudgetExceeded,
    ExtensionWitness,
    FiltNode,
    LadderReport,
    LiftFailure,
    NotHypersurface,
    build_presentation_matrix,
    check_matrix_condition,
    complement_ideal,
    ext_closure_contains_k,
    extension_from_cocycle,
    filt_enumerate,
    hypersurface_ladder_check,
    splice_nodes,
    strict_upper_reduction,
)
from .diagnose import DiagnosisReport, diagnose

__version__ = "0.1.0"
