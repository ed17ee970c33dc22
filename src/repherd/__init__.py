"""Exact decision machinery for representation-hereditary bound quiver algebras."""

__version__ = "0.1.0"

from .algebra import BoundQuiverAlgebra, Path, Quiver, build_algebra, make_path, opposite_algebra
from .catalog import Budget, IndecomposableCatalog, ar_quiver, enumerate_indecomposables, left_right_parts
from .checks import (
    CheckReport,
    TiltingContext,
    check_module_conditions,
    check_no_inj_to_proj_suite,
    check_necessary_conditions,
    check_representation_hereditary,
    check_sufficient_a,
    check_sufficient_b,
    check_corollary_parts,
    check_tilted_sufficient,
    check_torsionless_structure,
    run_all_checks,
)
from .dims import DimValue
from .endo import (
    AbstractAlgebra,
    algebra_radical,
    endomorphism_algebra,
    gldim_end_gen_cogen,
    global_dimension,
    primitive_idempotents,
)
from .fields import PrimeField, QQ, Rationals, field_from_spec
from .homological import (
    ShortExactSequence,
    almost_split_sequence,
    ar_translate,
    ar_translate_inv,
    cosyzygy,
    ext1_dim,
    in_cogen,
    in_gen,
    inj_dim,
    injective_envelope,
    minimal_left_approx,
    minimal_right_approx,
    proj_dim,
    projective_cover,
    syzygy,
    trace_of,
    transpose,
)
from .linalg import Mat, kernel_basis, rank, rref, solve, solve_linear
from .modules import (
    Decomposition,
    ModuleMorphism,
    Representation,
    cokernel_of,
    decompose,
    direct_sum,
    dual_module,
    hom_basis,
    hom_dim,
    indec_isomorphic,
    indecomposable_summands,
    injective_at,
    is_isomorphic,
    kernel_of,
    projective_at,
    radical_of,
    simple_at,
    socle_of,
)
