"""Decreasing monomial (polar / Reed-Muller) codes: constructions, their
complete affine automorphism groups with exhaustive verification, witness
procedures for the underlying group-equality argument, and an
automorphism-ensemble SC decoder with a Monte Carlo channel harness."""

from .gf2 import (
    BitMatrix,
    BitVec,
    enumerate_gl,
    extend_minor,
    gl_order,
    random_invertible,
)
from .monomial import (
    CodeSpec,
    MonomialSet,
    anf,
    anf_support,
    construct_bec,
    construct_explicit,
    construct_pw,
    decreasing_closure,
    degree,
    evaluation_vector,
    generator_matrix,
    index_monomial,
    is_decreasing,
    leq,
    minimal_generators,
    monomial_index,
    reed_muller_set,
)
from .affine import (
    AffineMap,
    apply_point,
    block_profile,
    blta_membership,
    blta_order,
    compose_permutations,
    induced_permutation,
    invert_permutation,
    is_affine_automorphism,
    sample_blta,
    substitution_coefficient,
    swap_variables,
    transform_monomial_support,
)
from .autgroup import (
    AutEnumeration,
    FalsificationError,
    TheoremReport,
    WitnessTrace,
    all_decreasing_sets,
    enumerate_affine_aut,
    random_decreasing_set,
    random_witness_instance,
    transposition_witness,
    verify_blta_completeness,
)
from .decode import (
    AwgnBpskChannel,
    BecChannel,
    DecodeResult,
    ae_decode,
    extract_info,
    is_codeword,
    polar_encode,
    polar_transform,
    sc_decode,
    sc_invariance_check,
    simulate_bler,
    wilson_interval,
)

__version__ = "0.1.0"
