"""Exact computations around reflection length on Coxeter groups.

Subpackages: coxeter (matrices and classification), exactfield (arithmetic
in Q(2cos(pi/N))), tits (the geometric representation), reflen (certified
reflection-length engine), quasimorphism (counting quasimorphisms and
growth certificates), filling (cusped rank-3 congruence certificates),
warp (cone metric profiles), cli (batch front end).
"""

__version__ = "0.1.0"

from .coxeter import (CoxeterMatrix, GramMatrix, Kind, TypeVerdict,
                      classify_component, classify_group, gram_matrix,
                      irreducible_components, minimal_nonaffine_subsets,
                      parse_coxeter_matrix)
from .exactfield import ExactScalar, RealCyclotomicField
from .filling import (AvoidanceCertificate, TriangleModel,
                      build_triangle_model, compute_short_elements,
                      congruence_search, two_pi_certificate)
from .quasimorphism import (FreeCoxeterWord, QuasimorphismCert,
                            build_certificate, certify_lower_bound,
                            counting_qm, defect_window, homogenize,
                            reduce_word)
from .reflen import (GrowthRecord, ReflLenResult, ReflenProtocol,
                     affine_bound_experiment, carter_length_finite,
                     exact_reflection_length, growth_profile, reflen_ball,
                     reflen_element)
from .tits import (GroupElement, Reflection, TitsGroup, canonical_key,
                   enumerate_reflections, evaluate_word, fixed_space_codim,
                   tits_generator)
from .warp import WarpProfile, warp_profile

__all__ = [
    "AvoidanceCertificate", "CoxeterMatrix", "ExactScalar", "FreeCoxeterWord",
    "GramMatrix", "GroupElement", "GrowthRecord", "Kind", "QuasimorphismCert",
    "RealCyclotomicField", "ReflLenResult", "Reflection", "ReflenProtocol",
    "TitsGroup", "TriangleModel", "TypeVerdict", "WarpProfile",
    "affine_bound_experiment", "build_certificate", "build_triangle_model",
    "canonical_key", "carter_length_finite", "certify_lower_bound",
    "classify_component", "classify_group", "compute_short_elements",
    "congruence_search", "counting_qm", "defect_window",
    "enumerate_reflections", "evaluate_word", "exact_reflection_length",
    "fixed_space_codim", "gram_matrix", "growth_profile",
    "homogenize", "irreducible_components", "minimal_nonaffine_subsets",
    "parse_coxeter_matrix", "reduce_word", "reflen_ball", "reflen_element",
    "tits_generator", "two_pi_certificate", "warp_profile",
]
