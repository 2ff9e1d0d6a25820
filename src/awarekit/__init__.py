"""Epistemic models with unawareness: awareness models and lattice models
(one lattice model type, given knowledge by Π, by Π and Λ, or by Λ and α),
three-valued model checking, structural validators, transforms between
them, and a proof checker for the logic of propositional awareness."""

from .awareness import (
    AwarenessCategory,
    AwarenessModel,
    build_category,
    category_equivalence_suite,
    check_bounded_morphism,
    fh_extension,
    fh_satisfies,
    validate_category,
    validate_fh,
)
from .enumeration import enumerate_formulas
from .gen import GenCaps, gen_fh, gen_hms, gen_implicit, random_formula
from .implicit import (
    a_star_property_suite,
    candidate_lambda_from_pi,
    derive_pi_star,
    implicit_from_complemented,
    implicit_property_suite,
    validate_alpha,
    validate_implicit,
    validate_lambda,
)
from .lpa import (
    ProofLine,
    ProofVerdict,
    SCHEMA_NAMES,
    check_proof,
    fuzz_soundness,
    match_schema,
    skeleton_tautology,
)
from .modelio import load_model, load_proof, model_to_data, data_to_model, save_model
from .reports import Report, Violation
from .semantics import (
    TruthValue,
    extension,
    satisfies,
    valid_in_model,
)
from .syntax import Formula, atoms, modal_depth, parse, render
from .transforms import (
    category_to_implicit,
    equivalence_check,
    fh_star_transform,
    fh_transform,
    hms_transform,
    round_trip_check,
)
from .unawareness import (
    Event,
    LatticeModel,
    SpaceLattice,
    StateRef,
    a_op,
    event_basis,
    explicit_property_suite,
    k_op,
    l_op,
    pi_space,
    space_key,
    u_op,
    validate_hms,
)

__version__ = "0.1.0"
