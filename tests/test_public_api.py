"""The public API is declared once, in each module's ``__all__``, and the
package republishes the union."""

import importlib

import mvtk

# every public name the package exported before it republished __all__
EXPORTED = """
    AXIOM_NAMES Algebra CentralReflection Chain CheckReport CheckResult
    CommutatorReport CoordMap Decomposition DoubleClassification
    EMFactorization ExtensionClassification ExtensionCommutator
    ExtensionSquare FiniteAlgebra FiniteIdeal FiniteMapBody GroupBlock
    HarnessReport Ideal Komori LexGroup MarkerIdeal Morphism
    OrderUnitReport PreExactSequence ProbeReport ProtoadditivityReport
    PullbackResult QuotientResult RegularPushoutReport StabilityReport
    SubalgebraResult SymbolicAlgebra TrivialWitness UnitFactorization
    all_ideals are_isomorphic arrow canonical_blocks carrier_size
    catalog_signature central_reflection chain_product_catalog
    check_axioms check_derived_identities check_lattice_identities
    classify_double classify_extension commutator_pair compose
    corestrict counit_factorization decompose describe dist e_member
    elements em_factorize enumerate_homs extension_commutator
    factor_through_quotient fill_diagonal find_isomorphism
    forced_elements from_algebra_element from_initial full_ideal
    gamma_ops_agree generated_ideal group_abs group_add group_join
    group_laws_check group_leq group_meet group_neg group_sub group_unit
    group_zero ideal_contains ideal_elements ideal_join ideal_leq
    ideal_meet ideal_subalgebra identity image_ideal image_set
    initial_algebra interval_algebra interval_neg interval_sum
    is_full_ideal is_ideal is_morphism is_nilpotent_ideal is_perfect
    is_precokernel is_prekernel is_proper_ideal is_regular_pushout
    is_semisimple is_terminal_object is_trivial_morphism is_zero_ideal
    join kernel_pair kernel_restriction_harness kernel_subalgebra leq
    m_member make_chain make_finite make_group make_komori
    markers_from_elements maximal_ideals mediator_to_pullback meet neg
    ominus oplus order_unit_check otimes perfect_inclusion perfect_map
    perfect_part polar pre_exact product product_with_projections
    protoadditivity_check pullback quotient rad_restriction_surjective
    radical radical_conegation_disjoint radical_indicator
    radical_projection random_block_algebra random_group_element
    restrict_to_ideal_subalgebra riesz_split same_morphism sample_tuples
    semidirect_join semidirect_sum semisimple_map semisimple_quotient
    square_from_ideals stability_check subalgebra_decode
    terminal_algebra to_algebra_element to_finite to_terminal
    trivial_via_pullback unit_factorization validate_ideal
    validate_square verify_pixley verify_protomodularity zero_ideal
""".split()


def test_no_name_is_declared_twice():
    assert len(mvtk.__all__) == len(set(mvtk.__all__))


def test_every_declared_name_resolves():
    for name in mvtk.__all__:
        assert hasattr(mvtk, name), name


def test_package_exports_the_union_of_its_modules():
    modules = ["core", "ideals", "morphisms", "catalog", "pretorsion",
               "galois", "galois2", "terms", "mundici"]
    union = [name for m in modules
             for name in importlib.import_module(f"mvtk.{m}").__all__]
    assert mvtk.__all__ == union


def test_earlier_exports_are_kept():
    assert len(EXPORTED) == 164
    assert set(EXPORTED) <= set(mvtk.__all__)
