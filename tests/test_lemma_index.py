"""The lemma index: each lemma that decides a report line or lets a stage
skip a walk, the function or module whose docstring proves it, and the
tests that check it against a reference loop.

An entry fails when its function is missing, when that function's
docstring does not state the lemma by the phrase given, or when one of
its tests is missing, so a refactor cannot drop a proof or a reference
test unnoticed.
"""

import importlib

import pytest

# name: (the function or module whose docstring proves it, the phrase
# that states it there, the tests that check it, as module::function)
LEMMAS = {
    "pair-stage-premise": (
        "warel.reduct.build_pair_structure",
        "The pair stage's premise",
        (
            "test_reduct_reference::test_pair_stage_premise_on_every_raw_wa_structure",
            "test_reduct_reference::test_each_clash_site_is_reached_and_exact",
            "test_reduct_reference::test_a_universe_off_the_lemma_premise_still_raises",
            "test_cli::test_internal_error_is_a_fail_line",
        ),
    ),
    "locality": (
        "warel.reduct.build_pair_structure",
        "Locality lemma",
        (
            "test_reduct_reference::test_pair_structure_matches_reference",
            "test_reduct_reference::test_pair_rows_match_reference_on_drawn_census_classes",
            "test_reduct_reference::test_diagonal_mismatch_matches_reference",
        ),
    ),
    "step": (
        "warel.reduct.build_pair_structure",
        "Step lemma",
        (
            "test_reduct_reference::test_step_lemma_on_every_raw_keyed_carrier",
            "test_reduct_reference::test_step_lemma_on_drawn_keyed_carriers",
        ),
    ),
    "pair-kind": (
        "warel.reduct.check_pair_partition",
        "Pair-kind lemma",
        (
            "test_reduct_reference::test_pair_kind_premise_on_every_raw_wa_structure",
            "test_reduct_reference::test_kinds_and_replacements_match_reference_on_draws",
        ),
    ),
    "block": (
        "warel.cylindric.check_complex_vs_relativized",
        "the block lemma",
        (
            "test_cylindric_reference::test_lemmas_hold_on_every_raw_wa_structure",
            "test_cylindric_reference::test_lemmas_hold_on_drawn_structures",
        ),
    ),
    "k-step": (
        "warel.cylindric.check_complex_vs_relativized",
        "the k-step lemma",
        (
            "test_cylindric_reference::test_lemmas_hold_on_every_raw_wa_structure",
            "test_cylindric_reference::test_lemmas_hold_on_drawn_structures",
        ),
    ),
    "parent-triple": (
        "warel.trails.build_universe",
        "Each spine's triple is read off its parent's",
        ("test_trails_reference::test_universe_matches_reference",),
    ),
    "fresh-pid": (
        "warel.trails.build_universe",
        "Fresh-pid lemma",
        (
            "test_trails::test_fresh_pids_never_share_a_reduced_trail",
            "test_trails_reference::test_universe_matches_reference",
        ),
    ),
    "pair-length": (
        "warel.trails.build_universe",
        "Pair-length lemma",
        (
            "test_trails::test_pair_lengths_as_if_every_pair_were_offered",
            "test_trails_reference::test_universe_matches_reference",
        ),
    ),
    "triangle": (
        "warel.trails.build_universe",
        "Triangle lemma",
        (
            "test_reduct_reference::test_seeded_facts_are_the_walked_facts",
            "test_reduct_reference::test_seeded_facts_on_drawn_census_classes",
            "test_reduct_reference::test_hand_built_networks_walk_their_triangles",
        ),
    ),
    "replacement": (
        "warel.reduct.check_replacement_closure",
        "Replacement lemma",
        (
            "test_reduct_reference::test_replacement_and_chain_reach_on_every_raw_wa_structure",
            "test_reduct_reference::test_replacement_and_chain_reach_on_drawn_structures",
            "test_reduct_reference::test_replacement_closure_matches_reference",
            "test_reduct_reference::test_kinds_and_replacements_match_reference_on_draws",
            "test_reduct_reference::test_replacement_closure_names_the_reference_witness",
        ),
    ),
    "chain-count": (
        "warel.reduct.check_chain_agreement",
        "Chain-count lemma",
        (
            "test_reduct_reference::test_chain_agreement_matches_reference_on_corrupted_networks",
            "test_reduct_reference::test_replacement_and_chain_reach_on_every_raw_wa_structure",
        ),
    ),
    "chain-reach": (
        "warel.reduct.check_chain_agreement",
        "Chain-reach lemma",
        (
            "test_reduct_reference::test_replacement_and_chain_reach_on_every_raw_wa_structure",
            "test_reduct_reference::test_replacement_and_chain_reach_on_drawn_structures",
            "test_reduct_reference::test_chain_agreement_matches_reference_on_corrupted_networks",
        ),
    ),
    "flip": (
        "warel.enumerate.enumerate_structures",
        "flip lemma",
        (
            "test_enumerate::test_seeded_comp_atoms_match_the_table_built_from_cycles",
            "test_enumerate_reference::test_same_structures_in_the_same_order",
            "test_enumerate_reference::test_same_first_structures_at_four_atoms",
        ),
    ),
    "packed-orderly": (
        "warel.enumerate.enumerate_structures",
        "the packed orderly test",
        (
            "test_enumerate::test_packed_undercut_test_is_min_below_mask",
            "test_enumerate_reference::test_same_structures_in_the_same_order",
            "test_enumerate_reference::test_same_first_structures_at_four_atoms",
        ),
    ),
    "identity-law": (
        "warel.enumerate.enumerate_structures",
        "identity-law lemma",
        (
            "test_enumerate::test_identity_law_walk_leaves_out_exactly_the_ra6_failures",
            "test_enumerate_reference::test_summarize_matches_reference",
        ),
    ),
    "repair-locality": (
        "warel.labelling",
        "Repair locality.",
        (
            "test_repair_reference::test_saturate_matches_reference_on_pentagon",
            "test_repair_reference::test_systems_built_directly_walk_their_triangles",
            "test_repair_reference::test_a_breaking_label_fails_composition_upper_with_the_walked_witness",
        ),
    ),
    "repair-signatures": (
        "warel.labelling",
        "Repair signatures.",
        (
            "test_repair_reference::test_saturate_matches_reference_on_pentagon",
            "test_repair_reference::test_saturate_matches_reference_on_the_census",
            "test_repair_reference::test_saturate_matches_reference_on_sampled_four_atom_classes",
            "test_repair_reference::test_failing_repair_raises_the_reference_message",
        ),
    ),
    "flaw-locality": (
        "warel.labelling",
        "Flaw locality.",
        (
            "test_repair_reference::test_saturate_matches_reference_on_the_census",
            "test_repair_reference::test_manual_repairs_at_a_later_stage_turn_templates_off",
            "test_repair_reference::test_a_listing_that_leaves_a_flaw_fails_composition_lower",
        ),
    ),
    "listing": (
        "warel.labelling.saturate",
        "The listing lemma",
        (
            "test_repair_reference::test_saturate_tests_a_flaw_only_on_a_signature_s_first_repair",
            "test_repair_reference::test_saturate_matches_reference_on_small_structures",
            "test_repair_reference::test_saturate_matches_reference_on_sampled_four_atom_classes",
            "test_repair_reference::test_a_repair_of_a_later_pair_witnesses_its_loop",
        ),
    ),
    "child-signature": (
        "warel.labelling._flaw_template",
        "The child-signature lemma",
        (
            "test_repair_reference::test_carried_signatures_are_read_off_the_rows_at_their_turn",
            "test_repair_reference::test_saturate_matches_reference_on_pentagon",
        ),
    ),
}


def _lookup(module, name):
    return getattr(importlib.import_module(module), name, None)


def _proof(path):
    """The module named ``path``, whose docstring may prove a lemma, or
    else the top-level name that ``path`` ends in."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return _lookup(*path.rsplit(".", 1))


@pytest.mark.parametrize("name", LEMMAS)
def test_each_lemma_has_its_proof_and_its_tests(name):
    proof, phrase, tests = LEMMAS[name]
    func = _proof(proof)
    assert func is not None, f"{name}: {proof} is missing"
    assert phrase in func.__doc__, f"{name}: the docstring of {proof} does not state it"
    assert tests, name
    for test in tests:
        assert callable(_lookup(*test.split("::"))), f"{name}: {test} is missing"
