"""The lemma index: each lemma that decides a report line or lets a stage
skip a walk, the function or module whose docstring proves it, and the
tests that check it against a reference loop.

An entry fails when its function is missing, when that function's
docstring does not state the lemma by the phrase given, or when one of
its tests is missing, so a refactor cannot drop a proof or a reference
test unnoticed.  And a docstring under ``src/warel`` that cites a lemma
by name, as "the <name> lemma", must name one that an entry's phrase
states, so a lemma cannot be cited without an entry.
"""

import ast
import importlib
import re
from pathlib import Path

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
    "partition": (
        "warel.labelling.verify_representation",
        "The partition lemma",
        (
            "test_composition_reference::test_labelling_checks_match_reference",
            "test_composition_reference::test_final_representation_matches_reference",
        ),
    ),
    "identity-count": (
        "warel.relset.Network.identity_is_diagonal",
        "Identity-count lemma",
        (
            "test_composition_reference::test_identity_count_edge_cases",
            "test_composition_reference::test_identity_count_matches_reference_when_identity_leaves_the_diagonal",
            "test_composition_reference::test_network_checks_match_reference_on_any_converse",
        ),
    ),
    "additivity": (
        "warel.cylindric",
        "The additivity lemma",
        (
            "test_cylindric_reference::test_t_star_is_additive",
            "test_cylindric_reference::test_lossy_cyl_fails_additivity",
            "test_cylindric_reference::test_non_additive_cyl_names_the_reference_witness",
            "test_cylindric_reference::test_small_inputs_match_reference",
            "test_cylindric_reference::test_hand_built_match_reference",
        ),
    ),
    "orderly": (
        "warel.enumerate",
        "The orderly lemma: isomorph reduction is orderly",
        (
            "test_enumerate_reference::test_same_structures_in_the_same_order",
            "test_enumerate_reference::test_same_first_structures_at_four_atoms",
        ),
    ),
    "memo": (
        "warel.laws",
        "The memo lemma",
        (
            "test_core::test_rows_through_the_memo_match_the_unmemoized_reference",
            "test_laws::test_rows_match_full_range_on_one_and_two_atoms",
            "test_laws::test_rows_match_full_range_on_sampled_structures",
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
    """What ``path`` names, whose docstring may prove a lemma: the
    longest prefix of it that is a module, then the attributes after it,
    so a module, a function or a method."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            found = getattr(found, name, None)
        return found
    return None


@pytest.mark.parametrize("name", LEMMAS)
def test_each_lemma_has_its_proof_and_its_tests(name):
    proof, phrase, tests = LEMMAS[name]
    func = _proof(proof)
    assert func is not None, f"{name}: {proof} is missing"
    assert phrase in func.__doc__, f"{name}: the docstring of {proof} does not state it"
    assert tests, name
    for test in tests:
        assert callable(_lookup(*test.split("::"))), f"{name}: {test} is missing"


SRC = Path(__file__).resolve().parent.parent / "src" / "warel"
# "the lemma", "its lemma": no name; "Lemma 9" is the paper's
UNNAMED = {"a", "an", "the", "its", "their", "this", "that"}
CITED = re.compile(r"([A-Za-z][\w'-]*) [Ll]emma\b(?! \d)")


def _words(text):
    return " ".join(text.lower().replace("-", " ").split())


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield " ".join(doc.split())


def test_every_lemma_cited_by_name_has_an_entry():
    phrases = [_words(phrase) for _, phrase, _ in LEMMAS.values()]
    cited = {}
    for path in sorted(SRC.glob("*.py")):
        for doc in _docstrings(ast.parse(path.read_text(encoding="utf-8"))):
            for name in CITED.findall(doc):
                if name.lower() not in UNNAMED:
                    cited.setdefault(_words(name), path.name)
    assert "additivity" in cited and "orderly" in cited, sorted(cited)
    missing = {
        name: where for name, where in cited.items()
        if not any(re.search(rf"\b{re.escape(name)}", phrase) for phrase in phrases)
    }
    assert not missing, missing
