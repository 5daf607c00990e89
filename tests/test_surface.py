"""Snapshot of the public surface: the package's ``__all__``, the field names
of its exported dataclasses, and the option strings of every CLI subcommand.

Adding or removing a public name, a field or a flag means editing this file,
so the change shows in review; a removal is also named in CHANGES.md.
"""

import argparse
import dataclasses

import ramseykit
from ramseykit import cli

PUBLIC_NAMES = [
    "AvoidCertificate", "Coloring", "ConstructionInvariantError", "ConstructiveTrace",
    "DegenerateCoefficientsError", "IncompleteBoxError", "Instance", "IntPoly",
    "PRESET_NAMES", "PatternFamily", "QuadSolution", "ReductionData", "ResultRecord",
    "ResultStore", "SearchBudgetExceeded", "SearchStats", "StoreVerificationError",
    "ThresholdResult", "VerifyResult", "Witness", "__version__",
    "count_witnesses", "enumerate_instances", "enumeration_complete", "exists_avoiding",
    "exp_lift", "find_all_avoiding", "find_witness", "greedy_avoider", "iter_witnesses",
    "lift_coloring", "make_provenance", "parse_poly", "prefix_product_family",
    "preset_family", "preset_from_string", "quadratic_setup",
    "reduction_family", "run_construction", "solution_to_json", "solve_quadratic",
    "threshold", "verify_certificate", "verify_quad_solution", "verify_witness",
    "witness_from_json", "witness_to_json",
]

DATACLASS_FIELDS = {
    "AvoidCertificate": ["family", "coloring"],
    "Coloring": ["n", "r", "colors"],
    "ConstructiveTrace": ["n", "r", "params", "t", "y", "b0_size", "set_sizes",
                          "repeat_pair", "witness", "failure_reason"],
    "Instance": ["assignment", "term_values"],
    "PatternFamily": ["num_vars", "terms", "name", "distinct_required"],
    "QuadSolution": ["a", "color", "source_witness"],
    "ReductionData": ["c", "u", "b"],
    "ResultRecord": ["kind", "fingerprint", "params", "payload", "provenance"],
    "SearchStats": ["nodes"],
    "ThresholdResult": ["family_name", "fingerprint", "r", "value", "exact", "certificate",
                        "nodes"],
    "VerifyResult": ["ok", "reason"],
    "Witness": ["assignment", "term_values", "color"],
}

SUBCOMMAND_OPTIONS = {
    "avoid": ["--box-relative", "--cache", "--certificate", "--colors", "--family",
              "--greedy", "--max-nodes", "--n", "--restarts", "--seed", "--time-limit"],
    "cache": ["--cache"],
    "construct": ["--cache", "--coloring", "--max-rounds", "--size-floor", "--trace",
                  "--y-max"],
    "family": [],
    "family prefix-product": ["--functions", "--name", "--out"],
    "family show": ["--file", "--out", "--preset"],
    "lift-exp": ["--base", "--coloring", "--out"],
    "reduce": ["--box", "--cache", "--coeffs", "--coloring", "--out"],
    "threshold": ["--cache", "--colors", "--family", "--max-n", "--max-nodes", "--out",
                  "--time-limit"],
    "witness": ["--all", "--box", "--cache", "--coloring", "--distinct", "--family", "--out"],
}


def subcommand_options(parser, prefix=()):
    """{'family show': [option strings, sorted], ...}, help flags left out."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(subcommand_options(sub, prefix + (name,)))
    if prefix:
        found[" ".join(prefix)] = sorted(
            opt for action in parser._actions for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
    return found


def test_public_names():
    assert sorted(ramseykit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert all(hasattr(ramseykit, name) for name in ramseykit.__all__)


def test_dataclass_fields():
    found = {
        name: [f.name for f in dataclasses.fields(obj)]
        for name in ramseykit.__all__
        if dataclasses.is_dataclass(obj := getattr(ramseykit, name))
    }
    assert found == DATACLASS_FIELDS


def test_subcommand_options():
    assert subcommand_options(cli.build_parser()) == SUBCOMMAND_OPTIONS
