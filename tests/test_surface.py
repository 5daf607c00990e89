"""Snapshot of the public surface: the package's ``__all__``, the field names
of its exported dataclasses, the parameters of its exported functions, and
the option strings of every CLI subcommand.

Adding or removing a public name, a field, a parameter or a flag means editing
this file, so the change shows in review; a removal is also named in CHANGES.md.
"""

import argparse
import dataclasses
import inspect

import ramseykit
from ramseykit import cli

PUBLIC_NAMES = [
    "AvoidCertificate", "Coloring", "ConstructionInvariantError", "ConstructiveTrace",
    "DegenerateCoefficientsError", "IncompleteBoxError", "Instance", "IntPoly",
    "PRESET_NAMES", "PatternFamily", "QuadSolution", "ReductionData", "ResultRecord",
    "ResultStore", "SearchBudgetExceeded", "SearchStats", "StoreVerificationError",
    "ThresholdResult", "VerifyResult", "Witness", "__version__",
    "count_witnesses", "enumerate_instances", "exists_avoiding",
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

# each parameter's name, kind (the / and * markers) and default; annotations left out
FUNCTION_SIGNATURES = {
    "count_witnesses": "(family, coloring, *, distinct=None, box=None)",
    "enumerate_instances": "(family, n, box=None)",
    "exists_avoiding": "(family, r, n, *, jobs=1, max_nodes=None, time_limit=None, stats=None)",
    "exp_lift": "(chi, base)",
    "find_all_avoiding": "(family, r, n)",
    "find_witness": "(family, coloring, *, distinct=None, box=None)",
    "greedy_avoider": "(family, r, n, strategy='first-fit', *, seed=0, restarts=32)",
    "iter_witnesses": "(family, coloring, *, distinct=None, box=None)",
    "lift_coloring": "(chi, b)",
    "make_provenance": "()",
    "parse_poly": "(text, num_vars=None)",
    "prefix_product_family": "(function_sets, name=None)",
    "preset_family": "(name, k=None)",
    "preset_from_string": "(spec)",
    "quadratic_setup": "(c)",
    "reduction_family": "(u, name=None)",
    "run_construction": "(coloring, *, y_max=None, size_floor=1, max_rounds=None)",
    "solution_to_json": "(rd, sol)",
    "solve_quadratic": "(c, chi, search_box=None)",
    "threshold": "(family, r, max_n, *, jobs=1, max_nodes=None, time_limit=None)",
    "verify_certificate": "(cert)",
    "verify_quad_solution": "(c, chi, sol)",
    "verify_witness": "(family, coloring, witness, *, distinct=None)",
    "witness_from_json": "(data)",
    "witness_to_json": "(family, coloring, witness)",
}

SUBCOMMAND_OPTIONS = {
    "avoid": ["--cache", "--certificate", "--colors", "--family",
              "--greedy", "--max-nodes", "--n", "--restarts", "--seed", "--time-limit"],
    "cache": ["--cache"],
    "construct": ["--coloring", "--max-rounds", "--size-floor", "--trace", "--y-max"],
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


def test_function_signatures():
    found = {}
    for name in ramseykit.__all__:
        if inspect.isfunction(fn := getattr(ramseykit, name)):
            sig = inspect.signature(fn)
            params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
            found[name] = str(sig.replace(parameters=params, return_annotation=sig.empty))
    assert found == FUNCTION_SIGNATURES


def test_subcommand_options():
    assert subcommand_options(cli.build_parser()) == SUBCOMMAND_OPTIONS
