"""Monochromatic patterns in finite colorings: families, witnesses,
thresholds, a round-based constructive search, and quadratic reductions.

The pipeline, bottom to top:

- ``polynomials``: exact integer polynomials and their text form.
- ``families``: pattern families (term lists) with canonical text forms.
- ``coloring``: colorings of [1..N] with file and RLE round-trips.
- ``witnesses``: monochromatic-instance enumeration and verification.
- ``bruteforce``: tiny no-pruning oracles used to cross-check everything.
- ``search``: avoiding-coloring search, thresholds, certificates.
- ``construction``: the shift-intersect-dilate rounds emitting {x, x+y, xy}.
- ``reduction``: witnesses to solutions of sum c_l a_l^2 = a_0.
- ``storage``/``cli``: verified results cache and the command-line tool.
"""

from .polynomials import IntPoly, parse_poly
from .families import (
    PRESET_NAMES,
    PatternFamily,
    prefix_product_family,
    preset_family,
    preset_from_string,
    reduction_family,
)
from .coloring import Coloring
from .witnesses import (
    Instance,
    VerifyResult,
    Witness,
    count_witnesses,
    enumerate_instances,
    find_witness,
    iter_witnesses,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from .search import (
    AvoidCertificate,
    IncompleteBoxError,
    SearchBudgetExceeded,
    SearchStats,
    ThresholdResult,
    exists_avoiding,
    find_all_avoiding,
    greedy_avoider,
    threshold,
    verify_certificate,
)
from .construction import (
    ConstructionInvariantError,
    ConstructiveTrace,
    run_construction,
)
from .reduction import (
    DegenerateCoefficientsError,
    QuadSolution,
    ReductionData,
    exp_lift,
    lift_coloring,
    quadratic_setup,
    solution_to_json,
    solve_quadratic,
    verify_quad_solution,
)
from .storage import ResultRecord, ResultStore, StoreVerificationError, make_provenance

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # polynomials
    "IntPoly", "parse_poly",
    # families
    "PatternFamily", "prefix_product_family", "preset_family", "preset_from_string",
    "reduction_family", "PRESET_NAMES",
    # colorings
    "Coloring",
    # witnesses
    "Instance", "Witness", "VerifyResult", "enumerate_instances",
    "iter_witnesses", "find_witness", "count_witnesses",
    "verify_witness", "witness_to_json", "witness_from_json",
    # search
    "AvoidCertificate", "ThresholdResult", "SearchStats", "SearchBudgetExceeded",
    "IncompleteBoxError", "exists_avoiding", "find_all_avoiding", "threshold",
    "greedy_avoider", "verify_certificate",
    # construction
    "ConstructiveTrace", "ConstructionInvariantError", "run_construction",
    # reduction
    "ReductionData", "QuadSolution", "DegenerateCoefficientsError", "quadratic_setup",
    "lift_coloring", "exp_lift", "solve_quadratic", "verify_quad_solution",
    "solution_to_json",
    # storage
    "ResultRecord", "ResultStore", "StoreVerificationError", "make_provenance",
]
