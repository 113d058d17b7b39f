"""Two-level logic minimization via BDD one-path DSOP extraction.

Pipeline: truth table -> entropy-based variable order -> reduced
ordered BDD -> disjoint sum-of-products from the one-paths -> unate
recursive simplification with expand/irredundant post-passes.  An
exact Quine-McCluskey minimizer serves as the optimality oracle.
"""

from .boolfn import (
    Cover,
    Cube,
    TruthTable,
    format_cube,
    literal_count,
    truthtable_from_minterms,
)
from .bdd import (
    BddManager,
    FunctionHandle,
    VariableOrder,
    build_from_truthtable,
    enumerate_one_paths,
    node_count,
    one_path_count,
    sift_paths,
)
from .ordering import entropy_order
from .minimizer import format_expression, simplify
from .qm import exact_cover, prime_implicants
from .cli import PipelineConfig, run_pipeline

__all__ = [
    "BddManager",
    "Cover",
    "Cube",
    "FunctionHandle",
    "PipelineConfig",
    "TruthTable",
    "VariableOrder",
    "build_from_truthtable",
    "enumerate_one_paths",
    "entropy_order",
    "exact_cover",
    "format_cube",
    "format_expression",
    "literal_count",
    "node_count",
    "one_path_count",
    "prime_implicants",
    "run_pipeline",
    "sift_paths",
    "simplify",
    "truthtable_from_minterms",
]
