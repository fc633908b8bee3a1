"""Word combinatorics of primitive substitution shifts and the piecewise-affine
approximants that converge to the interval exchange the shift codes."""

from ._version import __version__
from .coding import (
    CodingPartition,
    FiniteIET,
    QuadraticNumber,
    RoundtripResult,
    code_orbit,
    coded_factor_table,
    golden_coding,
    golden_iet,
    roundtrip_check,
)
from .errors import InputError
from .export import approximant_csv, approximant_svg
from .fixtures import fixture_names, get_fixture
from .ietmap import (
    AffinePiece,
    Cluster,
    ConvergenceReport,
    LimitInterval,
    LimitIntervalSet,
    PiecewiseAffineMap,
    accumulation_clusters,
    accumulation_diagnostic,
    block_affinity_check,
    build_approximant,
    convergence_report,
    limit_intervals,
    non_injectivity_witnesses,
)
from .language import FactorTable, build_factor_table
from .measure import (
    MeasureTable,
    convergence_certificate,
    cylinder_measure_estimate,
    invariance_defect,
    measure_table,
)
from .partition import Cylinder, PartitionResult, refine, refine_stages
from .substitution import Alphabet, PrimitivityResult, Substitution, parse_substitution
from .verification import CheckResult, VerificationReport, run_verification

__all__ = [
    "__version__",
    "Alphabet",
    "Substitution",
    "PrimitivityResult",
    "parse_substitution",
    "FactorTable",
    "build_factor_table",
    "Cylinder",
    "PartitionResult",
    "refine",
    "refine_stages",
    "MeasureTable",
    "cylinder_measure_estimate",
    "invariance_defect",
    "measure_table",
    "convergence_certificate",
    "AffinePiece",
    "PiecewiseAffineMap",
    "build_approximant",
    "block_affinity_check",
    "LimitInterval",
    "LimitIntervalSet",
    "limit_intervals",
    "ConvergenceReport",
    "convergence_report",
    "Cluster",
    "accumulation_clusters",
    "accumulation_diagnostic",
    "non_injectivity_witnesses",
    "QuadraticNumber",
    "FiniteIET",
    "CodingPartition",
    "golden_iet",
    "golden_coding",
    "code_orbit",
    "coded_factor_table",
    "RoundtripResult",
    "roundtrip_check",
    "approximant_csv",
    "approximant_svg",
    "fixture_names",
    "get_fixture",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "InputError",
]
