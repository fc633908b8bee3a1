"""Word combinatorics of primitive substitution shifts and the piecewise-affine
approximants that converge to the interval exchange the shift codes.

The public names load lazily (PEP 562): `import shift2iet` runs no layer
module, and the first access to a name imports the one module it lives in, so
a command that needs only the factor table never compiles the verification or
coding layers.
"""

from importlib import import_module

from ._version import __version__

# Public name -> the module it lives in.
_HOMES = {
    "Alphabet": "substitution",
    "Substitution": "substitution",
    "PrimitivityResult": "substitution",
    "parse_substitution": "substitution",
    "FactorTable": "language",
    "build_factor_table": "language",
    "PartitionResult": "partition",
    "refine": "partition",
    "MeasureTable": "measure",
    "cylinder_measure_estimate": "measure",
    "invariance_defect": "measure",
    "measure_table": "measure",
    "AffinePiece": "ietmap",
    "PiecewiseAffineMap": "ietmap",
    "build_approximant": "ietmap",
    "block_affinity_check": "ietmap",
    "QuadraticNumber": "coding",
    "FiniteIET": "coding",
    "CodingPartition": "coding",
    "golden_iet": "coding",
    "golden_coding": "coding",
    "RoundtripResult": "coding",
    "roundtrip_check": "coding",
    "approximant_csv": "export",
    "approximant_svg": "export",
    "fixture_names": "fixtures",
    "get_fixture": "fixtures",
    "CheckResult": "verification",
    "VerificationReport": "verification",
    "run_verification": "verification",
    "InputError": "errors",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
