"""qrcensus: small-quadratic-residue censuses of odd moduli, the
residue-count primality classifier built on them, and machine checks of
the exact identities and inequalities the counts obey."""

__version__ = "0.1.0"

from qrcensus.census import (
    CensusTallies,
    ResidueCensus,
    ResidueDetail,
    census,
    n_h,
    quadratic_residue_set,
    residue_details,
    small_residue_count,
    smallest_sqrt,
    tallies,
)
from qrcensus.modmath import (
    MAX_MODULUS,
    OddModulus,
    factorize,
    is_prime_oracle,
    legendre_euler,
    mul_mod,
    pow_mod,
    sieve_primes,
)

# Every command needs census, modmath and the kernel under them, and
# importing census eagerly keeps `qrcensus.census` bound to the function,
# not the submodule.  The other public names load their module on first
# access (PEP 562), so a process compiles only the modules it runs.
_LAZY = (
    dict.fromkeys((
        "Classification", "CheckpointError", "LAW_IDS", "LawReport", "SweepOutcome",
        "ThresholdMode", "WorkerLost", "check_law", "classify", "predicted_prime",
        "qualifying_params", "rb_prime_power_predicted", "sweep",
    ), "qrcensus.laws")
    | dict.fromkeys((
        "CollisionPair", "WitnessCheck", "collision_classes", "collision_pairs",
        "witness", "zero_square_roots",
    ), "qrcensus.redundancy")
    | dict.fromkeys((
        "ExportFormat", "HighlightMode", "Ordering", "TableFormat", "TableSpec",
        "export_census", "import_census", "mult_table_grid", "render_annex1",
        "render_annex2", "render_mult_table",
    ), "qrcensus.report")
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(module, fromlist=(name,)), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CensusTallies",
    "Classification",
    "CheckpointError",
    "CollisionPair",
    "ExportFormat",
    "HighlightMode",
    "LAW_IDS",
    "LawReport",
    "MAX_MODULUS",
    "OddModulus",
    "Ordering",
    "ResidueCensus",
    "ResidueDetail",
    "SweepOutcome",
    "TableFormat",
    "TableSpec",
    "ThresholdMode",
    "WitnessCheck",
    "WorkerLost",
    "census",
    "check_law",
    "classify",
    "collision_classes",
    "collision_pairs",
    "export_census",
    "factorize",
    "import_census",
    "is_prime_oracle",
    "legendre_euler",
    "mul_mod",
    "mult_table_grid",
    "n_h",
    "pow_mod",
    "predicted_prime",
    "qualifying_params",
    "quadratic_residue_set",
    "rb_prime_power_predicted",
    "render_annex1",
    "render_annex2",
    "render_mult_table",
    "residue_details",
    "sieve_primes",
    "small_residue_count",
    "smallest_sqrt",
    "sweep",
    "tallies",
    "witness",
    "zero_square_roots",
]
