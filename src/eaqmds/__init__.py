"""Constacyclic codes over F_q2, defining-set decompositions, and
entanglement-assisted quantum MDS parameter catalogs, all in exact
integer arithmetic."""

from .catalog import (CatalogRow, RunConfig, generate_catalog, rows_for_combo,
                      serialize_csv, serialize_json)
from .codes import (CoefficientDescentError, ConstacyclicCode,
                    DistanceBudgetExceeded, InconsistentRootSystemError,
                    bch_delta, build_code, build_tower, classical_mds_verdict,
                    exact_distance_small)
from .cosets import (CodeSpec, CyclotomicCoset, DefiningSet, all_cosets, coset,
                     is_skew_symmetric, make_spec, omega_set, skew_partner,
                     t_minus_q)
from .eaq import EaqParams, EbitOracleMismatch, derive_eaq, ebits_rank_oracle
from .families import (Construction, FamilyError, FamilyId, VerificationError,
                       construction, instance_params)
from .fields import Embedding, Field, Matrix, Poly, extend, make_field
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "CatalogRow", "RunConfig", "generate_catalog", "rows_for_combo",
    "serialize_csv", "serialize_json",
    "CoefficientDescentError", "ConstacyclicCode", "DistanceBudgetExceeded",
    "InconsistentRootSystemError", "bch_delta", "build_code", "build_tower",
    "classical_mds_verdict", "exact_distance_small",
    "CodeSpec", "CyclotomicCoset", "DefiningSet", "all_cosets", "coset",
    "is_skew_symmetric", "make_spec", "omega_set", "skew_partner", "t_minus_q",
    "EaqParams", "EbitOracleMismatch", "derive_eaq", "ebits_rank_oracle",
    "Construction", "FamilyError", "FamilyId", "VerificationError",
    "construction", "instance_params",
    "Embedding", "Field", "Matrix", "Poly", "extend", "make_field",
    "VerifyReport", "run_verification",
    "__version__",
]
