"""Hypervolume ranking of intuitionistic fuzzy sets.

Core pieces: IFN/IFS value types and their operations (`ifhv.ifs`), distance
measures with a plugin registry and metric-axiom checker (`ifhv.distances`),
exact and Monte Carlo hypervolume plus net-hypervolume scoring
(`ifhv.hypervolume`), reference-point ranking with a non-robustness auditor
(`ifhv.robustness`), the HVAS decision pipeline (`ifhv.hvas`), and the
TOPSIS/VIKOR/CODAS comparators on the same pipeline (`ifhv.mcdm`).
"""

from .distances import (
    AxiomReport,
    DistanceMeasure,
    MeasureKind,
    available_measures,
    check_axioms,
    euclidean2,
    euclidean3,
    get_measure,
    hamming,
    hausdorff,
    register,
    register_function,
)
from .errors import (
    DegenerateError,
    DomainError,
    IfhvError,
    MismatchError,
    ParseError,
    ValidationError,
    VersionError,
)
from .hvas import (
    CriterionKind,
    CriterionSpec,
    DecisionProblem,
    rank,
    score_details,
)
from .hypervolume import (
    HVConfig,
    HVNetResult,
    hv_inclusion_exclusion,
    hv_net,
    hv_point,
    hv_set,
    mc_oracle,
)
from .ifs import (
    IFN,
    IFS,
    NIS,
    PIS,
    Ordering,
    accuracy,
    compare,
    hesitancy,
    ifa_aggregate,
    multiply,
    score,
    select_extremes,
)
from .mcdm import CompareConfig, codas, run_methods, topsis, vikor
from .problemfile import parse_problem, problem_from_dict, serialize_problem, write_problem
from .ranking import RankingResult, build_ranking
from .robustness import (
    AuditReport,
    Counterexample,
    ReferenceKind,
    audit,
    iso_nis_pairs,
    rank_by_reference,
    robustness_check,
)

__version__ = "0.1.0"
