"""Max-sum Euclidean matchings of planar point sets, common-point
(piercing) certificates for their diametral disks, and numeric
verification of the stretch-constant ladder 2/sqrt(3), sqrt(2),
sqrt(5), 2.5."""

__version__ = "0.1.0"

from .geom import (
    ArcSide,
    Crossing,
    Disk,
    EllipseRegion,
    HyperbolaArc,
    Orientation,
    Point,
    Region,
    Segment,
    hyperbola_side,
    in_disk,
    in_ellipse,
    orientation,
    points_to,
    segments_cross,
)
from .matching import (
    Color,
    Matching,
    MatchingError,
    PointSet,
    SizeLimitError,
    cost,
    max_sum,
    max_sum_bruteforce,
)
from .piercing import (
    PairVerdict,
    PiercingResult,
    PiercingVerdict,
    StretchReport,
    STRETCH_BOUNDS,
    midpoint_shortest_edge,
    pairwise_intersect,
    pierce_disks,
    pierce_ellipses,
    stretch_report,
    triple_intersect_exact,
)
from .constructions import (
    ConstructionError,
    CounterexampleInstance,
    THREE_PAIR_EPS_MAX,
    equilateral_tightness,
    many_pair_eps_max,
    singleton_disk_instance,
    theorem2_instance,
    theorem3_instance,
)
from .classify import (
    CaseLabel,
    Classification,
    PairRelation,
    PairRelationKind,
    WitnessConstructionError,
    classify_three,
    pair_relation,
    witness_easy_case,
)
from .lemmas import LemmaTrialReport, run_checker

__all__ = [name for name in dir() if not name.startswith("_")]
