"""Finiteness of orbits on double flag varieties for classical symmetric pairs.

The library decides when G/P x K/Q has finitely many K-orbits for the
symmetric pairs AI, AII, AIII, CI, CII of GL_n and Sp_2n, by reducing
to the Magyar-Weymann-Zelevinsky triple-flag tables, and verifies the
decisions with two independent desk-scale oracles: orbit counting over
F_q and Littlewood-Richardson multiplicity sweeps.
"""

from .clans import Clan, enumerate_clans
from .classify import (
    DoubleFlagVerdict,
    MatchedRow,
    Status,
    SummaryRow,
    TripleFlagVerdict,
    Witness,
    classify_AIII_borel,
    classify_double_flag,
    finiteness_via_intersection,
    finiteness_via_triple,
    mwz_classify_A,
    mwz_classify_C,
    summary_lookup,
)
from .compositions import Composition, SymplecticComposition
from .errors import (
    BudgetExceededError,
    CrossCheckError,
    DflagError,
    ParseError,
    UnsupportedPairError,
)
from .flags import enumerate_flags, flag_count
from .groups import (
    GroupDatum,
    GroupFamily,
    Orientation,
    ParabolicSpec,
    borel,
    gl,
    is_product_open,
    parabolic_root_set,
    sp,
    whole_group,
)
from .lr import (
    LRDecomposition,
    Partition,
    highest_weight_of_parabolic,
    lr_coefficient,
    restrict_to_levi,
    spherical_probe_restriction,
    spherical_probe_tensor,
    tensor_decompose,
    weyl_dim_gl,
)
from .orbits import (
    OrbitCountReport,
    count_K_orbits,
    count_triple_orbits,
    growth_probe,
)
from .pairs import (
    KParabolicSpec,
    PairKind,
    SymmetricPairSpec,
    intersect_with_K,
    is_theta_stable,
    k_parabolic_of_split,
    theta_on_parabolic,
    whole_K,
)
from .weyl import WeylElement, bruhat_double_cosets, twisted_involutions

__version__ = "0.1.0"
