"""Exact covers of {-1,1}^n by fully-skew hyperplanes, sparse coefficient
recovery for low-degree multilinear maps, and kernel certificates for the
cover lower bound."""

from .constructions import (
    balanced_even_cover,
    example_n5,
    example_n6,
    level_set_cover,
    power_of_two_cover,
)
from .cube import (
    MAX_CLASS_POINTS,
    MAX_EXHAUSTIVE_N,
    CoverFamily,
    CoverReport,
    CubePoint,
    Hyperplane,
    covered_set,
    covers,
    evaluate,
    is_skew,
    verify_cover,
)
from .fourier import (
    MultilinearPoly,
    ValueTable,
    degree,
    inverse_wht,
    random_poly,
    w_set,
    wht,
)
from .interpolation import (
    ChunkLayout,
    InterpolationScheme,
    build_scheme,
    chunk_layout,
    recover_coefficient,
    vanishing_dimension,
)
from .kernel import (
    KernelSystem,
    base_case_det,
    build_system,
    kernel_dim,
    product_vector,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    candidate_pool,
    greedy_cover,
    lower_bound,
    min_cover_search,
)

__version__ = "0.1.0"
