"""framelab: a numerical workbench for frame theory on sampled frequency bands.

Finite interval unions carry midpoint-rule grids; exponential systems along
point sets, multipliers acting on them, and translate systems of bandlimited
generators are all measured through the spectra of their frame and Gram
matrices.  Grid-level verdicts are certified by refinement sweeps.
"""

from .domain import (
    Domain,
    Grid,
    SampledFunction,
    dilate,
    indicator,
    inner,
    load_domain,
    make_grid,
)
from .errors import (
    ConfigError,
    ExprError,
    FrameLabError,
    GridMismatchError,
    HypothesisError,
    NotInSpanError,
    ReconstructionError,
)
from .expr import ExprMultiplier, parse_multiplier
from .framecore import (
    FrameFlags,
    FrameReport,
    ReconstructionResult,
    SynthesisSystem,
    analyze,
    exponential_system,
    frame_operator_apply,
    gram,
    measure_bounds,
    reconstruct,
    reconstruct_all,
    synthesize,
    write_spectrum_csv,
)
from .multiplication import (
    MultCheckReport,
    MultiplierProfile,
    MultSweepReport,
    RefinementTrace,
    check_bessel_multiplication,
    check_converse,
    check_frame_multiplication,
    check_frame_sequence_multiplication,
    check_riesz_multiplication,
    check_tight_multiplication,
    multiply_system,
    profile_multiplier,
    profile_refinement,
    refine_check,
    trend_is_stable,
)
from .pointset import (
    BallPrediction,
    Beurling1DPrediction,
    DensityReport,
    PointSet,
    beurling_1d_frame_predicate,
    beurling_ball_frame_predicate,
    beurling_density,
    densify,
    gap,
    gap_details,
    load_pointset,
    separation,
    write_density_csv,
)
from .translates import (
    BumpSpec,
    ConvolutionReport,
    ExpansionResult,
    Generator,
    ObstructionReport,
    OuterFrameReport,
    UnionPart,
    UnionReport,
    UnionSpec,
    build_bump_generator,
    classify_translates,
    convolution_closure_check,
    expansion_tail_profile,
    frequency_frame_sum,
    load_generator_csv,
    obstruction_trend,
    outer_frame_check,
    oversampled_expansion,
    oversampled_expansions,
    save_generator_csv,
    smoothstep,
    time_frame_sum,
    translate_system,
    union_check,
    union_sweep,
)

__version__ = "0.1.0"
