"""Level-set energies, topological derivatives, geodesic distance maps,
pixel-adaptive refinement and energy-guided diffusion sampling on 2-D grids."""

__version__ = "0.1.0"

from .diffusion import (
    DiffusionSchedule,
    FrozenFieldProvider,
    GuidanceConfig,
    GuidancePolicy,
    MixtureMaskProvider,
    SampleResult,
    chain_rule_grad,
    dpm_loss,
    eps_to_score,
    forward_sample,
    guidance_scale,
    guided_eps,
    guided_score,
    make_schedule,
    predict_y0,
    reverse_step,
    sample,
    score_to_eps,
    total_loss,
)
from .errors import (
    DegenerateRegionError,
    DivergenceError,
    FieldFormatError,
    InvalidInputError,
    LevelflowError,
)
from .field import (
    PhantomSpec,
    binarize,
    gradient,
    gradient_adjoint,
    load_field,
    make_phantom,
    save_field,
)
from .geodesic import DistanceMap, SpeedParams, distance_for_mask, solve_eikonal, speed_field
from .levelset import (
    AreaPrior,
    EnergyReport,
    EnergyWeights,
    HeavisideParams,
    RegionStats,
    dirac,
    energy_area,
    energy_distance,
    energy_length,
    energy_region,
    energy_total,
    evolve,
    grad_energy_wrt_mask,
    heaviside,
    mask_to_levelset,
    region_stats,
)
from .metrics import Confusion, Scores, confusion, dice_score, scores
from .par import AffinityKernel, ParParams, affinity_kernel, par_loss, refine
from .topo import NucleationProbe, TdVerifyReport, nucleation_delta, td_field, verify_td

__all__ = [name for name in dir() if not name.startswith("_")]
