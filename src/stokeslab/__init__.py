"""stokeslab: weighted decay estimates for the heat/Stokes semigroup and
time-periodic Navier-Stokes fixed points on a truncated whole space."""

from .grid import (
    Field,
    Grid,
    curl,
    divergence,
    gradient,
    integrate,
    load_field,
    save_field,
)
from .weights import (
    RadialWeight,
    admissible_range,
    aq_check,
    feasibility,
    feasibility_scan,
    maximal_function,
    mollifier_sup,
    sobolev_embedding_ratio,
)
from .semigroup import (
    decay_harness,
    fractional_integral,
    heat_kernel_field,
    leray_project,
    predicted_exponent,
    write_decay_csv,
)
from .exterior import (
    bogovskii_apply,
    divergence_defect,
    solenoidal_extension,
)
from .periodic import (
    ContractionError,
    PeriodicForce,
    PeriodicSolution,
    periodicity_check,
    picard_solve,
    random_solenoidal_force,
    single_mode_force,
    weighted_report,
)
from .corpus import PRNG_ID, corpus_seeds, random_smooth_field

__version__ = "0.1.0"
