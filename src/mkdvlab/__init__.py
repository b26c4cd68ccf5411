"""Spectral toolkit for the complex modified KdV equation.

Periodic pseudospectral substrate, function-space norms (Sobolev,
Fourier-Lebesgue, modulation, dispersive space-time norms), an exact soliton
family with grid-free oracles, an integrating-factor RK4 solver, two-soliton
instability sweeps, and numerical probes for the multilinear estimates.
"""

from .spectral import (
    Field,
    GridSpec,
    GridMismatchError,
    ResolutionError,
    SpectralField,
    airy_propagator,
    cos2_window,
    derivative,
    forward_transform,
    fourier_multiplier,
    inverse_transform,
    littlewood_paley,
    quartic_window,
    unit_cube_project,
)
from .norms import (
    SpaceTimeField,
    cube_l2_profile,
    fourier_lebesgue_norm,
    free_evolution,
    modulation_norm,
    sobolev_norm,
    xsb_norm,
    xsb_p_norm,
)
from .solitons import (
    SolitonParams,
    modulation_norm_of_spectrum,
    pair_difference_modsq,
    pair_overlap,
    soliton_field,
    soliton_modulation_norm,
    soliton_spectrum,
    soliton_spectrum_at_time,
    soliton_time_derivative,
)
from .solver import (
    NONLINEAR_COEFFICIENT,
    EvolveResult,
    MassDriftError,
    SolverConfig,
    SolverError,
    evolve,
    invariants,
    nonlinearity,
    step,
)
from .illposed import (
    ExperimentPlan,
    ExperimentRecord,
    LemmaVerdict,
    choose_parameters,
    fit_exponent,
    run_point,
    run_sweep,
    verify_lemma,
)
from .probes import (
    ProbeReport,
    apriori_tracking,
    bilinear_ratio_cube,
    bilinear_ratio_lp,
    convolution_inequality_check,
    resonance_identity,
    trilinear_ratio,
)

__version__ = "0.1.0"
