"""Heat-bath linear response, thermodynamics, radiation reaction, diffusion.

A quantum particle coupled to an oscillator bath acquires memory friction
mu(t), a susceptibility alpha(z) = 1/(-m z^2 - i z mu(z) + K), and with it
everything this package computes: pole structure and causality bounds,
coupled free energies and their T^2 blackbody shift, the Welton
field-fluctuation energy, radiation-reaction equations of motion with and
without a cutoff, fluctuation-dissipation mean-square displacements, and a
brute-force discrete-bath oracle that checks the whole construction.
"""

from ._version import __version__
from .errors import (
    AcausalCutoffWarning,
    AcausalModelError,
    ConfigError,
    FitError,
    GridError,
    InsufficientStatisticsError,
    PoleEvaluationError,
    QlebathError,
    QuadratureError,
    StepSizeError,
)
from .kernels import (
    DIMENSIONLESS,
    BlackbodyKernel,
    MemoryKernel,
    OhmicKernel,
    PhysicalConstants,
    SingleRelaxationKernel,
    kernel_from_json,
)
from .response import (
    ParticleModel,
    PoleReport,
    bare_mass,
    denominator_closure,
    poles_and_causality,
    susceptibility,
)
from .thermo import (
    FreeEnergyCurve,
    bbr_shift_closed_form,
    coupled_free_energy,
    fit_quadratic_coefficient,
    free_energy_curve,
    free_energy_shift,
    oscillator_free_energy,
    thermo_derivatives,
    welton_closed_form,
    welton_energy,
)
from .motion import (
    ForceSignal,
    Trajectory,
    bounded_al_acceleration,
    bounded_al_trajectory,
    constant_with_ramp,
    gaussian_pulse,
    integrate_point_limit,
    integrate_third_order,
    sinusoid,
    zero_force,
)
from .diffusion import (
    DiffusionReport,
    MsdCurve,
    msd,
    msd_curve,
    regime_tag,
    report_from_curve,
)
from .bath_sim import (
    Bath,
    Ensemble,
    FdtReport,
    discretize_bath,
    dump_ensemble,
    ensemble_msd,
    force_autocorrelation_check,
    load_ensemble,
    reconstructed_memory,
    recurrence_time,
    simulate_classical_io,
)
from .config import RunConfig, load_config, validate_config

__all__ = [name for name in dir() if not name.startswith("_")]
