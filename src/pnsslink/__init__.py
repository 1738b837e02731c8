"""Deterministic quantum-state transfer over a cavity-photon link.

A single trapped atom maps a superposition of its ground Zeeman
sublevels onto a traveling field whose photon number is superposed
(vacuum / one / two photons), the field crosses a fiber link, and a
second atom absorbs it back into the same internal superposition under
a solved control pulse.  This package simulates the emission, the
absorption, the control-pulse conditions and the link budget in closed
form; the tests check the closed forms against fixed-step ODE oracles
(``tests/oracles.py``).
"""

from .channel import (
    ChannelModel,
    attenuation_length,
    phase_drift,
    success_probability,
    transmission_efficiency,
)
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .core import (
    DerivedQuantities,
    PhysicalParams,
    RegimeCheck,
    RegimeReport,
    SuperpositionState,
    derive,
    rad_per_s,
    to_mhz,
    validate_regime,
)
from .numerics import (
    BracketError,
    SampledFunction,
    TimeGrid,
    cumulative_integral,
    find_root,
)
from .photonics import (
    EmissionModes,
    PhotonObservables,
    emission_modes,
    g2_zero_delay,
    mean_photon_number,
    mode_overlap,
    photon_distribution,
    photon_fluxes,
    photon_observables,
)
from .pipeline import (
    Link,
    SendResult,
    Summary,
    TransferResult,
    build_grid,
    build_link,
    run_send,
    run_sweep,
    run_transfer,
    run_transfer_on,
)
from .receiver import (
    FinalState,
    PulseSolveError,
    PulseSolveResult,
    ReceiverTrajectory,
    conservation_check,
    final_state,
    gamma_analytic,
    pulse_areas,
    solve_pulse_shape,
)
from .sender import (
    PulseShape,
    SenderTrajectory,
    amplitudes_beta,
    pump_exposure,
)

__version__ = "0.1.0"
