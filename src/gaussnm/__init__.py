"""Fidelity-based non-Markovianity of single-mode Gaussian channels.

Library layout:

- :mod:`gaussnm.states`: Gaussian states, Uhlmann fidelity, Bures distance.
- :mod:`gaussnm.spectral`: Ohmic-bath damping/diffusion coefficients.
- :mod:`gaussnm.channels`: damping and quantum-Brownian-motion maps.
- :mod:`gaussnm.measure`: backflow measure, closed forms, first-order laws.
- :mod:`gaussnm.experiments`: config-driven reproduction sweeps (CSV).
- :mod:`gaussnm.cli`: command-line interface.
"""

from .channels import (
    PhysicalityWarning,
    DampingChannel,
    DampingRateSpec,
    QbmChannel,
    Trajectory,
    damping_x,
    trajectory,
    write_trajectory_csv,
)
from .measure import (
    FidelityTrajectory,
    MeasureResult,
    NegativityInterval,
    ParamBounds,
    UnsupportedShapeError,
    backflow_intervals,
    closed_form_coherent_damping,
    closed_form_coherent_qbm,
    coherent_pair,
    damping_response,
    fidelity_trajectory,
    first_order_coherent,
    first_order_coherent_thermal,
    first_order_squeezed,
    first_order_squeezed_max,
    maximize_measure,
    measure_from_trajectory,
    squeezed_pair,
    squeezed_response,
)
from .spectral import (
    ChannelCoefficients,
    EnvironmentSpec,
    build_coefficients,
    divisibility_check,
    write_coefficients_csv,
)
from .states import (
    GaussianState,
    StatePairParams,
    bures_distance,
    fidelity,
    make_gaussian,
    rotate_state,
)

__version__ = "0.1.0"
