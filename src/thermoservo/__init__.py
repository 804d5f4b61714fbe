"""Radiation-based thermal servoing: models, controllers and simulation.

The package computes source-object view factors for posed planar surfaces
by contour integration, derives thermal interaction matrices, and closes
the loop with model-based and adaptive temperature controllers, including
target-feasibility analysis and isosurface grid export.
"""
from .control import (
    AdaptiveState,
    ControlOutput,
    Gains,
    VelocityLimits,
    adaptive_control,
    adaptive_lyapunov,
    adaptive_update,
    damped_pseudoinverse,
    model_based_control,
)
from .estimation import SampleWindow
from .feasibility import (
    FeasibilityReport,
    GridSpec,
    ScalarField,
    export_field,
    isosurface_grid,
    pairwise_feasibility,
    required_view_factor,
    steady_state_temperature,
    target_bounds,
)
from .geometry import (
    CircleContour,
    Common,
    Complete,
    Contour,
    DegeneratePoseError,
    FourierContour,
    Occlusion,
    Partial,
    Pose,
    classify_occlusion,
    fourier_fit,
    rotation_from_euler,
    wrap_angle,
)
from .scenario import (
    AdaptiveInit,
    ObjectSpec,
    Scenario,
    ScenarioError,
    SensorSpec,
    SourceSchedule,
    Workspace,
    load_scenario,
    scenario_from_dict,
)
from .simulator import RunLog, aluminum_reference_params, run_simulation
from .thermal import (
    Environment,
    LambdaParams,
    ThermalDivergenceError,
    ThermalState,
    ThermoParams,
    integrate_period,
    integrate_thermal,
    lambdas,
)
from .viewfactor import (
    DEFAULT_SPEC,
    FAST_SPEC,
    QuadratureSpec,
    ViewFactor,
    l_parallel,
    vf_batch,
    vf_dsi_oracle,
    vf_general,
    vf_parallel_disks,
    view_factor_gradient,
)

__version__ = "0.1.0"
