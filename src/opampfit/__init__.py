"""Single-pole op-amp dynamics toolkit.

Closed-form frequency response and time-domain simulation of non-inverting
amplifier loops, crossover-frequency extraction from gain sweeps, and batch
normality analysis of many measured devices.
"""

from .base import NotFittedError
from .circuit import (
    ComplexGain,
    DeviceParams,
    Topology,
    closed_loop_gain,
    crossover_from_minus3db,
    inverse_gain_squared,
    quick_f0,
    quick_f0_general,
)
from .distribution import (
    BatchDistribution,
    NormalCdfFitStats,
    NormalityFit,
    analyze_batch,
    batch_stats,
    empirical_cdf,
    normal_cdf_fit,
    normal_reference_cdf,
)
from .extraction import (
    CalibrationWarning,
    CrossoverFrequencyFit,
    FitError,
    FitResult,
    QuickCrossoverFit,
    SweepRangeError,
    SweepRecord,
    fit_f0,
    quick_fit_f0,
)
from .fileio import (
    ParseError,
    RunConfig,
    read_batch_file,
    read_sweep_file,
    write_batch_file,
    write_sweep_file,
)
from .simulate import (
    NoiseModel,
    SimConfig,
    SimulationError,
    Stimulus,
    SweepPlan,
    TimeSeries,
    add_gain_noise,
    closed_loop_ode_rhs,
    lockin_demodulate,
    rk4_step,
    run_sweep,
    simulate_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "BatchDistribution",
    "CalibrationWarning",
    "ComplexGain",
    "CrossoverFrequencyFit",
    "DeviceParams",
    "FitError",
    "FitResult",
    "NoiseModel",
    "NormalCdfFitStats",
    "NormalityFit",
    "NotFittedError",
    "ParseError",
    "QuickCrossoverFit",
    "RunConfig",
    "SimConfig",
    "SimulationError",
    "Stimulus",
    "SweepPlan",
    "SweepRangeError",
    "SweepRecord",
    "TimeSeries",
    "Topology",
    "add_gain_noise",
    "analyze_batch",
    "batch_stats",
    "closed_loop_gain",
    "closed_loop_ode_rhs",
    "crossover_from_minus3db",
    "empirical_cdf",
    "fit_f0",
    "inverse_gain_squared",
    "lockin_demodulate",
    "normal_cdf_fit",
    "normal_reference_cdf",
    "quick_f0",
    "quick_f0_general",
    "quick_fit_f0",
    "read_batch_file",
    "read_sweep_file",
    "rk4_step",
    "run_sweep",
    "simulate_steady_state",
    "write_batch_file",
    "write_sweep_file",
]
