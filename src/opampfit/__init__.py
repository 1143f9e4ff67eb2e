"""Single-pole op-amp dynamics toolkit.

Closed-form frequency response and time-domain simulation of non-inverting
amplifier loops, crossover-frequency extraction from gain sweeps, and batch
normality analysis of many measured devices.
"""

from .circuit import (
    DeviceParams,
    Topology,
    closed_loop_gain,
    quick_f0_general,
)
from .distribution import (
    BatchDistribution,
    analyze_batch,
    normal_reference_cdf,
)
from .extraction import (
    CalibrationWarning,
    CrossoverFrequencyFit,
    FitError,
    QuickCrossoverFit,
    SweepRecord,
    fit_f0,
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
    SimConfig,
    SimulationError,
    SweepPlan,
    TimeSeries,
    add_gain_noise,
    lockin_demodulate,
    run_sweep,
    simulate_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "BatchDistribution",
    "CalibrationWarning",
    "CrossoverFrequencyFit",
    "DeviceParams",
    "FitError",
    "ParseError",
    "QuickCrossoverFit",
    "RunConfig",
    "SimConfig",
    "SimulationError",
    "SweepPlan",
    "SweepRecord",
    "TimeSeries",
    "Topology",
    "add_gain_noise",
    "analyze_batch",
    "closed_loop_gain",
    "fit_f0",
    "lockin_demodulate",
    "normal_reference_cdf",
    "quick_f0_general",
    "read_batch_file",
    "read_sweep_file",
    "run_sweep",
    "simulate_steady_state",
    "write_batch_file",
    "write_sweep_file",
]
