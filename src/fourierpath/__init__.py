"""Turn a discrete planar path dataset into a smooth trigonometric
reconstruction and a non-singular guiding vector field, simulate the
closed loop, and certify the ultimate mean-square following error."""

from .pathdata import (
    NoiseSpec,
    PathDataError,
    PathSamples,
    add_noise,
    load_path,
    synth_path,
)
from .spectrum import Spectrum, apply_window, dft, tail_energy
from .trigpath import TrigPath, make_trig_path
from .gvf import (
    FieldState,
    GvfParams,
    NonSingularityReport,
    lyapunov_rate,
    verify_nonsingular,
)
from .sim import IntegrationError, SimConfig, Trajectory, convergence_time, integrate
from .analysis import (
    ErrorReport,
    certify,
    f_backward,
    p_bar,
    reconstruction_mse,
    select_window,
    window_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "NoiseSpec",
    "PathDataError",
    "PathSamples",
    "add_noise",
    "load_path",
    "synth_path",
    "Spectrum",
    "apply_window",
    "dft",
    "tail_energy",
    "TrigPath",
    "make_trig_path",
    "FieldState",
    "GvfParams",
    "NonSingularityReport",
    "lyapunov_rate",
    "verify_nonsingular",
    "IntegrationError",
    "SimConfig",
    "Trajectory",
    "convergence_time",
    "integrate",
    "ErrorReport",
    "certify",
    "f_backward",
    "p_bar",
    "reconstruction_mse",
    "select_window",
    "window_sweep",
]
