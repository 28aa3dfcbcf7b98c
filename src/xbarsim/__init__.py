"""xbarsim: behavioral mixed-signal simulation of memristor-crossbar networks
with regulated-cascode current-mode neurons and SAR-calibrated DC points."""

__version__ = "0.1.0"

from .devices import MosEval, MosParams, Region, mos_eval
from .crossbar import (ConductanceMatrix, Excitation, ExcitationMode,
                       NonIdealSpec, SingularNetworkError, current_excitation,
                       output_currents_ideal, output_currents_nonideal,
                       voltage_excitation)
from .neuron import (DacSpec, OperatingPoint, RgcParams, SmallSignalReport,
                     SolverError, dac_current, gm_tuned, reference_params,
                     small_signal, solve_dc, transfer_curve)
from .sar import SarResult, sar_calibrate, sar_normalized_converge
from .montecarlo import McResult, MismatchSpec, run_mc, run_rng, sample_params
from .network import (Activation, CircuitContext, EnergyReport, Fidelity,
                      LayerSpec, MappedLayer, digital_baseline,
                      energy_estimate, infer, map_weights)
from .config import ConfigError, SimConfig, load_config, parse_config, parse_engineering
from .experiments import ExperimentKind, run_experiment
from .reports import ReportFormat, ReportRecord, canonical_json, emit_report
