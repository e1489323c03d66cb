"""Simulator and optimization library for backhaul-compressed cellular
clusters: point-to-point vs multiterminal compression on the uplink and
downlink of a centrally processed cell, under proportional-fair scheduling
and per-link backhaul capacity limits."""

# set before the submodules load: harness writes it to every timing.json
__version__ = "0.1.0"

from .cellgeom import (PropagationParams, Topology, build_layout,
                       link_gain_linear, pathloss_macro_db, pathloss_pico_db,
                       sector_gain_db)
from .channel import (ChannelRealization, Cluster, build_cluster,
                      realize_channel, thermal_noise_w)
from .downlink import DownlinkDesign, feasible_dl, optimize_dl, rates_dl
from .errors import ConfigurationError, DomainError, NumericalDomainError
from .harness import (ExperimentConfig, MetricsReport, PRESETS, RateMapping,
                      SweepResult, alpha_sweep, percentile, run_experiment)
from .mmopt import MMTrace, SolveResult
from .scheduler import FairnessState, initial_state, update, weights
from .uplink import (UplinkDesign, backhaul_p2p, backhaul_wz,
                     omega_closed_form, optimize_ul, rates_ul)
