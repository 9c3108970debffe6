"""Seedable region-based random networks with PSO and GA path search.

Networks partition node ids into contiguous regions and carry random link
bandwidths. Paths are encoded indirectly as node-priority vectors; both a
particle swarm and a genetic algorithm search that space for the path
maximizing first-link bandwidth over total path bandwidth. A harness runs
both optimizers over iteration-budget grids and emits comparison reports.
"""

from .encoding import (DeadEnd, DecodeParams, InvalidPath, NoPathFound, Path, decode,
                       path_fitness, random_priorities)
from .errors import InvalidConfig
from .ga import (GaParams, GaResult, crossover_one_point, crossover_two_point,
                 mutate_adjacent_swap, mutate_swap, run_ga)
from .harness import (ExperimentConfig, IterationRecord, OracleTooLarge, Report,
                      brute_force_best, compare, render_csv, render_json)
from .pso import PsoParams, PsoResult, Swarm, init_swarm, run_pso
from .topology import (InvalidBandwidthRange, InvalidNodeCount, Network, RegionLayout,
                       assign_bandwidths, build_network, generate_topology, partition_regions,
                       perturb_bandwidths)

__all__ = [
    "DeadEnd", "DecodeParams", "InvalidPath", "NoPathFound", "Path", "decode",
    "path_fitness", "random_priorities",
    "InvalidConfig",
    "GaParams", "GaResult", "crossover_one_point", "crossover_two_point",
    "mutate_adjacent_swap", "mutate_swap", "run_ga",
    "ExperimentConfig", "IterationRecord", "OracleTooLarge", "Report",
    "brute_force_best", "compare", "render_csv", "render_json",
    "PsoParams", "PsoResult", "Swarm", "init_swarm", "run_pso",
    "InvalidBandwidthRange", "InvalidNodeCount", "Network", "RegionLayout",
    "assign_bandwidths", "build_network", "generate_topology", "partition_regions",
    "perturb_bandwidths",
]

__version__ = "0.1.0"
