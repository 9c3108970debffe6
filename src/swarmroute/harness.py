"""Experiment harness: PSO vs GA across iteration budgets.

`compare` runs both optimizers over a grid of iteration budgets and trial
seeds, always feeding the same network and base seed to both sides, and
reports fitness, hop count and wall time per cell plus mean/median
aggregates and two directional verdict booleans (PSO at least as fit on
average, PSO at least as fast on average). `brute_force_best` is the
exact reference on small networks: a depth-first search over simple paths
that carries each prefix's first-link bandwidth and running total, and
skips a prefix once first / total falls below the best fitness found, since
adding links only grows the total. The skipped prefixes cannot beat or tie
the best, so the result is the one enumerating every path would give. The
config checks its values with the owning modules' check functions when
built.
"""

import json
import statistics
from dataclasses import asdict, dataclass, field, replace

from .encoding import NoPathFound, Path, check_endpoints
from .errors import InvalidConfig
from .ga import GaParams, run_ga
from .pso import PsoParams, run_pso
from .rng import check_seed, derive_seed
from .topology import (DEFAULT_BANDWIDTH_RANGE, DEFAULT_INTER_DENSITY, DEFAULT_INTRA_DENSITY,
                       Network, build_network, check_bandwidth_mode, check_bandwidth_range,
                       check_densities, check_node_count)

CSV_HEADER = "budget,trial,pso_fitness,ga_fitness,pso_hops,ga_hops,pso_ms,ga_ms"

DEFAULT_ORACLE_CAP = 12


class OracleTooLarge(ValueError):
    """Network too big for exhaustive simple-path enumeration."""


@dataclass
class ExperimentConfig:
    n_nodes: int = 21
    seed: int = 0
    source: int = 0
    destination: int | None = None  # defaults to n_nodes - 1
    budgets: tuple[int, ...] = tuple(range(5, 21))
    trials: int = 1
    pso: PsoParams = field(default_factory=PsoParams)
    ga: GaParams = field(default_factory=GaParams)
    bandwidth_mode: str = "static"
    intra_density: float = DEFAULT_INTRA_DENSITY
    inter_density: float = DEFAULT_INTER_DENSITY
    b_min: float = DEFAULT_BANDWIDTH_RANGE[0]
    b_max: float = DEFAULT_BANDWIDTH_RANGE[1]
    ensure_connected: bool = True
    fixed_topology: bool = False

    def __post_init__(self):
        if self.destination is None:
            self.destination = self.n_nodes - 1
        check_node_count(self.n_nodes)
        check_seed(self.seed)
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise InvalidConfig("iteration budgets must be a non-empty list of integers >= 1")
        if self.trials < 1:
            raise InvalidConfig(f"trials must be >= 1, got {self.trials}")
        check_endpoints(self.n_nodes, self.source, self.destination)
        check_bandwidth_mode(self.bandwidth_mode)
        check_bandwidth_range(self.b_min, self.b_max, self.n_nodes)
        check_densities(self.intra_density, self.inter_density)


@dataclass
class IterationRecord:
    budget: int
    trial: int
    pso_fitness: float
    ga_fitness: float
    pso_hops: int
    ga_hops: int
    pso_ms: float
    ga_ms: float


@dataclass
class Report:
    config: ExperimentConfig
    records: list[IterationRecord]
    aggregates: dict
    verdicts: dict

    def to_json(self) -> dict:
        return {
            "config": asdict(self.config),
            "records": [asdict(r) for r in self.records],
            "aggregates": self.aggregates,
            "verdicts": self.verdicts,
        }


def trial_seed(base_seed, budget, trial) -> int:
    """Integer seed for one (budget, trial) grid cell."""
    return derive_seed(base_seed, budget, trial)


def _aggregate(records):
    out = {}
    for algo in ("pso", "ga"):
        fits = [getattr(r, f"{algo}_fitness") for r in records]
        times = [getattr(r, f"{algo}_ms") for r in records]
        out[algo] = {
            "mean_fitness": statistics.fmean(fits),
            "median_fitness": statistics.median(fits),
            "mean_ms": statistics.fmean(times),
            "median_ms": statistics.median(times),
        }
    return out


def compare(config: ExperimentConfig) -> Report:
    """Run the PSO-vs-GA grid described by `config`.

    Each (budget, trial) cell regenerates the network from its derived seed
    (unless fixed_topology, which reuses one network built from the config
    seed) and gives both optimizers that same network and the same seed.
    Deterministic except the wall-time fields.
    """
    def network(seed):
        return build_network(config.n_nodes, seed, config.intra_density, config.inter_density,
                             config.ensure_connected, config.b_min, config.b_max)

    fixed_net = network(config.seed) if config.fixed_topology else None
    records = []
    for budget in config.budgets:
        for trial in range(config.trials):
            cell_seed = trial_seed(config.seed, budget, trial)
            net = fixed_net if fixed_net is not None else network(cell_seed)
            pso_params = replace(config.pso, iterations=budget,
                                 bandwidth_mode=config.bandwidth_mode)
            ga_params = replace(config.ga, kmax=budget)
            pso_res = run_pso(net, config.source, config.destination, pso_params, cell_seed)
            ga_res = run_ga(net, config.source, config.destination, ga_params, cell_seed)
            records.append(IterationRecord(
                budget=budget, trial=trial,
                pso_fitness=pso_res.fitness, ga_fitness=ga_res.fitness,
                pso_hops=pso_res.hops, ga_hops=ga_res.hops,
                pso_ms=pso_res.wall_ms, ga_ms=ga_res.wall_ms,
            ))
    aggregates = _aggregate(records)
    verdicts = {
        "pso_mean_fitness_ge_ga": aggregates["pso"]["mean_fitness"] >= aggregates["ga"]["mean_fitness"],
        "pso_mean_ms_le_ga": aggregates["pso"]["mean_ms"] <= aggregates["ga"]["mean_ms"],
    }
    return Report(config=config, records=records, aggregates=aggregates, verdicts=verdicts)


def brute_force_best(network: Network, source, destination, cap=DEFAULT_ORACLE_CAP):
    """Exact best simple path by branch and bound; returns (path, fitness).

    One depth-first search in ascending neighbor order, so complete paths
    come in lexicographic order and keeping a path only on strictly greater
    fitness resolves ties to the lexicographically smallest node sequence.
    The search carries the prefix's first-link bandwidth and its running
    total, added left to right in path order as `path_fitness` adds them,
    so each path's fitness is the float `path_fitness` gives.

    Bound: a prefix is not extended when first / total < best. Adding a
    positive bandwidth never lowers a rounded total and rounded division is
    monotone in its divisor, so no completion of that prefix can beat or
    tie the best; the result is the one full enumeration would give. Only
    meant for small networks; refuses anything above `cap` nodes.
    """
    n = network.n_nodes
    if n > cap:
        raise OracleTooLarge(f"{n} nodes exceeds the enumeration cap {cap}")
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    rows = [[(nb, bw) for nb, bw in enumerate(row) if bw] for row in network.bandwidths.tolist()]
    best_nodes = None
    best_fitness = -1.0  # below any fitness, which may underflow to 0.0
    on_path = [False] * n
    on_path[source] = True
    prefix = [source]

    def extend(node, first, total):
        nonlocal best_nodes, best_fitness
        for nb, bw in rows[node]:
            if on_path[nb]:
                continue
            path_total = total + bw
            fit = first / path_total
            if nb == destination:
                if fit > best_fitness:
                    best_nodes, best_fitness = (*prefix, nb), fit
            elif fit >= best_fitness:
                on_path[nb] = True
                prefix.append(nb)
                extend(nb, first, path_total)
                prefix.pop()
                on_path[nb] = False

    for nb, bw in rows[source]:
        if nb == destination:
            # the one-link path scores exactly 1.0, but a lexicographically
            # smaller path may already score 1.0 once its later links round away
            if 1.0 > best_fitness:
                best_nodes, best_fitness = (source, nb), 1.0
        else:
            on_path[nb] = True
            prefix.append(nb)
            extend(nb, bw, bw)
            prefix.pop()
            on_path[nb] = False
    if best_nodes is None:
        raise NoPathFound(source, destination)
    return Path(best_nodes), best_fitness


def render_csv(report: Report) -> str:
    """CSV text: fixed header, one row per record, 6-decimal fitness."""
    lines = [CSV_HEADER]
    for r in report.records:
        lines.append(f"{r.budget},{r.trial},{r.pso_fitness:.6f},{r.ga_fitness:.6f},"
                     f"{r.pso_hops},{r.ga_hops},{r.pso_ms:.3f},{r.ga_ms:.3f}")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"
