"""Particle swarm search over priority vectors.

Each particle's position is a priority vector, decoded and scored by the
evaluator in `encoding` (the one the GA uses too): fitness is the
first-link bandwidth divided by the total bandwidth along the path (higher
is better, 1.0 for a direct link). Personal and global bests track the best
decoded paths seen so far; velocities follow the standard inertia +
cognitive + social update with componentwise clamping.

The swarm is a set of P x n matrices (positions, velocities, personal-best
positions and routes) plus a vector of personal-best fitnesses, and a step
updates them all at once; only a new global best becomes a `Path`.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .encoding import DecodeParams, Path, draw_population, evaluate, path_fitness, route_path
from .errors import InvalidConfig
from .rng import PSO_INIT, PSO_STEP, make_rng
from .topology import Network, check_bandwidth_mode, perturb_bandwidths


@dataclass
class PsoParams:
    n_particles: int = 40
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    v_max: float = 1.0
    iterations: int = 100
    bandwidth_mode: str = "static"  # or "dynamic"

    def __post_init__(self):
        if self.n_particles < 2:
            raise InvalidConfig(f"need at least 2 particles, got {self.n_particles}")
        if self.iterations < 1:
            raise InvalidConfig(f"need at least 1 iteration, got {self.iterations}")
        for name in ("inertia", "cognitive", "social", "v_max"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.v_max <= 0:
            raise InvalidConfig(f"v_max must be positive, got {self.v_max}")
        check_bandwidth_mode(self.bandwidth_mode)


@dataclass(eq=False)
class Swarm:
    """Row i of every matrix is particle i: P x n positions, velocities and
    personal-best positions, the P personal-best fitnesses, and the P x n
    personal-best routes (`evaluate` routes, -1 padded)."""

    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_fitness: np.ndarray
    pbest_routes: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float
    gbest_path: Path
    params: PsoParams
    iteration: int
    source: int
    destination: int
    decode_params: DecodeParams


def init_swarm(network: Network, source, destination, params: PsoParams, seed) -> Swarm:
    """Swarm of particles with random decodable priorities.

    Velocities start at zero, each personal best at the initial position,
    and the global best at the best initial personal best (the first on
    ties). Deterministic per seed; raises NoPathFound if a particle exhausts
    its retry budget.
    """
    dparams = DecodeParams.for_network(network)
    positions, fits, routes = draw_population(network, params.n_particles, source, destination,
                                              dparams, make_rng(seed, PSO_INIT))
    leader = int(fits.argmax())
    return Swarm(positions=positions, velocities=np.zeros_like(positions),
                 pbest_positions=positions.copy(), pbest_fitness=fits, pbest_routes=routes,
                 gbest_position=positions[leader].copy(), gbest_fitness=float(fits[leader]),
                 gbest_path=route_path(routes[leader]), params=params, iteration=0,
                 source=int(source), destination=int(destination), decode_params=dparams)


def step(swarm: Swarm, network: Network, seed) -> Swarm:
    """One iteration: score current positions, refresh bests, then move.

    In dynamic mode the network's bandwidths are re-sampled for this
    iteration before scoring. A position that decodes to a dead end scores
    0 for the iteration and leaves its personal best untouched. Velocities
    are clamped componentwise to [-v_max, v_max]. Returns a new Swarm; the
    input swarm is not modified.
    """
    params = swarm.params
    iteration = swarm.iteration + 1
    net = perturb_bandwidths(network, seed, iteration, mode=params.bandwidth_mode)

    positions = swarm.positions
    fits, routes, reached = evaluate(net, positions, swarm.source, swarm.destination,
                                     swarm.decode_params)
    improved = reached & (fits > swarm.pbest_fitness)
    pbests = np.where(improved[:, None], positions, swarm.pbest_positions)
    pbest_fit = np.where(improved, fits, swarm.pbest_fitness)
    pbest_routes = np.where(improved[:, None], routes, swarm.pbest_routes)

    gbest_pos, gbest_fit, gbest_path = swarm.gbest_position, swarm.gbest_fitness, swarm.gbest_path
    best = int(pbest_fit.argmax())  # the first on ties
    if pbest_fit[best] > gbest_fit:
        gbest_pos, gbest_fit = pbests[best], float(pbest_fit[best])
        gbest_path = route_path(pbest_routes[best])

    gen = make_rng(seed, PSO_STEP, iteration)
    r1 = gen.random(positions.shape)
    r2 = gen.random(positions.shape)
    velocities = (params.inertia * swarm.velocities
                  + params.cognitive * r1 * (pbests - positions)
                  + params.social * r2 * (gbest_pos - positions))
    velocities = np.clip(velocities, -params.v_max, params.v_max)
    return Swarm(positions=positions + velocities, velocities=velocities,
                 pbest_positions=pbests, pbest_fitness=pbest_fit, pbest_routes=pbest_routes,
                 gbest_position=gbest_pos, gbest_fitness=gbest_fit, gbest_path=gbest_path,
                 params=params, iteration=iteration, source=swarm.source,
                 destination=swarm.destination, decode_params=swarm.decode_params)


@dataclass
class PsoResult:
    path: Path
    fitness: float
    hops: int
    iterations: int
    trace: list[tuple[int, float]]
    wall_ms: float

    def to_json(self) -> dict:
        return {
            "path": list(self.path.nodes),
            "fitness": self.fitness,
            "hops": self.hops,
            "iterations": self.iterations,
            "trace": [{"iter": it, "gbest": fit} for it, fit in self.trace],
            "wall_ms": self.wall_ms,
        }


def run_pso(network: Network, source, destination, params: PsoParams, seed) -> PsoResult:
    """Full PSO run; deterministic per seed except the wall_ms field.

    The reported fitness is the global-best path scored on the network's
    final-iteration state (identical to the tracked global best in static
    mode). The trace holds the tracked global best after init (entry 0)
    and after each iteration.
    """
    t0 = time.perf_counter()
    swarm = init_swarm(network, source, destination, params, seed)
    trace = [(0, swarm.gbest_fitness)]
    for _ in range(params.iterations):
        swarm = step(swarm, network, seed)
        trace.append((swarm.iteration, swarm.gbest_fitness))
    final_net = perturb_bandwidths(network, seed, params.iterations, mode=params.bandwidth_mode)
    fitness = path_fitness(final_net, swarm.gbest_path)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return PsoResult(path=swarm.gbest_path, fitness=fitness, hops=swarm.gbest_path.hop_count,
                     iterations=params.iterations, trace=trace, wall_ms=wall_ms)
