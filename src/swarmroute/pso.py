"""Particle swarm search over priority vectors.

Each particle's position is a priority vector, decoded and scored by the
evaluator in `encoding` (the one the GA uses too): fitness is the
first-link bandwidth divided by the total bandwidth along the path (higher
is better, 1.0 for a direct link). Personal and global bests track the best
decoded paths seen so far; velocities follow the standard inertia +
cognitive + social update with componentwise clamping.
"""

import time
from dataclasses import dataclass

import numpy as np

from .encoding import (DecodeParams, Path, draw_population, evaluate, first_max,
                       path_fitness)
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
            raise ValueError(f"need at least 2 particles, got {self.n_particles}")
        if self.iterations < 1:
            raise ValueError(f"need at least 1 iteration, got {self.iterations}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        check_bandwidth_mode(self.bandwidth_mode)


@dataclass(eq=False)
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: float
    pbest_path: Path


@dataclass(eq=False)
class Swarm:
    particles: list[Particle]
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
    and the global best at the best initial personal best. Deterministic
    per seed; raises NoPathFound if a particle exhausts its retry budget.
    """
    dparams = DecodeParams.for_network(network)
    positions, fits, paths = draw_population(network, params.n_particles, source, destination,
                                             dparams, make_rng(seed, PSO_INIT))
    particles = [Particle(position=pos, velocity=np.zeros_like(pos), pbest_position=pos.copy(),
                          pbest_fitness=fit, pbest_path=path)
                 for pos, fit, path in zip(positions, fits, paths)]
    leader = particles[first_max(fits)]
    return Swarm(particles=particles, gbest_position=leader.pbest_position.copy(),
                 gbest_fitness=leader.pbest_fitness, gbest_path=leader.pbest_path,
                 params=params, iteration=0, source=int(source), destination=int(destination),
                 decode_params=dparams)


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

    positions = np.stack([p.position for p in swarm.particles])
    fits, paths = evaluate(net, positions, swarm.source, swarm.destination, swarm.decode_params)
    pbest_pos, pbest_fit, pbest_path = [], [], []
    for p, fit, path in zip(swarm.particles, fits, paths):
        if path is not None and fit > p.pbest_fitness:
            pbest_pos.append(p.position.copy())
            pbest_fit.append(fit)
            pbest_path.append(path)
        else:
            pbest_pos.append(p.pbest_position)
            pbest_fit.append(p.pbest_fitness)
            pbest_path.append(p.pbest_path)

    gbest_pos, gbest_fit, gbest_path = swarm.gbest_position, swarm.gbest_fitness, swarm.gbest_path
    best = first_max(pbest_fit)
    if pbest_fit[best] > gbest_fit:
        gbest_pos, gbest_fit, gbest_path = pbest_pos[best], pbest_fit[best], pbest_path[best]

    velocities = np.stack([p.velocity for p in swarm.particles])
    pbests = np.stack(pbest_pos)
    gen = make_rng(seed, PSO_STEP, iteration)
    r1 = gen.random(positions.shape)
    r2 = gen.random(positions.shape)
    velocities = (params.inertia * velocities
                  + params.cognitive * r1 * (pbests - positions)
                  + params.social * r2 * (gbest_pos - positions))
    velocities = np.clip(velocities, -params.v_max, params.v_max)
    positions = positions + velocities

    particles = [
        Particle(position=positions[i], velocity=velocities[i],
                 pbest_position=pbest_pos[i], pbest_fitness=pbest_fit[i],
                 pbest_path=pbest_path[i])
        for i in range(len(swarm.particles))
    ]
    return Swarm(particles=particles, gbest_position=gbest_pos, gbest_fitness=gbest_fit,
                 gbest_path=gbest_path, params=params, iteration=iteration,
                 source=swarm.source, destination=swarm.destination,
                 decode_params=swarm.decode_params)


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
