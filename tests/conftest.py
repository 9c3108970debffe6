import math
import re
import time
from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

from swarmroute import (DeadEnd, DecodeParams, GaParams, GaResult, Network, NoPathFound, Path,
                        PsoParams, PsoResult, build_network, path_fitness, perturb_bandwidths)
from swarmroute.encoding import MAX_DRAWS, check_endpoints
from swarmroute.ga import InvalidCutPoints, InvalidIndex, LengthMismatch
from swarmroute.harness import DEFAULT_ORACLE_CAP, OracleTooLarge
from swarmroute.rng import GA_INIT, GA_OPS, GA_SELECT, PSO_INIT, PSO_STEP, make_rng


@pytest.fixture
def diamond_net():
    """Four nodes, two source-to-destination routes: 0-1-3 (fitness 0.5)
    and 0-2-3 (fitness 0.6)."""
    return Network.from_links(4, [(0, 1, 10.0), (1, 3, 10.0), (0, 2, 30.0), (2, 3, 20.0)])


@pytest.fixture
def line_net():
    """Line 0-1-2-3 with unit bandwidths; a unique simple path end to end."""
    return Network.from_links(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_net():
    return build_network(12, seed=42)


def make_networks(count, n_nodes=21, start_seed=0, **kwargs):
    return [build_network(n_nodes, seed=start_seed + i, **kwargs) for i in range(count)]


def mask_times(text):
    """Blank every wall-time-derived field so CLI runs can be byte-compared."""
    text = re.sub(r'"(wall_ms|pso_ms|ga_ms|mean_ms|median_ms)": [0-9.eE+-]+', r'"\1": X', text)
    text = re.sub(r'"pso_mean_ms_le_ga": (true|false)', '"pso_mean_ms_le_ga": X', text)
    lines = text.split("\n")
    if lines and lines[0].startswith("budget,"):
        return "\n".join([lines[0]] + [",".join(l.split(",")[:6]) for l in lines[1:] if l])
    return text


# Bandwidth sets for hand-built networks: tie-heavy ones, where the
# lexicographic tie rule decides, and one whose sums lose low-order links
# to rounding, where the order of the additions decides the fitness bits.
BANDWIDTH_SETS = ((1.0,), (1.0, 2.0, 3.0), (1e-300, 1.0, 3.0, 2.0 ** 53, 1e300))


def draw_network(draw, n, hand_built=None):
    """Inside a Hypothesis strategy: an n-node network, either from
    `Network.from_links` with each link absent or drawn from one of
    BANDWIDTH_SETS, or from `build_network` at random densities, with or
    without `ensure_connected`. `hand_built` None lets Hypothesis choose."""
    if hand_built is None:
        hand_built = draw(st.booleans())
    if hand_built:
        bandwidths = draw(st.sampled_from(BANDWIDTH_SETS))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from((None,) + bandwidths),
                               min_size=len(pairs), max_size=len(pairs)))
        return Network.from_links(n, [(u, v, bw) for (u, v), bw in zip(pairs, chosen)
                                      if bw is not None])
    return build_network(n, seed=draw(st.integers(0, 10_000)),
                         intra_density=draw(st.floats(0.0, 0.9)),
                         inter_density=draw(st.floats(0.0, 0.4)),
                         ensure_connected=draw(st.booleans()))


def draw_far_endpoints(draw, net):
    """Inside a Hypothesis strategy: a source and a destination not linked to
    it, if the source has a non-neighbour, so that the best path is not
    mostly the direct link."""
    n = net.n_nodes
    source = draw(st.integers(0, n - 1))
    far = [v for v in range(n) if v != source and not net.has_link(source, v)]
    return source, draw(st.sampled_from(far or [v for v in range(n) if v != source]))


def optimizer_outcome(run, evaluator, network, source, destination, params, seed):
    """A `run_pso`/`run_ga`-style result as path, hops and the bits of the
    fitness and of every trace entry, or the NoPathFound message; plus the
    bytes of every priority matrix `run` scored after its initial draw.

    `evaluator` names the population evaluator `run` calls by its global
    name (`evaluate` or `reference_evaluate`); it is wrapped for the run to
    record its input.
    """
    scored = []
    home = run.__globals__
    original = home[evaluator]

    def recording(net, vectors, *args):
        scored.append(np.asarray(vectors, dtype=float).tobytes())
        return original(net, vectors, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(home, evaluator, recording)
        try:
            result = run(network, source, destination, params, seed)
        except NoPathFound as exc:
            return str(exc), scored
    return (result.path, result.hops, result.fitness.hex(),
            [(it, fit.hex()) for it, fit in result.trace]), scored


# ---- independent oracles (kept free of the library's own path/graph logic) ----

def fitness_oracle(network, nodes):
    """Second implementation of the bandwidth-quality score: first link's
    bandwidth over the exact (fsum) total along the node sequence."""
    bws = [network.bandwidth(u, v) for u, v in zip(nodes, nodes[1:])]
    return bws[0] / math.fsum(bws)


def assert_valid_path(network, path, source, destination):
    nodes = list(path.nodes)
    assert nodes[0] == source, f"path starts at {nodes[0]}, not {source}"
    assert nodes[-1] == destination, f"path ends at {nodes[-1]}, not {destination}"
    assert len(set(nodes)) == len(nodes), f"path repeats a node: {nodes}"
    for u, v in zip(nodes, nodes[1:]):
        assert network.has_link(u, v), f"({u}, {v}) is not a network link"
    assert path.hop_count == len(nodes) - 1


def bfs_reachable(network, start):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nb in network.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


def to_nx(network):
    graph = nx.Graph()
    graph.add_nodes_from(range(network.n_nodes))
    graph.add_edges_from(network.links)
    return graph


# ---- reference decoder: the per-vector sentinel loop the library used before
# it decoded whole populations over a cached move table, kept verbatim so the
# batched `evaluate`/`draw_population` and the new `decode` are pinned to it ----

SENTINEL_PRIORITY = -999.0


def reference_heuristic_allows(source, destination, terminal, candidate, window) -> bool:
    if source < destination:
        return candidate - terminal > -window
    return candidate - terminal < window


def reference_eligible_neighbors(network, working_priorities, path_so_far, source, destination,
                                 params) -> set[int]:
    terminal = path_so_far[-1]
    out = set()
    for nb in network.neighbors(terminal):
        if working_priorities[nb] == SENTINEL_PRIORITY:
            continue
        if nb != destination and not reference_heuristic_allows(source, destination, terminal,
                                                                nb, params.window):
            continue
        out.add(nb)
    return out


def reference_decode(network, priorities, source, destination, params) -> Path:
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    pri = np.asarray(priorities, dtype=float)
    if pri.shape != (n,):
        raise ValueError(f"priority vector shape {pri.shape} does not match {n} nodes")

    working = pri.tolist()  # private copy; plain floats keep the loop cheap
    path = [source]
    working[source] = SENTINEL_PRIORITY
    while path[-1] != destination:
        candidates = reference_eligible_neighbors(network, working, path, source, destination,
                                                  params)
        if not candidates:
            raise DeadEnd(path, destination)
        nxt = max(candidates, key=lambda nb: (working[nb], -nb))
        path.append(nxt)
        working[nxt] = SENTINEL_PRIORITY
    return Path(tuple(path))


def reference_evaluate(network, vectors, source, destination, dparams):
    fits, paths = [], []
    for vec in vectors:
        try:
            path = reference_decode(network, vec, source, destination, dparams)
        except DeadEnd:
            fits.append(0.0)
            paths.append(None)
            continue
        fits.append(path_fitness(network, path))
        paths.append(path)
    return fits, paths


def reference_draw_population(network, size, source, destination, dparams, rng):
    """One `rng.random(n)` draw per attempt, MAX_DRAWS attempts per member."""
    vectors, paths = [], []
    for _ in range(size):
        for _ in range(MAX_DRAWS):
            pri = rng.random(network.n_nodes)
            try:
                path = reference_decode(network, pri, source, destination, dparams)
            except DeadEnd:
                continue
            vectors.append(pri)
            paths.append(path)
            break
        else:
            raise NoPathFound(source, destination, attempts=MAX_DRAWS)
    return vectors, [path_fitness(network, path) for path in paths], paths


# ---- reference oracle: the exhaustive enumeration `brute_force_best` ran before
# it carried bandwidth sums down the search and pruned, kept verbatim so the
# branch-and-bound oracle is pinned to it ----

def reference_brute_force_best(network: Network, source, destination, cap=DEFAULT_ORACLE_CAP):
    """Exhaustive search over all simple paths; returns (path, fitness).

    Depth-first enumeration in ascending neighbor order, so fitness ties
    resolve to the lexicographically smallest node sequence. Only meant for
    small networks; refuses anything above `cap` nodes.
    """
    if network.n_nodes > cap:
        raise OracleTooLarge(f"{network.n_nodes} nodes exceeds the enumeration cap {cap}")
    source, destination = int(source), int(destination)
    check_endpoints(network.n_nodes, source, destination)
    best_path: Path | None = None
    best_fitness = 0.0

    visited = {source}
    prefix = [source]

    def visit(node):
        nonlocal best_path, best_fitness
        for nb in network.neighbors(node):
            if nb == destination:
                candidate = Path(tuple(prefix) + (nb,))
                fit = path_fitness(network, candidate)
                if best_path is None or fit > best_fitness or (
                        fit == best_fitness and candidate.nodes < best_path.nodes):
                    best_path, best_fitness = candidate, fit
            elif nb not in visited:
                visited.add(nb)
                prefix.append(nb)
                visit(nb)
                prefix.pop()
                visited.discard(nb)

    visit(source)
    if best_path is None:
        raise NoPathFound(source, destination)
    return best_path, best_fitness


# ---- reference optimizers: PSO and GA as they ran before the swarm and the
# population became matrices (one Particle object per member, operators applied
# to single vectors), kept verbatim but for the names and for the reference
# evaluator above in place of the list-returning `evaluate`/`draw_population`,
# so the matrix-form `run_pso`/`run_ga` are pinned to them ----

def reference_first_max(values) -> int:
    """Index of the largest value; ties go to the earliest index."""
    return max(range(len(values)), key=values.__getitem__)


@dataclass(eq=False)
class ReferenceParticle:
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: float
    pbest_path: Path


@dataclass(eq=False)
class ReferenceSwarm:
    particles: list[ReferenceParticle]
    gbest_position: np.ndarray
    gbest_fitness: float
    gbest_path: Path
    params: PsoParams
    iteration: int
    source: int
    destination: int
    decode_params: DecodeParams


def reference_init_swarm(network: Network, source, destination, params: PsoParams,
                         seed) -> ReferenceSwarm:
    """ReferenceSwarm of particles with random decodable priorities.

    Velocities start at zero, each personal best at the initial position,
    and the global best at the best initial personal best. Deterministic
    per seed; raises NoPathFound if a particle exhausts its retry budget.
    """
    dparams = DecodeParams.for_network(network)
    positions, fits, paths = reference_draw_population(network, params.n_particles, source,
                                                       destination, dparams,
                                                       make_rng(seed, PSO_INIT))
    particles = [ReferenceParticle(position=pos, velocity=np.zeros_like(pos),
                                   pbest_position=pos.copy(), pbest_fitness=fit, pbest_path=path)
                 for pos, fit, path in zip(positions, fits, paths)]
    leader = particles[reference_first_max(fits)]
    return ReferenceSwarm(particles=particles, gbest_position=leader.pbest_position.copy(),
                 gbest_fitness=leader.pbest_fitness, gbest_path=leader.pbest_path,
                 params=params, iteration=0, source=int(source), destination=int(destination),
                 decode_params=dparams)


def reference_step(swarm: ReferenceSwarm, network: Network, seed) -> ReferenceSwarm:
    """One iteration: score current positions, refresh bests, then move.

    In dynamic mode the network's bandwidths are re-sampled for this
    iteration before scoring. A position that decodes to a dead end scores
    0 for the iteration and leaves its personal best untouched. Velocities
    are clamped componentwise to [-v_max, v_max]. Returns a new ReferenceSwarm; the
    input swarm is not modified.
    """
    params = swarm.params
    iteration = swarm.iteration + 1
    net = perturb_bandwidths(network, seed, iteration, mode=params.bandwidth_mode)

    positions = np.stack([p.position for p in swarm.particles])
    fits, paths = reference_evaluate(net, positions, swarm.source, swarm.destination,
                                     swarm.decode_params)
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
    best = reference_first_max(pbest_fit)
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
        ReferenceParticle(position=positions[i], velocity=velocities[i],
                 pbest_position=pbest_pos[i], pbest_fitness=pbest_fit[i],
                 pbest_path=pbest_path[i])
        for i in range(len(swarm.particles))
    ]
    return ReferenceSwarm(particles=particles, gbest_position=gbest_pos, gbest_fitness=gbest_fit,
                 gbest_path=gbest_path, params=params, iteration=iteration,
                 source=swarm.source, destination=swarm.destination,
                 decode_params=swarm.decode_params)


def reference_run_pso(network: Network, source, destination, params: PsoParams, seed) -> PsoResult:
    """Full PSO run; deterministic per seed except the wall_ms field.

    The reported fitness is the global-best path scored on the network's
    final-iteration state (identical to the tracked global best in static
    mode). The trace holds the tracked global best after init (entry 0)
    and after each iteration.
    """
    t0 = time.perf_counter()
    swarm = reference_init_swarm(network, source, destination, params, seed)
    trace = [(0, swarm.gbest_fitness)]
    for _ in range(params.iterations):
        swarm = reference_step(swarm, network, seed)
        trace.append((swarm.iteration, swarm.gbest_fitness))
    final_net = perturb_bandwidths(network, seed, params.iterations, mode=params.bandwidth_mode)
    fitness = path_fitness(final_net, swarm.gbest_path)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return PsoResult(path=swarm.gbest_path, fitness=fitness, hops=swarm.gbest_path.hop_count,
                     iterations=params.iterations, trace=trace, wall_ms=wall_ms)


def _reference_parent_pair(p1, p2):
    a1 = np.asarray(p1)
    a2 = np.asarray(p2)
    if a1.ndim != 1 or a2.ndim != 1 or a1.size != a2.size:
        raise LengthMismatch(f"parent lengths differ: {a1.shape} vs {a2.shape}")
    return a1, a2


def reference_crossover_one_point(p1, p2, k, single_gene_exchange=False):
    """Children exchange tails at 1-indexed cut k: child1 keeps p1's genes
    before the cut and takes p2's from position k on (child2 mirrored).

    With single_gene_exchange only the gene at position k crosses over and
    all other positions stay with their own parent.
    """
    a1, a2 = _reference_parent_pair(p1, p2)
    n = a1.size
    if not 1 <= k <= n:
        raise InvalidCutPoints(f"cut {k} outside 1..{n}")
    if single_gene_exchange:
        c1, c2 = a1.copy(), a2.copy()
        c1[k - 1] = a2[k - 1]
        c2[k - 1] = a1[k - 1]
        return c1, c2
    c1 = np.concatenate([a1[:k - 1], a2[k - 1:]])
    c2 = np.concatenate([a2[:k - 1], a1[k - 1:]])
    return c1, c2


def reference_crossover_two_point(p1, p2, j, k):
    """Children exchange the inclusive 1-indexed gene segment [j..k]."""
    a1, a2 = _reference_parent_pair(p1, p2)
    n = a1.size
    if not (1 <= j <= n and 1 <= k <= n):
        raise InvalidCutPoints(f"cuts ({j}, {k}) outside 1..{n}")
    if j > k:
        raise InvalidCutPoints(f"cut j={j} exceeds k={k}")
    c1 = a1.copy()
    c2 = a2.copy()
    c1[j - 1:k] = a2[j - 1:k]
    c2[j - 1:k] = a1[j - 1:k]
    return c1, c2


def reference_mutate_swap(c, i, j):
    """Exchange the genes at 1-indexed positions i < j."""
    arr = np.asarray(c)
    n = arr.size
    if not 1 <= i < j <= n:
        raise InvalidIndex(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    out = arr.copy()
    out[i - 1] = arr[j - 1]
    out[j - 1] = arr[i - 1]
    return out


def reference_mutate_adjacent_swap(c, j):
    """Exchange the genes at 1-indexed positions j and j+1."""
    arr = np.asarray(c)
    n = arr.size
    if not 1 <= j <= n - 1:
        raise InvalidIndex(f"need 1 <= j <= {n - 1}, got {j}")
    return reference_mutate_swap(arr, j, j + 1)


def _reference_roulette_pairs(gen, fitnesses, n_pairs):
    """Index pairs drawn fitness-proportionally with replacement.

    All-zero fitness falls back to uniform selection.
    """
    fits = np.asarray(fitnesses, dtype=float)
    if fits.size == 0:
        raise ValueError("empty population")
    if np.any(fits < 0):
        raise ValueError("fitnesses must be non-negative")
    total = fits.sum()
    if total > 0:
        cum = np.cumsum(fits / total)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, gen.random(2 * n_pairs), side="right")
    else:
        idx = gen.integers(0, fits.size, size=2 * n_pairs)
    idx = [int(i) for i in idx]
    return list(zip(idx[0::2], idx[1::2]))


def _reference_maybe_mutate(child, gen, params, n):
    if gen.random() >= params.mutation_prob:
        return child
    if params.mutation_kind == "swap":
        i, j = sorted(int(x) + 1 for x in gen.choice(n, size=2, replace=False))
        return reference_mutate_swap(child, i, j)
    return reference_mutate_adjacent_swap(child, int(gen.integers(1, n)))


def reference_run_ga(network: Network, source, destination, params: GaParams, seed) -> GaResult:
    """Generational GA run; deterministic per seed except the wall_ms field.

    Runs exactly params.kmax generations after the initial population (so
    kmax=0 reports the best initial chromosome). Dead-end chromosomes score
    0 for their generation. With elitism the best current chromosome is
    copied unchanged into the next generation. The trace holds the best
    population fitness per generation, starting at generation 0.
    """
    t0 = time.perf_counter()
    source, destination = int(source), int(destination)
    dparams = DecodeParams.for_network(network)
    population, fits, paths = reference_draw_population(network, params.pop_size, source,
                                                        destination, dparams,
                                                        make_rng(seed, GA_INIT))

    best = reference_first_max(fits)
    best_fitness, best_path = fits[best], paths[best]
    trace = [(0, fits[best])]
    n = network.n_nodes

    for k in range(1, params.kmax + 1):
        sel_gen = make_rng(seed, GA_SELECT, k)
        op_gen = make_rng(seed, GA_OPS, k)
        n_children = params.pop_size - (1 if params.elitism else 0)
        pairs = _reference_roulette_pairs(sel_gen, fits, (n_children + 1) // 2)

        children = []
        for i, j in pairs:
            pa, pb = population[i], population[j]
            if op_gen.random() < params.crossover_prob:
                if params.crossover_kind == "one_point":
                    cut = int(op_gen.integers(1, n + 1))
                    ca, cb = reference_crossover_one_point(pa, pb, cut)
                else:
                    lo, hi = sorted(int(x) for x in op_gen.integers(1, n + 1, size=2))
                    ca, cb = reference_crossover_two_point(pa, pb, lo, hi)
            else:
                ca, cb = pa.copy(), pb.copy()
            children.append(_reference_maybe_mutate(ca, op_gen, params, n))
            children.append(_reference_maybe_mutate(cb, op_gen, params, n))
        children = children[:n_children]

        elite = [population[reference_first_max(fits)].copy()] if params.elitism else []
        population = elite + children
        fits, paths = reference_evaluate(network, population, source, destination, dparams)

        gen_best = reference_first_max(fits)
        trace.append((k, fits[gen_best]))
        if fits[gen_best] > best_fitness:
            best_fitness, best_path = fits[gen_best], paths[gen_best]

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return GaResult(path=best_path, fitness=best_fitness, hops=best_path.hop_count,
                    generations=params.kmax, trace=trace, wall_ms=wall_ms)
