"""Generational genetic algorithm over priority-vector chromosomes.

Chromosomes are the same priority vectors the swarm optimizer uses, decoded
and scored by the same evaluator in `encoding`, so both optimizers compare
on equal footing. Selection is roulette-wheel over fitness; crossover is one-
or two-point tail/segment exchange at 1-indexed cut positions; mutation
swaps two gene positions (arbitrary or adjacent).

The population is a P x n matrix. `_exchange` (crossover) and `_swap_genes`
(mutation) are the operators' one definition: the public single-pair
operators call them, and so does `run_ga` on the rows of a generation.

A generation's operator decisions are many scalar draws (about 80 for a
population of 40), so `run_ga` decodes them from the raw words of the
generation's stream with `rng.Words` rather than calling numpy's
`Generator` once per draw: the values, and so the output, are the same.
Selection and the initial population keep their vectorized `Generator`
calls.
"""

import time
from dataclasses import dataclass

import numpy as np

from .encoding import DecodeParams, Path, draw_population, evaluate, route_path
from .errors import InvalidConfig
from .rng import GA_INIT, GA_OPS, GA_SELECT, Words, make_rng
from .topology import Network


class LengthMismatch(ValueError):
    """Crossover parents must have equal length."""


class InvalidCutPoints(ValueError):
    """Crossover cut positions outside 1..len or out of order."""


class InvalidIndex(ValueError):
    """Mutation position outside the chromosome."""


def _exchange(first, second, lo, hi):
    """Swap the genes at columns lo[r] <= c < hi[r] between row r of `first`
    and row r of `second`, in place: the crossover of every operator."""
    cols = np.arange(first.shape[1])
    segment = (lo[:, None] <= cols) & (cols < hi[:, None])
    kept = first.copy()
    np.copyto(first, second, where=segment)
    np.copyto(second, kept, where=segment)


def _swap_genes(chromosome, i, j):
    """Swap the genes at 0-indexed positions i and j, in place: the mutation
    of every operator."""
    chromosome[i], chromosome[j] = chromosome[j], chromosome[i]


def _parent_pair(p1, p2):
    """The parents as the two rows of one matrix: the children, once crossed."""
    a1 = np.asarray(p1)
    a2 = np.asarray(p2)
    if a1.ndim != 1 or a2.ndim != 1 or a1.size != a2.size:
        raise LengthMismatch(f"parent lengths differ: {a1.shape} vs {a2.shape}")
    return np.stack([a1, a2])


def _cross(pair, lo, hi):
    _exchange(pair[:1], pair[1:], np.array([lo]), np.array([hi]))
    return pair[0], pair[1]


def crossover_one_point(p1, p2, k, single_gene_exchange=False):
    """Children exchange tails at 1-indexed cut k: child1 keeps p1's genes
    before the cut and takes p2's from position k on (child2 mirrored).

    With single_gene_exchange only the gene at position k crosses over and
    all other positions stay with their own parent.
    """
    pair = _parent_pair(p1, p2)
    n = pair.shape[1]
    if not 1 <= k <= n:
        raise InvalidCutPoints(f"cut {k} outside 1..{n}")
    return _cross(pair, k - 1, k if single_gene_exchange else n)


def crossover_two_point(p1, p2, j, k):
    """Children exchange the inclusive 1-indexed gene segment [j..k]."""
    pair = _parent_pair(p1, p2)
    n = pair.shape[1]
    if not (1 <= j <= n and 1 <= k <= n):
        raise InvalidCutPoints(f"cuts ({j}, {k}) outside 1..{n}")
    if j > k:
        raise InvalidCutPoints(f"cut j={j} exceeds k={k}")
    return _cross(pair, j - 1, k)


def mutate_swap(c, i, j):
    """Exchange the genes at 1-indexed positions i < j."""
    out = np.array(c)
    n = out.size
    if not 1 <= i < j <= n:
        raise InvalidIndex(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    _swap_genes(out, i - 1, j - 1)
    return out


def mutate_adjacent_swap(c, j):
    """Exchange the genes at 1-indexed positions j and j+1."""
    arr = np.asarray(c)
    n = arr.size
    if not 1 <= j <= n - 1:
        raise InvalidIndex(f"need 1 <= j <= {n - 1}, got {j}")
    return mutate_swap(arr, j, j + 1)


@dataclass
class GaParams:
    pop_size: int = 40
    kmax: int = 100
    crossover_kind: str = "one_point"  # or "two_point"
    crossover_prob: float = 0.8
    mutation_kind: str = "swap"  # or "adjacent_swap"
    mutation_prob: float = 0.1
    elitism: bool = True

    def __post_init__(self):
        if self.pop_size < 2:
            raise InvalidConfig(
                f"population must hold at least 2 chromosomes, got {self.pop_size}")
        if self.kmax < 0:
            raise InvalidConfig(f"generation bound must be >= 0, got {self.kmax}")
        if self.crossover_kind not in ("one_point", "two_point"):
            raise InvalidConfig(f"unknown crossover kind {self.crossover_kind!r}")
        if self.mutation_kind not in ("swap", "adjacent_swap"):
            raise InvalidConfig(f"unknown mutation kind {self.mutation_kind!r}")
        if not (0.0 <= self.crossover_prob <= 1.0 and 0.0 <= self.mutation_prob <= 1.0):
            raise InvalidConfig("operator probabilities must lie in [0, 1]")


def _roulette(gen, fitnesses, n_pairs):
    """2 * n_pairs parent indices drawn fitness-proportionally with
    replacement; entries 2p and 2p + 1 are pair p.

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
        return np.searchsorted(cum, gen.random(2 * n_pairs), side="right")
    return gen.integers(0, fits.size, size=2 * n_pairs)


@dataclass
class GaResult:
    path: Path
    fitness: float
    hops: int
    generations: int
    trace: list[tuple[int, float]]
    wall_ms: float

    def to_json(self) -> dict:
        return {
            "path": list(self.path.nodes),
            "fitness": self.fitness,
            "hops": self.hops,
            "generations": self.generations,
            "trace": [{"iter": it, "best": fit} for it, fit in self.trace],
            "wall_ms": self.wall_ms,
        }


def run_ga(network: Network, source, destination, params: GaParams, seed) -> GaResult:
    """Generational GA run; deterministic per seed except the wall_ms field.

    Runs exactly params.kmax generations after the initial population (so
    kmax=0 reports the best initial chromosome). Dead-end chromosomes score
    0 for their generation. With elitism the best current chromosome is
    copied unchanged into the next generation. The trace holds the best
    population fitness per generation, starting at generation 0.

    The population is one pop_size x n matrix. Each generation draws its
    operator decisions pair by pair, child by child, then applies every
    crossover and every mutation to the gathered parent rows at once. The
    decisions come from `Words` over the generation's GA_OPS stream:
    `double()` for each probability test, `below(n)` for a cut (two for a
    two-point crossover), `below(n - 1)` for an adjacent swap's position
    and `two_of(n)` for a swap's positions. These are the values that
    `Generator.random()`, `integers(1, m + 1) - 1` and
    `choice(n, 2, replace=False)` draw from the same stream.
    """
    t0 = time.perf_counter()
    source, destination = int(source), int(destination)
    dparams = DecodeParams.for_network(network)
    population, fits, routes = draw_population(network, params.pop_size, source, destination,
                                               dparams, make_rng(seed, GA_INIT))

    best = int(fits.argmax())  # the first on ties
    best_fitness, best_path = float(fits[best]), route_path(routes[best])
    trace = [(0, best_fitness)]
    n = network.n_nodes
    one_point = params.crossover_kind == "one_point"
    swap = params.mutation_kind == "swap"
    offset = 1 if params.elitism else 0  # the elite is row 0
    n_pairs = (params.pop_size - offset + 1) // 2

    for k in range(1, params.kmax + 1):
        parents = _roulette(make_rng(seed, GA_SELECT, k), fits, n_pairs)
        # A pair takes three doubles and, at the paper's operator rates, less
        # than one more word on average; Words fetches more when it runs out.
        words = Words(make_rng(seed, GA_OPS, k).bit_generator, chunk=4 * n_pairs)

        lo, hi = [0] * n_pairs, [0] * n_pairs  # 0-indexed columns lo..hi-1 cross over
        mutations = []  # (row, i, j): swap genes i and j of the row
        for pair in range(n_pairs):
            if words.double() < params.crossover_prob:
                if one_point:
                    lo[pair], hi[pair] = words.below(n), n
                else:
                    a, b = sorted((words.below(n), words.below(n)))
                    lo[pair], hi[pair] = a, b + 1
            for row in (offset + 2 * pair, offset + 2 * pair + 1):
                if words.double() < params.mutation_prob:
                    if swap:
                        i, j = sorted(words.two_of(n))
                    else:
                        i = words.below(n - 1)
                        j = i + 1
                    mutations.append((row, i, j))

        if params.elitism:
            parents = np.concatenate(([fits.argmax()], parents))
        nxt = population[parents]
        _exchange(nxt[offset::2], nxt[offset + 1::2], np.array(lo), np.array(hi))
        for row, i, j in mutations:
            _swap_genes(nxt[row], i, j)
        population = nxt[:params.pop_size]
        fits, routes, _ = evaluate(network, population, source, destination, dparams)

        gen_best = int(fits.argmax())
        trace.append((k, float(fits[gen_best])))
        if fits[gen_best] > best_fitness:
            best_fitness, best_path = float(fits[gen_best]), route_path(routes[gen_best])

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return GaResult(path=best_path, fitness=best_fitness, hops=best_path.hop_count,
                    generations=params.kmax, trace=trace, wall_ms=wall_ms)
