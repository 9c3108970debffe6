"""Generational genetic algorithm over priority-vector chromosomes.

Chromosomes are the same priority vectors the swarm optimizer uses, decoded
and scored by the same evaluator in `encoding`, so both optimizers compare
on equal footing. Selection is roulette-wheel over fitness; crossover is one-
or two-point tail/segment exchange at 1-indexed cut positions; mutation
swaps two gene positions (arbitrary or adjacent).
"""

import time
from dataclasses import dataclass

import numpy as np

from .encoding import DecodeParams, Path, draw_population, evaluate, first_max
from .rng import GA_INIT, GA_OPS, GA_SELECT, make_rng
from .topology import Network


class LengthMismatch(ValueError):
    """Crossover parents must have equal length."""


class InvalidCutPoints(ValueError):
    """Crossover cut positions outside 1..len or out of order."""


class InvalidIndex(ValueError):
    """Mutation position outside the chromosome."""


def _parent_pair(p1, p2):
    a1 = np.asarray(p1)
    a2 = np.asarray(p2)
    if a1.ndim != 1 or a2.ndim != 1 or a1.size != a2.size:
        raise LengthMismatch(f"parent lengths differ: {a1.shape} vs {a2.shape}")
    return a1, a2


def crossover_one_point(p1, p2, k, single_gene_exchange=False):
    """Children exchange tails at 1-indexed cut k: child1 keeps p1's genes
    before the cut and takes p2's from position k on (child2 mirrored).

    With single_gene_exchange only the gene at position k crosses over and
    all other positions stay with their own parent.
    """
    a1, a2 = _parent_pair(p1, p2)
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


def crossover_two_point(p1, p2, j, k):
    """Children exchange the inclusive 1-indexed gene segment [j..k]."""
    a1, a2 = _parent_pair(p1, p2)
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


def mutate_swap(c, i, j):
    """Exchange the genes at 1-indexed positions i < j."""
    arr = np.asarray(c)
    n = arr.size
    if not 1 <= i < j <= n:
        raise InvalidIndex(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    out = arr.copy()
    out[i - 1] = arr[j - 1]
    out[j - 1] = arr[i - 1]
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
            raise ValueError(f"population must hold at least 2 chromosomes, got {self.pop_size}")
        if self.kmax < 0:
            raise ValueError(f"generation bound must be >= 0, got {self.kmax}")
        if self.crossover_kind not in ("one_point", "two_point"):
            raise ValueError(f"unknown crossover kind {self.crossover_kind!r}")
        if self.mutation_kind not in ("swap", "adjacent_swap"):
            raise ValueError(f"unknown mutation kind {self.mutation_kind!r}")
        if not (0.0 <= self.crossover_prob <= 1.0 and 0.0 <= self.mutation_prob <= 1.0):
            raise ValueError("operator probabilities must lie in [0, 1]")


def _roulette_pairs(gen, fitnesses, n_pairs):
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


def _maybe_mutate(child, gen, params, n):
    if gen.random() >= params.mutation_prob:
        return child
    if params.mutation_kind == "swap":
        i, j = sorted(int(x) + 1 for x in gen.choice(n, size=2, replace=False))
        return mutate_swap(child, i, j)
    return mutate_adjacent_swap(child, int(gen.integers(1, n)))


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
    """
    t0 = time.perf_counter()
    source, destination = int(source), int(destination)
    dparams = DecodeParams.for_network(network)
    population, fits, paths = draw_population(network, params.pop_size, source, destination,
                                              dparams, make_rng(seed, GA_INIT))

    best = first_max(fits)
    best_fitness, best_path = fits[best], paths[best]
    trace = [(0, fits[best])]
    n = network.n_nodes

    for k in range(1, params.kmax + 1):
        sel_gen = make_rng(seed, GA_SELECT, k)
        op_gen = make_rng(seed, GA_OPS, k)
        n_children = params.pop_size - (1 if params.elitism else 0)
        pairs = _roulette_pairs(sel_gen, fits, (n_children + 1) // 2)

        children = []
        for i, j in pairs:
            pa, pb = population[i], population[j]
            if op_gen.random() < params.crossover_prob:
                if params.crossover_kind == "one_point":
                    cut = int(op_gen.integers(1, n + 1))
                    ca, cb = crossover_one_point(pa, pb, cut)
                else:
                    lo, hi = sorted(int(x) for x in op_gen.integers(1, n + 1, size=2))
                    ca, cb = crossover_two_point(pa, pb, lo, hi)
            else:
                ca, cb = pa.copy(), pb.copy()
            children.append(_maybe_mutate(ca, op_gen, params, n))
            children.append(_maybe_mutate(cb, op_gen, params, n))
        children = children[:n_children]

        elite = [population[first_max(fits)].copy()] if params.elitism else []
        population = elite + children
        fits, paths = evaluate(network, population, source, destination, dparams)

        gen_best = first_max(fits)
        trace.append((k, fits[gen_best]))
        if fits[gen_best] > best_fitness:
            best_fitness, best_path = fits[gen_best], paths[gen_best]

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return GaResult(path=best_path, fitness=best_fitness, hops=best_path.hop_count,
                    generations=params.kmax, trace=trace, wall_ms=wall_ms)
