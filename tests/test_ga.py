import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmroute import (GaParams, InvalidConfig, brute_force_best, build_network,
                        crossover_one_point, crossover_two_point, mutate_adjacent_swap,
                        mutate_swap, path_fitness, run_ga)
from swarmroute.ga import InvalidCutPoints, InvalidIndex, LengthMismatch, _roulette
from swarmroute.rng import GA_SELECT, make_rng

from conftest import (assert_valid_path, draw_far_endpoints, draw_network, optimizer_outcome,
                      reference_run_ga)

P1 = [1, 2, 3, 4, 5, 6, 7, 8]
P2 = [1, 1, 3, 3, 4, 5, 7, 8]


def genes(generator):
    return st.lists(generator, min_size=2, max_size=32)


class TestCrossoverOnePoint:
    def test_tail_exchange_at_cut_five(self):
        c1, c2 = crossover_one_point(P1, P2, 5)
        assert c1.tolist() == [1, 2, 3, 4, 4, 5, 7, 8]
        assert c2.tolist() == [1, 1, 3, 3, 5, 6, 7, 8]

    def test_cut_one_swaps_parents(self):
        c1, c2 = crossover_one_point(P1, P2, 1)
        assert c1.tolist() == P2
        assert c2.tolist() == P1

    def test_cut_at_length_trades_last_gene(self):
        c1, c2 = crossover_one_point(P1, P2, 8)
        assert c1.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]  # P2's last gene equals P1's
        assert c2.tolist() == [1, 1, 3, 3, 4, 5, 7, 8]
        c1, c2 = crossover_one_point([1, 2, 3, 4], [9, 9, 9, 9], 4)
        assert c1.tolist() == [1, 2, 3, 9]
        assert c2.tolist() == [9, 9, 9, 4]

    def test_single_gene_exchange_mode(self):
        c1, c2 = crossover_one_point(P1, P2, 5, single_gene_exchange=True)
        assert c1.tolist() == [1, 2, 3, 4, 4, 6, 7, 8]
        assert c2.tolist() == [1, 1, 3, 3, 5, 5, 7, 8]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            crossover_one_point([1, 2, 3], [1, 2], 1)

    @pytest.mark.parametrize("k", [0, 9])
    def test_cut_out_of_range(self, k):
        with pytest.raises(InvalidCutPoints):
            crossover_one_point(P1, P2, k)


class TestCrossoverTwoPoint:
    def test_segment_exchange_golden(self):
        c1, c2 = crossover_two_point(P1, P2, 4, 6)
        assert c2.tolist() == [1, 1, 3, 4, 5, 6, 7, 8]
        assert c1.tolist() == [1, 2, 3, 3, 4, 5, 7, 8]

    def test_full_segment_swaps_parents(self):
        c1, c2 = crossover_two_point(P1, P2, 1, 8)
        assert c1.tolist() == P2
        assert c2.tolist() == P1

    def test_inverted_cuts_rejected(self):
        with pytest.raises(InvalidCutPoints):
            crossover_two_point(P1, P2, 6, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidCutPoints):
            crossover_two_point(P1, P2, 0, 4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            crossover_two_point([1, 2], [1, 2, 3], 1, 2)


class TestMutations:
    def test_swap_golden(self):
        assert mutate_swap(P1, 3, 6).tolist() == [1, 2, 6, 4, 5, 3, 7, 8]

    def test_adjacent_swap_golden(self):
        assert mutate_adjacent_swap(P1, 6).tolist() == [1, 2, 3, 4, 5, 7, 6, 8]

    def test_swap_two_element(self):
        assert mutate_swap(["a", "b"], 1, 2).tolist() == ["b", "a"]

    def test_adjacent_first_position(self):
        assert mutate_adjacent_swap([1, 2, 3], 1).tolist() == [2, 1, 3]

    def test_swap_is_involution(self):
        twice = mutate_swap(mutate_swap(P1, 2, 7), 2, 7)
        assert twice.tolist() == P1

    def test_adjacent_swap_is_involution(self):
        twice = mutate_adjacent_swap(mutate_adjacent_swap(P1, 4), 4)
        assert twice.tolist() == P1

    @pytest.mark.parametrize("i,j", [(0, 3), (3, 3), (5, 2), (1, 9)])
    def test_swap_bad_indices(self, i, j):
        with pytest.raises(InvalidIndex):
            mutate_swap(P1, i, j)

    @pytest.mark.parametrize("j", [0, 8, 9])
    def test_adjacent_bad_index(self, j):
        with pytest.raises(InvalidIndex):
            mutate_adjacent_swap(P1, j)


class TestOperatorProperties:
    @given(genes(st.floats(allow_nan=False, allow_infinity=False)), st.data())
    @settings(max_examples=200)
    def test_mutations_preserve_gene_multiset(self, gene_list, data):
        arr = np.array(gene_list)
        n = arr.size
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
        swapped = mutate_swap(arr, i, j)
        assert sorted(swapped.tolist()) == sorted(gene_list)
        adj = mutate_adjacent_swap(arr, data.draw(st.integers(1, n - 1)))
        assert sorted(adj.tolist()) == sorted(gene_list)

    @given(st.integers(2, 32), st.data())
    @settings(max_examples=200)
    def test_crossover_children_positionally_parent_sourced(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = rng.random(n)
        b = rng.random(n)
        if data.draw(st.booleans()):
            k = data.draw(st.integers(1, n))
            kids = crossover_one_point(a, b, k)
        else:
            j = data.draw(st.integers(1, n))
            k = data.draw(st.integers(j, n))
            kids = crossover_two_point(a, b, j, k)
        for kid in kids:
            for pos in range(n):
                assert kid[pos] == a[pos] or kid[pos] == b[pos]


def select_parents(fitnesses, seed, n_pairs):
    """Roulette-wheel parent index pairs, drawn as run_ga draws them."""
    idx = _roulette(make_rng(seed, GA_SELECT), fitnesses, n_pairs).tolist()
    return list(zip(idx[0::2], idx[1::2]))


class TestSelectParents:
    def test_all_mass_on_one_chromosome(self):
        pairs = select_parents([0, 0, 1.0, 0, 0], seed=1, n_pairs=200)
        assert len(pairs) == 200
        assert all(pair == (2, 2) for pair in pairs)

    def test_even_split_frequencies(self):
        pairs = select_parents([1.0, 1.0], seed=7, n_pairs=5000)
        draws = [i for pair in pairs for i in pair]
        freq = draws.count(0) / len(draws)
        assert abs(freq - 0.5) < 0.02

    def test_deterministic(self):
        fits = [0.1, 0.5, 0.2, 0.9, 0.4, 0.3]
        assert select_parents(fits, seed=3, n_pairs=3) == select_parents(fits, seed=3, n_pairs=3)

    def test_all_zero_falls_back_to_uniform(self):
        pairs = select_parents([0.0] * 4, seed=5, n_pairs=2000)
        draws = [i for pair in pairs for i in pair]
        for idx in range(4):
            assert abs(draws.count(idx) / len(draws) - 0.25) < 0.05

    def test_negative_fitness_rejected(self):
        with pytest.raises(ValueError):
            select_parents([0.5, -0.1], seed=0, n_pairs=1)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select_parents([], seed=0, n_pairs=1)


class TestRunGa:
    def test_kmax_zero_reports_initial_best(self, small_net):
        params = GaParams(pop_size=8, kmax=0)
        result = run_ga(small_net, 0, 11, params, seed=2)
        assert result.generations == 0
        assert len(result.trace) == 1
        assert result.trace[0][1] == result.fitness
        assert_valid_path(small_net, result.path, 0, 11)

    def test_no_operators_keeps_best_constant(self, small_net):
        params = GaParams(pop_size=10, kmax=15, crossover_prob=0.0, mutation_prob=0.0,
                          elitism=True)
        result = run_ga(small_net, 0, 11, params, seed=8)
        values = [fit for _, fit in result.trace]
        assert all(v == values[0] for v in values)

    def test_diamond_finds_better_route(self, diamond_net):
        result = run_ga(diamond_net, 0, 3, GaParams(pop_size=20, kmax=50), seed=0)
        assert result.path.nodes == (0, 2, 3)
        assert result.fitness == pytest.approx(0.6)

    def test_deterministic_except_wall_time(self, small_net):
        params = GaParams(pop_size=10, kmax=20)
        a = run_ga(small_net, 0, 11, params, seed=4)
        b = run_ga(small_net, 0, 11, params, seed=4)
        assert a.path == b.path and a.fitness == b.fitness and a.trace == b.trace

    def test_elitism_trace_monotone(self):
        for seed in range(5):
            net = build_network(21, seed=seed)
            result = run_ga(net, 0, 20, GaParams(pop_size=15, kmax=25), seed=seed)
            values = [fit for _, fit in result.trace]
            assert values == sorted(values)

    def test_two_point_and_adjacent_variants_run(self, small_net):
        params = GaParams(pop_size=8, kmax=10, crossover_kind="two_point",
                          mutation_kind="adjacent_swap")
        result = run_ga(small_net, 0, 11, params, seed=6)
        assert_valid_path(small_net, result.path, 0, 11)

    def test_never_beats_brute_force(self):
        for seed in range(10):
            net = build_network(10, seed=seed + 50)
            _, best = brute_force_best(net, 0, 9)
            result = run_ga(net, 0, 9, GaParams(pop_size=15, kmax=25), seed=seed)
            assert result.fitness <= best

    def test_shares_fitness_function_with_pso(self, diamond_net):
        import swarmroute.encoding as encoding
        import swarmroute.ga as ga
        import swarmroute.pso as pso
        assert ga.evaluate is pso.evaluate is encoding.evaluate
        assert ga.draw_population is pso.draw_population
        assert pso.path_fitness is encoding.path_fitness

    def test_json_shape(self, small_net):
        result = run_ga(small_net, 0, 11, GaParams(pop_size=5, kmax=4), seed=1)
        data = result.to_json()
        assert list(data) == ["path", "fitness", "hops", "generations", "trace", "wall_ms"]
        assert data["hops"] == len(data["path"]) - 1
        assert [t["iter"] for t in data["trace"]] == list(range(5))


class TestGaParams:
    @pytest.mark.parametrize("kwargs", [
        {"pop_size": 1}, {"kmax": -1}, {"crossover_kind": "uniform"},
        {"mutation_kind": "scramble"}, {"crossover_prob": 1.5}, {"mutation_prob": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            GaParams(**kwargs)


@st.composite
def ga_cases(draw, crossover_kind, mutation_kind, elitism):
    """A 4-32 node network, endpoints from `draw_far_endpoints`, 2-12 chromosomes, 0-6
    generations and operator probabilities up to 1."""
    n = draw(st.integers(4, 32))
    net = draw_network(draw, n)
    source, destination = draw_far_endpoints(draw, net)
    params = GaParams(pop_size=draw(st.integers(2, 12)), kmax=draw(st.integers(0, 6)),
                      crossover_kind=crossover_kind, mutation_kind=mutation_kind,
                      elitism=elitism,
                      crossover_prob=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
                      mutation_prob=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    return net, source, destination, params, draw(st.integers(0, 1_000))


class TestMatchesReference:
    """The matrix-form GA against the per-chromosome loop it replaced."""

    @pytest.mark.parametrize("elitism", [True, False])
    @pytest.mark.parametrize("mutation_kind", ["swap", "adjacent_swap"])
    @pytest.mark.parametrize("crossover_kind", ["one_point", "two_point"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_path_fitness_and_trace_bits(self, crossover_kind, mutation_kind, elitism,
                                              data):
        case = data.draw(ga_cases(crossover_kind, mutation_kind, elitism))
        # same result, and the same population bytes at every step
        assert optimizer_outcome(run_ga, "evaluate", *case) == \
            optimizer_outcome(reference_run_ga, "reference_evaluate", *case)
