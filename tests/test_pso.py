import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmroute import (DecodeParams, InvalidConfig, InvalidPath, Network, NoPathFound, Path,
                        PsoParams, build_network, init_swarm, path_fitness, run_pso)
from swarmroute.encoding import evaluate, route_path
from swarmroute.pso import Swarm, step
from swarmroute.topology import perturb_bandwidths

from conftest import (assert_valid_path, draw_far_endpoints, draw_network, fitness_oracle,
                      optimizer_outcome, reference_run_pso)


class TestPathFitness:
    def test_single_link_scores_exactly_one(self):
        net = Network.from_links(4, [(0, 1, 37.2)])
        assert path_fitness(net, Path((0, 1))) == 1.0

    def test_direct_substitution(self):
        net = Network.from_links(4, [(0, 1, 10.0), (1, 2, 30.0), (2, 3, 10.0)])
        assert path_fitness(net, Path((0, 1, 2, 3))) == pytest.approx(0.2, abs=0)

    def test_adds_bandwidths_left_to_right(self):
        # 2**53 + 1 rounds back to 2**53 eight times over; a compensated sum
        # (Python 3.12+ `sum`) would keep all eight and give another float
        bws = [1.0, 2.0 ** 53] + [1.0] * 8
        net = Network.from_links(11, [(u, u + 1, bw) for u, bw in enumerate(bws)])
        fit = path_fitness(net, Path(tuple(range(11))))
        assert fit == 1.0 / 2.0 ** 53
        assert fit != 1.0 / math.fsum(bws)
        fits, _, _ = evaluate(net, np.zeros((1, 11)), 0, 10, DecodeParams.for_network(net))
        assert fits.tolist() == [fit]

    def test_zero_link_path_rejected(self, diamond_net):
        with pytest.raises(InvalidPath):
            path_fitness(diamond_net, Path((0,)))

    # -1 would index node 3 of the matrix, which node 1 links to
    @pytest.mark.parametrize("nodes", [(0, 3), (0, -1), (1, -1), (0, 4)],
                             ids=["unlinked", "negative-node", "negative-wraps-to-link",
                                  "node-past-end"])
    def test_missing_link_rejected(self, diamond_net, nodes):
        with pytest.raises(InvalidPath):
            path_fitness(diamond_net, Path(nodes))

    def test_matches_oracle_on_random_paths(self):
        from swarmroute import decode, random_priorities
        checked = 0
        for seed in range(120):
            net = build_network(16, seed=seed)
            pri = random_priorities(16, seed + 300)
            try:
                path = decode(net, pri, 0, 15)
            except Exception:
                continue
            got = path_fitness(net, path)
            assert got == pytest.approx(fitness_oracle(net, path.nodes), abs=1e-12)
            assert 0.0 < got <= 1.0
            checked += 1
        assert checked > 60


class TestInitSwarm:
    def test_two_particles_on_diamond(self, diamond_net):
        swarm = init_swarm(diamond_net, 0, 3, PsoParams(n_particles=2, iterations=1), seed=0)
        assert swarm.positions.shape == swarm.velocities.shape == (2, 4)
        assert swarm.pbest_fitness.shape == (2,)
        for route in swarm.pbest_routes:
            assert_valid_path(diamond_net, route_path(route), 0, 3)
        assert np.all(swarm.velocities == 0.0)
        assert np.array_equal(swarm.positions, swarm.pbest_positions)
        assert swarm.gbest_fitness == swarm.pbest_fitness.max()

    def test_deterministic(self, small_net):
        params = PsoParams(n_particles=8, iterations=1)
        a = init_swarm(small_net, 0, 11, params, seed=5)
        b = init_swarm(small_net, 0, 11, params, seed=5)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.pbest_fitness.tobytes() == b.pbest_fitness.tobytes()
        assert np.array_equal(a.pbest_routes, b.pbest_routes)
        assert a.gbest_fitness == b.gbest_fitness
        assert a.gbest_path == b.gbest_path

    def test_forty_particles_all_valid(self):
        net = build_network(21, seed=17)
        swarm = init_swarm(net, 0, 20, PsoParams(n_particles=40, iterations=1), seed=3)
        assert swarm.positions.shape == (40, 21)
        for route in swarm.pbest_routes:
            assert_valid_path(net, route_path(route), 0, 20)

    def test_no_path_raises(self):
        net = Network.from_links(4, [(0, 1)], bandwidth_range=(1.0, 1.0))
        with pytest.raises(NoPathFound):
            init_swarm(net, 0, 3, PsoParams(n_particles=2, iterations=1), seed=0)


class TestStep:
    def test_zero_coefficients_freeze_swarm(self, diamond_net):
        params = PsoParams(n_particles=4, iterations=1, inertia=0.0, cognitive=0.0, social=0.0)
        swarm = init_swarm(diamond_net, 0, 3, params, seed=2)
        after = step(swarm, diamond_net, seed=2)
        assert np.array_equal(after.positions, swarm.positions)
        assert np.all(after.velocities == 0.0)
        assert np.array_equal(after.pbest_fitness, swarm.pbest_fitness)
        assert after.gbest_fitness == swarm.gbest_fitness

    def test_lone_particle_at_its_best_does_not_move(self, diamond_net):
        params = PsoParams(n_particles=2, iterations=1, inertia=0.0,
                           cognitive=2.0, social=2.0)
        swarm = init_swarm(diamond_net, 0, 3, params, seed=4)
        lone = Swarm(positions=swarm.positions[:1], velocities=swarm.velocities[:1],
                     pbest_positions=swarm.pbest_positions[:1],
                     pbest_fitness=swarm.pbest_fitness[:1], pbest_routes=swarm.pbest_routes[:1],
                     gbest_position=swarm.positions[0].copy(),
                     gbest_fitness=float(swarm.pbest_fitness[0]),
                     gbest_path=route_path(swarm.pbest_routes[0]),
                     params=params, iteration=0, source=0, destination=3,
                     decode_params=swarm.decode_params)
        after = step(lone, diamond_net, seed=4)
        assert np.all(after.velocities == 0.0)
        assert np.array_equal(after.positions, lone.positions)

    def test_velocity_clamped_and_gbest_monotone(self):
        net = build_network(12, seed=1)
        params = PsoParams(n_particles=10, iterations=1, v_max=0.5)
        swarm = init_swarm(net, 0, 11, params, seed=1)
        last = swarm.gbest_fitness
        for _ in range(30):
            swarm = step(swarm, net, seed=1)
            assert np.all(np.abs(swarm.velocities) <= 0.5 + 1e-15)
            assert swarm.gbest_fitness >= last
            last = swarm.gbest_fitness

    def test_pbest_never_decreases(self):
        net = build_network(12, seed=6)
        swarm = init_swarm(net, 0, 11, PsoParams(n_particles=10, iterations=1), seed=6)
        prev = swarm.pbest_fitness
        for _ in range(25):
            swarm = step(swarm, net, seed=6)
            assert np.all(swarm.pbest_fitness >= prev)
            for route in swarm.pbest_routes:
                assert_valid_path(net, route_path(route), 0, 11)
            prev = swarm.pbest_fitness

    def test_input_swarm_untouched(self, small_net):
        swarm = init_swarm(small_net, 0, 11, PsoParams(n_particles=4, iterations=1), seed=9)
        before = {name: getattr(swarm, name).tobytes()
                  for name in ("positions", "velocities", "pbest_positions", "pbest_fitness",
                               "pbest_routes", "gbest_position")}
        step(swarm, small_net, seed=9)
        assert {name: getattr(swarm, name).tobytes() for name in before} == before
        assert swarm.iteration == 0


class TestRunPso:
    def test_one_iteration_keeps_best_initial(self, small_net):
        params = PsoParams(n_particles=10, iterations=1)
        swarm = init_swarm(small_net, 0, 11, params, seed=12)
        result = run_pso(small_net, 0, 11, params, seed=12)
        assert result.fitness == swarm.gbest_fitness
        assert result.path == swarm.gbest_path
        assert result.iterations == 1
        assert len(result.trace) == 2

    def test_diamond_finds_better_route(self, diamond_net):
        result = run_pso(diamond_net, 0, 3, PsoParams(n_particles=20, iterations=50), seed=0)
        assert result.path.nodes == (0, 2, 3)
        assert result.fitness == pytest.approx(0.6)
        assert result.hops == 2

    def test_deterministic_except_wall_time(self, small_net):
        params = PsoParams(n_particles=10, iterations=20)
        a = run_pso(small_net, 0, 11, params, seed=3)
        b = run_pso(small_net, 0, 11, params, seed=3)
        assert a.path == b.path
        assert a.fitness == b.fitness
        assert a.trace == b.trace

    def test_never_beats_brute_force(self):
        from swarmroute import brute_force_best
        for seed in range(10):
            net = build_network(10, seed=seed)
            _, best = brute_force_best(net, 0, 9)
            result = run_pso(net, 0, 9, PsoParams(n_particles=15, iterations=25), seed=seed)
            assert result.fitness <= best

    def test_dynamic_mode_deterministic_and_recomputable(self):
        net = build_network(12, seed=4)
        params = PsoParams(n_particles=8, iterations=15, bandwidth_mode="dynamic")
        a = run_pso(net, 0, 11, params, seed=4)
        b = run_pso(net, 0, 11, params, seed=4)
        assert a.path == b.path and a.fitness == b.fitness and a.trace == b.trace
        final_net = perturb_bandwidths(net, 4, 15)
        assert a.fitness == path_fitness(final_net, a.path)

    def test_trace_is_monotone_static(self):
        net = build_network(21, seed=2)
        result = run_pso(net, 0, 20, PsoParams(n_particles=20, iterations=40), seed=2)
        values = [fit for _, fit in result.trace]
        assert values == sorted(values)
        assert result.fitness == values[-1]

    def test_json_shape(self, small_net):
        result = run_pso(small_net, 0, 11, PsoParams(n_particles=5, iterations=5), seed=1)
        data = result.to_json()
        assert list(data) == ["path", "fitness", "hops", "iterations", "trace", "wall_ms"]
        assert data["hops"] == len(data["path"]) - 1
        assert [t["iter"] for t in data["trace"]] == list(range(6))


class TestPsoParams:
    @pytest.mark.parametrize("kwargs", [
        {"n_particles": 1}, {"iterations": 0}, {"v_max": 0.0}, {"bandwidth_mode": "chaos"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            PsoParams(**kwargs)

    @pytest.mark.parametrize("name", ["inertia", "cognitive", "social", "v_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_rejected(self, name, value):
        # accepted once, these let a run die mid-way on non-finite priorities
        with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
            PsoParams(**{name: value})


@st.composite
def pso_cases(draw, mode):
    """A 4-32 node network (dynamic mode resamples, so only `build_network`
    ones there), endpoints from `draw_far_endpoints`, 2-12 particles and 1-6 iterations."""
    n = draw(st.integers(4, 32))
    net = draw_network(draw, n, hand_built=False if mode == "dynamic" else None)
    source, destination = draw_far_endpoints(draw, net)
    params = PsoParams(n_particles=draw(st.integers(2, 12)), iterations=draw(st.integers(1, 6)),
                       v_max=draw(st.sampled_from([0.1, 1.0, 4.0])), bandwidth_mode=mode)
    return net, source, destination, params, draw(st.integers(0, 1_000))


class TestMatchesReference:
    """The matrix-form swarm against the per-particle loop it replaced."""

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_path_fitness_and_trace_bits(self, mode, data):
        case = data.draw(pso_cases(mode))
        # same result, and the same population bytes at every step
        assert optimizer_outcome(run_pso, "evaluate", *case) == \
            optimizer_outcome(reference_run_pso, "reference_evaluate", *case)
