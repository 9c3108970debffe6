import math

import numpy as np
import pytest

from swarmroute import (DecodeParams, InvalidPath, Network, NoPathFound, Path, PsoParams,
                        build_network, init_swarm, path_fitness, run_pso)
from swarmroute.encoding import evaluate
from swarmroute.pso import Particle, Swarm, step
from swarmroute.topology import perturb_bandwidths

from conftest import assert_valid_path, fitness_oracle


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
        fits, _ = evaluate(net, np.zeros((1, 11)), 0, 10, DecodeParams.for_network(net))
        assert fits == [fit]

    def test_zero_link_path_rejected(self, diamond_net):
        with pytest.raises(InvalidPath):
            path_fitness(diamond_net, Path((0,)))

    def test_missing_link_rejected(self, diamond_net):
        with pytest.raises(InvalidPath):
            path_fitness(diamond_net, Path((0, 3)))

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
        assert len(swarm.particles) == 2
        for p in swarm.particles:
            assert_valid_path(diamond_net, p.pbest_path, 0, 3)
            assert np.all(p.velocity == 0.0)
            assert np.array_equal(p.position, p.pbest_position)
        assert swarm.gbest_fitness == max(p.pbest_fitness for p in swarm.particles)

    def test_deterministic(self, small_net):
        params = PsoParams(n_particles=8, iterations=1)
        a = init_swarm(small_net, 0, 11, params, seed=5)
        b = init_swarm(small_net, 0, 11, params, seed=5)
        for pa, pb in zip(a.particles, b.particles):
            assert pa.position.tobytes() == pb.position.tobytes()
            assert pa.pbest_fitness == pb.pbest_fitness
            assert pa.pbest_path == pb.pbest_path
        assert a.gbest_fitness == b.gbest_fitness
        assert a.gbest_path == b.gbest_path

    def test_forty_particles_all_valid(self):
        net = build_network(21, seed=17)
        swarm = init_swarm(net, 0, 20, PsoParams(n_particles=40, iterations=1), seed=3)
        assert len(swarm.particles) == 40
        for p in swarm.particles:
            assert_valid_path(net, p.pbest_path, 0, 20)

    def test_no_path_raises(self):
        net = Network.from_links(4, [(0, 1)], bandwidth_range=(1.0, 1.0))
        with pytest.raises(NoPathFound):
            init_swarm(net, 0, 3, PsoParams(n_particles=2, iterations=1), seed=0)


class TestStep:
    def test_zero_coefficients_freeze_swarm(self, diamond_net):
        params = PsoParams(n_particles=4, iterations=1, inertia=0.0, cognitive=0.0, social=0.0)
        swarm = init_swarm(diamond_net, 0, 3, params, seed=2)
        before = [p.position.copy() for p in swarm.particles]
        fit_before = [p.pbest_fitness for p in swarm.particles]
        after = step(swarm, diamond_net, seed=2)
        for i, p in enumerate(after.particles):
            assert np.array_equal(p.position, before[i])
            assert np.all(p.velocity == 0.0)
            assert p.pbest_fitness == fit_before[i]
        assert after.gbest_fitness == swarm.gbest_fitness

    def test_lone_particle_at_its_best_does_not_move(self, diamond_net):
        params = PsoParams(n_particles=2, iterations=1, inertia=0.0,
                           cognitive=2.0, social=2.0)
        swarm = init_swarm(diamond_net, 0, 3, params, seed=4)
        lone = Swarm(particles=[swarm.particles[0]],
                     gbest_position=swarm.particles[0].position.copy(),
                     gbest_fitness=swarm.particles[0].pbest_fitness,
                     gbest_path=swarm.particles[0].pbest_path,
                     params=params, iteration=0, source=0, destination=3,
                     decode_params=swarm.decode_params)
        after = step(lone, diamond_net, seed=4)
        assert np.all(after.particles[0].velocity == 0.0)
        assert np.array_equal(after.particles[0].position, lone.particles[0].position)

    def test_velocity_clamped_and_gbest_monotone(self):
        net = build_network(12, seed=1)
        params = PsoParams(n_particles=10, iterations=1, v_max=0.5)
        swarm = init_swarm(net, 0, 11, params, seed=1)
        last = swarm.gbest_fitness
        for _ in range(30):
            swarm = step(swarm, net, seed=1)
            for p in swarm.particles:
                assert np.all(np.abs(p.velocity) <= 0.5 + 1e-15)
            assert swarm.gbest_fitness >= last
            last = swarm.gbest_fitness

    def test_pbest_never_decreases(self):
        net = build_network(12, seed=6)
        swarm = init_swarm(net, 0, 11, PsoParams(n_particles=10, iterations=1), seed=6)
        prev = [p.pbest_fitness for p in swarm.particles]
        for _ in range(25):
            swarm = step(swarm, net, seed=6)
            now = [p.pbest_fitness for p in swarm.particles]
            assert all(a >= b for a, b in zip(now, prev))
            prev = now

    def test_input_swarm_untouched(self, small_net):
        swarm = init_swarm(small_net, 0, 11, PsoParams(n_particles=4, iterations=1), seed=9)
        pos = [p.position.tobytes() for p in swarm.particles]
        vel = [p.velocity.tobytes() for p in swarm.particles]
        step(swarm, small_net, seed=9)
        assert [p.position.tobytes() for p in swarm.particles] == pos
        assert [p.velocity.tobytes() for p in swarm.particles] == vel
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
        with pytest.raises(ValueError):
            PsoParams(**kwargs)
