"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS line (run with -s to see
them) once all of its assertions hold. Criterion 8 additionally prints the
two directional comparison verdicts without asserting them, and criterion 7
prints how often the swarm matched the exhaustive optimum.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from swarmroute import (DeadEnd, GaParams, PsoParams, brute_force_best, build_network,
                        compare, crossover_one_point, crossover_two_point,
                        decode, mutate_adjacent_swap, mutate_swap, partition_regions,
                        path_fitness, random_priorities, render_csv, run_ga, run_pso)
from swarmroute.cli import main as cli_main
from swarmroute.harness import CSV_HEADER, ExperimentConfig
from swarmroute.pso import init_swarm, step

from conftest import assert_valid_path, fitness_oracle, mask_times


def test_c1_region_partition_golden():
    layout = partition_regions(21)
    assert layout.n_regions == 4
    assert layout.sizes == (5, 5, 5, 6)
    print("\nACCEPTANCE 1 (region partition golden): PASS")


def test_c2_operator_goldens():
    base = [1, 2, 3, 4, 5, 6, 7, 8]
    other = [1, 1, 3, 3, 4, 5, 7, 8]
    assert mutate_swap(base, 3, 6).tolist() == [1, 2, 6, 4, 5, 3, 7, 8]
    assert mutate_adjacent_swap(base, 6).tolist() == [1, 2, 3, 4, 5, 7, 6, 8]
    _, child2 = crossover_two_point(base, other, 4, 6)
    assert child2.tolist() == [1, 1, 3, 4, 5, 6, 7, 8]
    print("\nACCEPTANCE 2 (operator goldens): PASS")


def test_c3_fitness_oracle_equivalence():
    pairs = 0
    single_links = 0
    seed = 0
    while pairs < 1000:
        seed += 1
        n = 8 + (seed % 5) * 4  # 8..24 nodes
        net = build_network(n, seed=seed)
        for attempt in range(30):
            pri = random_priorities(n, seed * 100 + attempt)
            src = attempt % (n - 1)
            dst = n - 1 if src != n - 1 else 0
            try:
                path = decode(net, pri, src, dst)
            except DeadEnd:
                continue
            got = path_fitness(net, path)
            want = fitness_oracle(net, path.nodes)
            assert abs(got - want) <= 1e-12
            assert 0.0 < got <= 1.0
            if path.hop_count == 1:
                assert got == 1.0
                single_links += 1
            pairs += 1
            if pairs >= 1000:
                break
    # force a batch of explicit single-link paths through the same check
    from swarmroute import Path
    net = build_network(21, seed=77)
    for (u, v) in list(net.links)[:50]:
        direct = Path((u, v))
        assert path_fitness(net, direct) == 1.0
        single_links += 1
    assert single_links >= 50
    print(f"\nACCEPTANCE 3 (fitness oracle equivalence, {pairs} pairs): PASS")


def test_c4_path_validity_property_suite():
    t0 = time.perf_counter()
    returned = 0
    for seed in range(1000):
        net = build_network(21, seed=seed)
        pri = random_priorities(21, 10_000 + seed)
        frozen = pri.tobytes()
        try:
            path = decode(net, pri, 0, 20)
        except DeadEnd:
            path = None
        assert pri.tobytes() == frozen, "decode mutated its input priorities"
        if path is not None:
            assert_valid_path(net, path, 0, 20)
            returned += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"path-validity suite took {elapsed:.1f}s (budget 10s)"
    assert returned > 500  # the property must be exercised on real paths
    print(f"\nACCEPTANCE 4 (path validity, {returned}/1000 decodes in {elapsed:.1f}s): PASS")


def test_c5_pso_invariants():
    params = PsoParams(n_particles=40, iterations=100, bandwidth_mode="static")
    for inst in range(50):
        net = build_network(21, seed=inst)
        swarm = init_swarm(net, 0, 20, params, seed=inst)
        last = swarm.gbest_fitness
        for _ in range(100):
            swarm = step(swarm, net, seed=inst)
            assert swarm.gbest_fitness >= last, f"gbest regressed on instance {inst}"
            last = swarm.gbest_fitness
            assert np.all(np.abs(swarm.velocities) <= params.v_max)
    print("\nACCEPTANCE 5 (PSO invariants, 50 instances x 100 iterations): PASS")


def test_c6_ga_invariants():
    for inst in range(50):
        net = build_network(21, seed=1_000 + inst)
        result = run_ga(net, 0, 20, GaParams(pop_size=20, kmax=30, elitism=True),
                        seed=inst)
        values = [fit for _, fit in result.trace]
        assert values == sorted(values), f"best-fitness trace regressed on instance {inst}"

    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(2, 24))
        a, b = rng.random(n), rng.random(n)
        if rng.random() < 0.5:
            i, j = sorted(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
            mutated = mutate_swap(a, i, j)
            assert sorted(mutated.tolist()) == sorted(a.tolist())
        else:
            if rng.random() < 0.5:
                kids = crossover_one_point(a, b, int(rng.integers(1, n + 1)))
            else:
                lo, hi = sorted(int(x) for x in rng.integers(1, n + 1, size=2))
                kids = crossover_two_point(a, b, lo, hi)
            for kid in kids:
                assert all(kid[pos] == a[pos] or kid[pos] == b[pos] for pos in range(n))
    print("\nACCEPTANCE 6 (GA invariants, 50 instances + 10^4 operator checks): PASS")


def test_c7_oracle_soundness():
    attained = 0
    for inst in range(50):
        n = 8 + inst % 5  # 8..12 nodes
        net = build_network(n, seed=2_000 + inst)
        _, best = brute_force_best(net, 0, n - 1)
        pso_res = run_pso(net, 0, n - 1, PsoParams(n_particles=20, iterations=30), seed=inst)
        ga_res = run_ga(net, 0, n - 1, GaParams(pop_size=20, kmax=30), seed=inst)
        assert pso_res.fitness <= best, f"PSO exceeded the oracle on instance {inst}"
        assert ga_res.fitness <= best, f"GA exceeded the oracle on instance {inst}"
        if pso_res.fitness == best:
            attained += 1
    print(f"\nACCEPTANCE 7 (oracle soundness; PSO attained the optimum on "
          f"{attained}/50 instances): PASS")


def test_c8_experiment_shape():
    t0 = time.perf_counter()
    report = compare(ExperimentConfig(n_nodes=21, seed=5, budgets=tuple(range(5, 21)),
                                      trials=1))
    elapsed = time.perf_counter() - t0
    assert len(report.records) == 16
    text = render_csv(report)
    assert text.split("\n")[0] == CSV_HEADER
    assert len(text.strip().split("\n")) == 17
    assert elapsed < 10.0, f"16-record compare took {elapsed:.1f}s (budget 10s)"

    verdict_report = compare(ExperimentConfig(n_nodes=21, seed=6,
                                              budgets=tuple(range(5, 21)), trials=2))
    assert len(verdict_report.records) == 32  # >= 20 trial seeds behind the verdicts
    print(f"\nACCEPTANCE 8 (experiment shape, 16 records in {elapsed:.2f}s): PASS")
    print("  verdicts over 32 trial seeds (reported, not asserted): "
          f"pso_mean_fitness_ge_ga={verdict_report.verdicts['pso_mean_fitness_ge_ga']} "
          f"pso_mean_ms_le_ga={verdict_report.verdicts['pso_mean_ms_le_ga']}")


C9_ARGV = [
    ["generate", "--nodes", "12", "--seed", "4"],
    ["run-pso", "--nodes", "12", "--seed", "4", "--iterations", "10", "--particles", "8"],
    ["run-ga", "--nodes", "12", "--seed", "4", "--iterations", "10", "--population", "8"],
    ["compare", "--nodes", "12", "--seed", "4", "--budgets", "3-5",
     "--particles", "6", "--population", "6"],
    ["compare", "--nodes", "12", "--seed", "4", "--budgets", "3-5",
     "--particles", "6", "--population", "6", "--format", "json"],
    ["oracle", "--nodes", "10", "--seed", "4"],
]

# Golden outputs: masked stdout of the c9 runs plus the dynamic-bandwidth and
# GA operator variants and a dense oracle run, one file per case under
# tests/golden/. At seed 4 the single runs find the direct 0-11 link at once,
# so the variants use seed 7, where both optimizers improve on their initial
# best.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "generate": C9_ARGV[0],
    "run-pso": C9_ARGV[1],
    "run-ga": C9_ARGV[2],
    "compare": C9_ARGV[3],
    "compare+json": C9_ARGV[4],
    "oracle": C9_ARGV[5],
    "compare+dynamic+json": C9_ARGV[4] + ["--dynamic-bandwidth"],
    "run-pso+dynamic": ["run-pso", "--nodes", "12", "--seed", "7", "--iterations", "10",
                        "--particles", "8", "--dynamic-bandwidth"],
    "run-ga+2pt+adjswap+no-elitism": ["run-ga", "--nodes", "12", "--seed", "7",
                                      "--iterations", "10", "--population", "8",
                                      "--crossover", "2pt", "--mutation", "adjswap",
                                      "--no-elitism"],
    # 36 links, 10 the highest non-neighbour of 0: the optimum 0-11-10 takes two hops
    "oracle+dense": ["oracle", "--nodes", "12", "--seed", "2", "--intra-density", "0.8",
                     "--inter-density", "0.3", "--dest", "10"],
}


@pytest.mark.parametrize("argv", C9_ARGV,
                         ids=lambda argv: argv[0] + ("+json" if "json" in argv else ""))
def test_c9_subcommand_determinism(capsys, argv):
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    assert mask_times(first) == mask_times(second)
    assert first  # something was actually emitted
    print(f"\nACCEPTANCE 9 ({' '.join(argv[:1])} determinism): PASS")


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_c9_matches_golden_output(capsys, case):
    assert cli_main(list(GOLDEN_CASES[case])) == 0
    out = mask_times(capsys.readouterr().out)
    assert out == (GOLDEN_DIR / f"{case}.out").read_text()
