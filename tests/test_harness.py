import json
import statistics

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmroute import (ExperimentConfig, GaParams, InvalidConfig, Network, NoPathFound,
                        OracleTooLarge, PsoParams, brute_force_best, build_network, compare,
                        path_fitness, render_csv, render_json, run_ga, run_pso)
from swarmroute import cli
from swarmroute.harness import CSV_HEADER, trial_seed

from conftest import draw_network, fitness_oracle, reference_brute_force_best, to_nx


def tiny_config(**overrides):
    base = dict(n_nodes=12, seed=1, budgets=(3, 4), trials=1,
                pso=PsoParams(n_particles=6), ga=GaParams(pop_size=6))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBruteForceBest:
    def test_diamond_picks_higher_fitness(self, diamond_net):
        path, fitness = brute_force_best(diamond_net, 0, 3)
        assert path.nodes == (0, 2, 3)
        assert fitness == pytest.approx(0.6)

    def test_line_graph_unique_path(self, line_net):
        path, fitness = brute_force_best(line_net, 0, 3)
        assert path.nodes == (0, 1, 2, 3)
        assert fitness == pytest.approx(1 / 3)

    def test_complete_graph_prefers_direct_link(self):
        links = [(u, v, 7.0) for u in range(4) for v in range(u + 1, 4)]
        net = Network.from_links(4, links)
        path, fitness = brute_force_best(net, 0, 3)
        assert path.nodes == (0, 3)
        assert fitness == 1.0

    def test_ties_break_lexicographically(self):
        # both 2-hop routes score 0.5; (0, 1, 3) sorts first
        net = Network.from_links(4, [(0, 1, 5.0), (1, 3, 5.0), (0, 2, 5.0), (2, 3, 5.0)])
        path, _ = brute_force_best(net, 0, 3)
        assert path.nodes == (0, 1, 3)

    def test_matches_exhaustive_nx_enumeration(self):
        for seed in range(15):
            net = build_network(9, seed=seed)
            got_path, got_fit = brute_force_best(net, 0, 8)
            best = max(
                (fitness_oracle(net, tuple(nodes)), tuple(nodes))
                for nodes in nx.all_simple_paths(to_nx(net), 0, 8)
            )
            assert got_fit == pytest.approx(best[0], abs=1e-12)
            ties = [nodes for fit, nodes in
                    ((fitness_oracle(net, tuple(n)), tuple(n))
                     for n in nx.all_simple_paths(to_nx(net), 0, 8))
                    if fit == best[0]]
            assert got_path.nodes == min(ties)

    def test_cap_enforced(self):
        net = build_network(16, seed=0)
        with pytest.raises(OracleTooLarge):
            brute_force_best(net, 0, 15)
        brute_force_best(net, 0, 15, cap=16)  # explicit override works

    def test_no_path(self):
        net = Network.from_links(4, [(0, 1), (2, 3)])
        with pytest.raises(NoPathFound):
            brute_force_best(net, 0, 3)


@st.composite
def oracle_cases(draw):
    """A 4-10 node network (see `draw_network`) and random distinct
    endpoints in either id order."""
    n = draw(st.integers(4, 10))
    net = draw_network(draw, n)
    source = draw(st.integers(0, n - 1))
    destination = draw(st.integers(0, n - 1).filter(lambda d: d != source))
    return net, source, destination


def oracle_outcome(oracle, net, source, destination):
    """(path, fitness bits), or the NoPathFound message."""
    try:
        path, fitness = oracle(net, source, destination)
    except NoPathFound as exc:
        return str(exc)
    return path, fitness.hex()


class TestBruteForceMatchesReference:
    """The branch-and-bound oracle against the exhaustive enumeration."""

    @given(oracle_cases())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_reference(self, case):
        net, source, destination = case
        assert oracle_outcome(brute_force_best, net, source, destination) == \
            oracle_outcome(reference_brute_force_best, net, source, destination)

    def test_dense_n12_networks(self):
        # the oracle-n12-dense benchmark shape: route 0 to the highest non-neighbour of 0
        for seed in range(10):
            net = build_network(12, seed, 0.8, 0.3)
            destination = max(v for v in range(1, 12) if not net.has_link(0, v))
            assert oracle_outcome(brute_force_best, net, 0, destination) == \
                oracle_outcome(reference_brute_force_best, net, 0, destination)


class TestCompare:
    def test_record_grid_shape(self):
        report = compare(tiny_config(budgets=(3, 4, 5), trials=2))
        assert len(report.records) == 6
        assert [(r.budget, r.trial) for r in report.records] == \
            [(b, t) for b in (3, 4, 5) for t in range(2)]

    def test_one_budget_three_trials(self):
        report = compare(tiny_config(budgets=(5,), trials=3))
        assert len(report.records) == 3
        again = compare(tiny_config(budgets=(5,), trials=3))
        for ra, rb in zip(report.records, again.records):
            assert (ra.pso_fitness, ra.ga_fitness, ra.pso_hops, ra.ga_hops) == \
                (rb.pso_fitness, rb.ga_fitness, rb.pso_hops, rb.ga_hops)

    def test_deterministic_modulo_times(self):
        a = compare(tiny_config())
        b = compare(tiny_config())
        for ra, rb in zip(a.records, b.records):
            assert (ra.budget, ra.trial) == (rb.budget, rb.trial)
            assert ra.pso_fitness == rb.pso_fitness
            assert ra.ga_fitness == rb.ga_fitness
            assert ra.pso_hops == rb.pso_hops
            assert ra.ga_hops == rb.ga_hops

    def test_records_match_standalone_runs(self):
        config = tiny_config()
        report = compare(config)
        for record in report.records:
            seed = trial_seed(config.seed, record.budget, record.trial)
            net = build_network(config.n_nodes, seed, config.intra_density,
                                config.inter_density, True, config.b_min, config.b_max)
            from dataclasses import replace
            pso_res = run_pso(net, config.source, config.destination,
                              replace(config.pso, iterations=record.budget), seed)
            ga_res = run_ga(net, config.source, config.destination,
                            replace(config.ga, kmax=record.budget), seed)
            assert record.pso_fitness == pso_res.fitness
            assert record.ga_fitness == ga_res.fitness
            assert record.pso_hops == pso_res.path.hop_count
            assert record.ga_hops == ga_res.path.hop_count
            # reported fitness is recomputable from the reported path
            assert pso_res.fitness == path_fitness(net, pso_res.path)
            assert ga_res.fitness == path_fitness(net, ga_res.path)

    def test_aggregates_recomputable(self):
        report = compare(tiny_config(budgets=(3, 4, 5)))
        for algo in ("pso", "ga"):
            fits = [getattr(r, f"{algo}_fitness") for r in report.records]
            times = [getattr(r, f"{algo}_ms") for r in report.records]
            assert report.aggregates[algo]["mean_fitness"] == pytest.approx(
                statistics.fmean(fits), abs=1e-12)
            assert report.aggregates[algo]["median_fitness"] == pytest.approx(
                statistics.median(fits), abs=1e-12)
            assert report.aggregates[algo]["mean_ms"] == pytest.approx(
                statistics.fmean(times), abs=1e-12)

    def test_verdicts_match_aggregates(self):
        report = compare(tiny_config())
        assert report.verdicts["pso_mean_fitness_ge_ga"] == (
            report.aggregates["pso"]["mean_fitness"] >= report.aggregates["ga"]["mean_fitness"])
        assert report.verdicts["pso_mean_ms_le_ga"] == (
            report.aggregates["pso"]["mean_ms"] <= report.aggregates["ga"]["mean_ms"])

    def test_fixed_topology_reuses_one_network(self):
        config = tiny_config(fixed_topology=True, budgets=(3,), trials=1)
        report = compare(config)
        seed = trial_seed(config.seed, 3, 0)
        net = build_network(config.n_nodes, config.seed, config.intra_density,
                            config.inter_density, True, config.b_min, config.b_max)
        from dataclasses import replace
        res = run_pso(net, config.source, config.destination,
                      replace(config.pso, iterations=3), seed)
        assert report.records[0].pso_fitness == res.fitness

    def test_no_path_propagates_with_endpoints(self):
        config = tiny_config(intra_density=0.0, inter_density=0.0, ensure_connected=False)
        with pytest.raises(NoPathFound) as exc:
            compare(config)
        assert exc.value.source == config.source
        assert exc.value.destination == config.destination


class TestExperimentConfig:
    def test_destination_defaults_to_last_node(self):
        assert tiny_config().destination == 11

    @pytest.mark.parametrize("overrides", [
        {"budgets": ()}, {"budgets": (0,)}, {"trials": 0}, {"source": 0, "destination": 0},
        {"source": -1}, {"destination": 40}, {"bandwidth_mode": "wavy"},
        {"b_min": 0.0}, {"b_min": 9.0, "b_max": 1.0}, {"intra_density": 2.0},
        {"n_nodes": 3}, {"seed": -1}, {"b_max": float("inf")}, {"b_min": float("nan")},
        {"b_min": 1e308, "b_max": 1.7e308}, {"inter_density": float("nan")},
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(InvalidConfig):
            tiny_config(**overrides)


TINY_COMPARE_ARGV = ["compare", "--nodes", "12", "--seed", "1", "--budgets", "3-4",
                     "--particles", "6", "--population", "6"]


class TestEmit:
    @pytest.fixture
    def report(self):
        return compare(tiny_config())

    def test_csv_shape(self, report):
        text = render_csv(report)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "budget,trial,pso_fitness,ga_fitness,pso_hops,ga_hops,pso_ms,ga_ms"
        assert text.endswith("\n")
        assert len(lines) == len(report.records) + 2  # header + rows + trailing newline
        first = lines[1].split(",")
        assert len(first) == 8
        assert first[2].count(".") == 1 and len(first[2].split(".")[1]) == 6

    def test_json_round_trip_non_time_fields(self, report):
        parsed = json.loads(render_json(report))
        assert parsed["verdicts"] == report.verdicts
        for rec, orig in zip(parsed["records"], report.records):
            assert rec["budget"] == orig.budget
            assert rec["trial"] == orig.trial
            assert rec["pso_fitness"] == orig.pso_fitness
            assert rec["ga_fitness"] == orig.ga_fitness
            assert rec["pso_hops"] == orig.pso_hops
            assert rec["ga_hops"] == orig.ga_hops
        assert parsed["config"]["n_nodes"] == 12
        assert parsed["config"]["budgets"] == [3, 4]

    def test_emit_writes_bytes(self, report, tmp_path, capsys, monkeypatch):
        # The CLI builds the same config as tiny_config(); the stub hands back
        # the fixture's report so the written bytes can be compared exactly.
        seen = []
        monkeypatch.setattr(cli, "compare", lambda config: seen.append(config) or report)
        for fmt, render in (("csv", render_csv), ("json", render_json)):
            target = tmp_path / f"report.{fmt}"
            assert cli.main(TINY_COMPARE_ARGV + ["--format", fmt, "--out", str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == render(report).encode()
        assert seen == [report.config] * 2

    def test_emit_rejects_empty_report(self, capsys, tmp_path):
        # "3-1" (overriding the earlier --budgets) is an empty budget range;
        # the config refuses it, so no empty report is rendered or written.
        target = tmp_path / "report.csv"
        assert cli.main(TINY_COMPARE_ARGV + ["--budgets", "3-1", "--out", str(target)]) == 2
        assert "budgets" in capsys.readouterr().err
        assert not target.exists()

    def test_emit_rejects_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(TINY_COMPARE_ARGV + ["--format", "yaml"])
        assert exc.value.code == 2
        assert "yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "under-a-file"])
    def test_out_checked_before_any_cell_runs(self, where, capsys, tmp_path, monkeypatch):
        def never(config):
            raise AssertionError("compare ran although --out cannot be written")

        monkeypatch.setattr(cli, "compare", never)
        (tmp_path / "file").write_text("kept")
        target = {"missing-dir": tmp_path / "missing" / "report.csv",
                  "directory": tmp_path,
                  "under-a-file": tmp_path / "file" / "report.csv"}[where]
        assert cli.main(TINY_COMPARE_ARGV + ["--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {target}: ")
        assert (tmp_path / "file").read_text() == "kept"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("extra,code", [(["--budgets", "3-1"], 2),
                                            (["--no-ensure-connected", "--intra-density", "0",
                                              "--inter-density", "0"], 3)])
    def test_failed_run_leaves_out_file_untouched(self, extra, code, capsys, tmp_path):
        target = tmp_path / "report.csv"
        target.write_text("previous report")
        assert cli.main(TINY_COMPARE_ARGV + extra + ["--out", str(target)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert target.read_text() == "previous report"

    def test_emit_surfaces_io_failure_with_path(self, capsys):
        code = cli.main(TINY_COMPARE_ARGV + ["--out", "/nonexistent-dir/report.csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "/nonexistent-dir/report.csv" in err
