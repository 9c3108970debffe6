import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmroute
from swarmroute import Network
from swarmroute.cli import main

from conftest import mask_times


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_emits_valid_network_json(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--nodes", "12", "--seed", "3")
        assert code == 0
        net = Network.from_json(json.loads(out))
        assert net.n_nodes == 12
        assert net.seed == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "net.json"
        code, out, _ = run_cli(capsys, "generate", "--nodes", "8", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["pn"] == 8

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--seed", "-4")
        assert code == 2
        assert "seed" in err


class TestRunCommands:
    def test_run_pso_json(self, capsys):
        code, out, _ = run_cli(capsys, "run-pso", "--nodes", "12", "--seed", "2",
                               "--iterations", "10", "--particles", "8")
        assert code == 0
        data = json.loads(out)
        assert data["path"][0] == 0 and data["path"][-1] == 11
        assert data["hops"] == len(data["path"]) - 1
        assert 0.0 < data["fitness"] <= 1.0
        assert len(data["trace"]) == 11

    def test_run_ga_json(self, capsys):
        code, out, _ = run_cli(capsys, "run-ga", "--nodes", "12", "--seed", "2",
                               "--iterations", "10", "--population", "8",
                               "--crossover", "2pt", "--mutation", "adjswap")
        assert code == 0
        data = json.loads(out)
        assert data["generations"] == 10
        assert data["path"][0] == 0 and data["path"][-1] == 11

    def test_same_endpoints_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "run-pso", "--nodes", "8", "--source", "2",
                               "--dest", "2")
        assert code == 2 and "destination" in err

    def test_no_path_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "run-pso", "--nodes", "8",
                               "--intra-density", "0", "--inter-density", "0",
                               "--no-ensure-connected")
        assert code == 3
        assert "no path" in err

    def test_dest_out_of_range_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "run-ga", "--nodes", "8", "--dest", "9")
        assert code == 2


class TestCompare:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--nodes", "12", "--budgets", "3-5",
                                 "--particles", "6", "--population", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "budget,trial,pso_fitness,ga_fitness,pso_hops,ga_hops,pso_ms,ga_ms"
        assert len(lines) == 4
        assert "verdicts:" in err

    def test_json_format_and_budget_list(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--nodes", "12", "--budgets", "3,5",
                               "--particles", "6", "--population", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [r["budget"] for r in data["records"]] == [3, 5]
        assert set(data["verdicts"]) == {"pso_mean_fitness_ge_ga", "pso_mean_ms_le_ga"}

    def test_trials_multiply_records(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--nodes", "12", "--budgets", "3",
                               "--trials", "2", "--particles", "6", "--population", "6")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_bad_budgets_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--nodes", "12", "--budgets", "0")
        assert code == 2


class TestOracle:
    def test_reports_best_path(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--nodes", "8", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        assert data["path"][0] == 0 and data["path"][-1] == 7
        assert data["hops"] == len(data["path"]) - 1

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--nodes", "16")
        assert code == 2
        assert "cap" in err


class TestDeterminism:
    CASES = [
        ("generate", "--nodes", "12", "--seed", "9"),
        ("run-pso", "--nodes", "12", "--seed", "9", "--iterations", "8", "--particles", "6"),
        ("run-ga", "--nodes", "12", "--seed", "9", "--iterations", "8", "--population", "6"),
        ("compare", "--nodes", "12", "--seed", "9", "--budgets", "3-4",
         "--particles", "6", "--population", "6"),
        ("compare", "--nodes", "12", "--seed", "9", "--budgets", "3-4",
         "--particles", "6", "--population", "6", "--format", "json"),
        ("oracle", "--nodes", "10", "--seed", "9"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: " ".join(c[:1] + c[-2:]))
    def test_repeat_runs_byte_identical_after_time_mask(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert mask_times(first) == mask_times(second)


def test_console_entry_point_runs():
    # The child imports swarmroute from the same source tree as this test.
    src = str(Path(swarmroute.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited] if inherited else [src])}
    proc = subprocess.run([sys.executable, "-m", "swarmroute", "generate", "--nodes", "8"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pn"] == 8


@pytest.mark.parametrize("argv", [
    ("generate", "--bandwidth-min", "nan"),
    ("generate", "--bandwidth-max", "inf"),
    ("compare", "--nodes", "12", "--budgets", "3", "--particles", "4", "--population", "4",
     "--bandwidth-min", "1e308", "--bandwidth-max", "1.7e308"),
], ids=["min-nan", "max-inf", "path-sum-overflow"])
def test_unusable_bandwidth_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target,argv", [
    ("_parse_budgets", ("compare", "--budgets", "1-10000000000")),
    ("build_network", ("generate", "--nodes", "200000")),
], ids=["huge-budget-range", "huge-network"])
def test_out_of_memory_exit_2(capsys, monkeypatch, target, argv):
    # the patched function fails as the real one would on these sizes, before
    # anything is allocated
    monkeypatch.setattr(f"swarmroute.cli.{target}", _out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: not enough memory for the requested sizes\n"


# ---- argv fuzzing: every input either works or exits 2/3 with a message ----

ODD_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e308", "1.7e308", "-1e308", "5e-324", "abc"]
ODD_INTS = ["-1", "-5", "0", "abc", "1.5", str(10**30)]

# (usual values, odd values) per flag. Sizes stay small (nodes <= 12,
# budgets <= 3, population <= 6) so every example runs in milliseconds.
FLAG_VALUES = {
    "--nodes": (["4", "8", "12"], ["-3", "0", "3", "abc", "nan"]),
    "--iterations": (["0", "1", "3"], ["-1", "x"]),
    "--particles": (["2", "6"], ["-1", "1"]),
    "--population": (["2", "6"], ["0", "1"]),
    "--budgets": (["1", "3", "1-3", "2,3"], ["0", "3-1", "-1", "", "a-b"]),
    "--trials": (["1", "2"], ["-1", "0"]),
    "--seed": (["0", "3", "7", str(10**30)], ODD_INTS),
    "--source": (["0", "1"], ["11", "12"] + ODD_INTS),
    "--dest": (["3", "7"], ["0", "11"] + ODD_INTS),
    "--cap": (["4", "12"], ["-1"] + ODD_INTS),
    "--intra-density": (["0", "0.3", "0.6", "1"], ["2"] + ODD_FLOATS),
    "--inter-density": (["0", "0.15", "1"], ODD_FLOATS),
    "--bandwidth-min": (["1", "0.5", "1e-300"], ["50"] + ODD_FLOATS),
    "--bandwidth-max": (["100", "1e300"], ["1"] + ODD_FLOATS),
    "--crossover-prob": (["0", "0.8", "1"], ODD_FLOATS),
    "--mutation-prob": (["0", "0.1", "1"], ODD_FLOATS),
}
SWITCHES = ["--no-ensure-connected", "--dynamic-bandwidth", "--fixed-topology",
            "--no-elitism", "--format=json", "--crossover=2pt", "--mutation=adjswap"]
COMMAND_FLAGS = {
    "generate": set(),
    "run-pso": {"--source", "--dest", "--iterations", "--particles", "--dynamic-bandwidth"},
    "run-ga": {"--source", "--dest", "--iterations", "--population", "--crossover-prob",
               "--mutation-prob", "--no-elitism", "--crossover=2pt", "--mutation=adjswap"},
    "compare": {"--source", "--dest", "--budgets", "--trials", "--particles", "--population",
                "--crossover-prob", "--mutation-prob", "--no-elitism", "--crossover=2pt",
                "--mutation=adjswap", "--dynamic-bandwidth", "--fixed-topology",
                "--format=json"},
    "oracle": {"--source", "--dest", "--cap"},
}
NETWORK_FLAGS = {"--seed", "--intra-density", "--inter-density", "--bandwidth-min",
                 "--bandwidth-max", "--no-ensure-connected"}
# Without these a command would fall back to a large default size.
REQUIRED_SIZES = {"run-pso": ["--iterations", "--particles"],
                  "run-ga": ["--iterations", "--population"],
                  "compare": ["--budgets", "--particles", "--population"]}


@st.composite
def cli_argv(draw, out_dir):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    allowed = COMMAND_FLAGS[command] | NETWORK_FLAGS
    required = ["--nodes"] + REQUIRED_SIZES.get(command, [])
    optional = sorted(allowed & FLAG_VALUES.keys() - set(required))
    flags = required + [f for f in optional if draw(st.booleans())]
    # At most one flag gets an odd value, so that value reaches its own check.
    odd_flag = draw(st.sampled_from([None] + flags))
    argv = [command]
    for flag in flags:
        usual, odd = FLAG_VALUES[flag]
        argv += [flag, draw(st.sampled_from(odd if flag == odd_flag else usual))]
    argv += [s for s in SWITCHES if s in allowed and draw(st.booleans())]
    out = draw(st.sampled_from([None, "missing", "file"]))
    if out == "missing":
        argv += ["--out", "/nonexistent-dir/out.txt"]
    elif out == "file":
        argv += ["--out", str(out_dir / "out.txt")]
    return argv


def test_fuzzed_argv_never_tracebacks(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cli_argv(out_dir))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects malformed flags with usage text
                code, err = exc.code, None
        assert code in (0, 2, 3), argv
        if err is not None:
            assert "Traceback" not in err.getvalue()
            if code != 0:  # exactly one line saying what is wrong
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        # every fitness a run prints lies in (0, 1]
        for value in re.findall(r'"(?:pso_|ga_)?fitness": ([^,\n]+)', out.getvalue()):
            assert 0.0 < float(value) <= 1.0, argv

    check()
