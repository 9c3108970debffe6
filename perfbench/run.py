"""swarmroute benchmark: PSO-vs-GA grids through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload paper-n21 --seed 1 --seconds 30 --trace 0

One process runs one workload in-process as a closed loop with a single
client: each grid cell starts only after the previous one has finished.

--trace 0  sets up several times (median reported as setup_s), then passes
           untraced over the workload's fixed rounds, once and on until
           --seconds are timed, and reports the end-to-end metrics from
           each round's and each cell's median over the passes.
--trace 1  runs the workload's fixed trace_rounds untraced, then the same
           rounds with every layer function wrapped, and reports per-layer
           metrics from the spans; the spans go to perfbench/out/. The work
           is fixed so that its counters repeat exactly; --seconds is unused.

All reported times are rescaled to a reference machine speed. The host is
shared and its speed swings by up to 2x for minutes at a time, so every
timed stretch is bracketed by a fixed yardstick workload and multiplied by
YARDSTICK_S over the yardstick's time (see yardstick.py). A change to the
library moves the rescaled times as it moves the raw ones; the raw cells/s
and the machine's speed are printed with the facts.

Every metric is printed by name and unit, with the machine and run facts;
the last line of stdout is the JSON result. Outputs are checked on every
run and each failing cell counts in `failed`. Results that must repeat
exactly (per-round fitness digests, traced counters) are kept in
perfbench/out/ledger.json per code version, workload and seed, and a later
run that disagrees is a failure.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import yardstick
from tracing import Tracer
from yardstick import YARDSTICK_S
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
TAIL_LADDER = (99, 95, 90, 75, 50)
# No round starts later than this after the process started, even short of
# a full pass, so that a run always ends within the three minutes it is given.
HARD_STOP_S = 150.0
ORACLE_SLACK = 1e-12

# The end-to-end metrics in BENCHMARK.json: defined and non-zero on every
# workload. The others are printed, not emitted in the JSON result.
GATED = ("setup_s", "cells_per_s", "pso_run_ms_p50", "pso_run_ms_tail",
         "ga_run_ms_p50", "ga_run_ms_tail", "peak_rss_mb")


def load_library():
    """Import swarmroute afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "swarmroute" or m.startswith("swarmroute.")]:
        del sys.modules[name]
    package = importlib.import_module("swarmroute")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"swarmroute was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"swarmroute.{name}")
                              for name in ("encoding", "topology", "pso", "ga", "harness")})


def set_up(workload, seed):
    """Import, input generation and warm-up; returns (lib, inputs, seconds),
    the seconds rescaled to the yardstick's reference speed (see Play)."""
    before = yardstick.measure()
    t0 = time.perf_counter()
    lib = load_library()
    inputs = workload.prepare(lib, seed)
    workload.warm_up(lib, inputs)
    seconds = time.perf_counter() - t0
    return lib, inputs, seconds * YARDSTICK_S / ((before + yardstick.measure()) / 2.0)


def code_digest():
    """Hash of the library and benchmark sources, keying the ledger."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


class Ledger:
    """Values that must repeat exactly across runs of the same code."""

    def __init__(self, key):
        self.path = OUT / "ledger.json"
        try:
            self.all = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.all = {}
        self.entry = self.all.setdefault(key, {"rounds": {}})

    def check(self, section, name, value):
        """Record `value`; False if an earlier run recorded a different one."""
        table = self.entry.setdefault(section, {})
        return table.setdefault(str(name), value) == value

    def save(self):
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Play:
    """The passes of one phase over a fixed list of rounds, their timings,
    cells and failures.

    The machine this runs on is shared and its speed swings by up to 2x for
    minutes at a time. So every round is bracketed by yardstick measurements
    and its wall time, and each cell's pso_ms, ga_ms and oracle_ms, are
    rescaled by YARDSTICK_S over the mean of the two: the time the round
    would have taken at the yardstick's reference speed. A round's time and
    each of its cells' times is the median over the passes; the results of
    all passes must be identical."""

    def __init__(self, workload, ledger, problems, deadline):
        self.workload = workload
        self.ledger = ledger
        self.problems = problems
        self.deadline = deadline
        self.samples = {}  # round index -> [(seconds, scale, cells)], one per pass
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0
        self._digests = {}
        self._yardstick = None

    def run(self, lib, configs, seconds=0.0, tracer=None):
        """Pass over `configs`, a list of (r, round config), once, and then
        on until the rounds have taken `seconds`, stopping between two rounds
        of a pass. Only the rounds themselves are timed."""
        self._yardstick = yardstick.measure()
        while True:
            for r, config in configs:
                if self.passes and self.timed >= seconds:
                    return
                if time.perf_counter() >= self.deadline:
                    self.problems.append(f"stopped in pass {self.passes + 1}")
                    return
                self._round(lib, r, config, tracer)
            self.passes += 1

    def _round(self, lib, r, config, tracer):
        n = self.workload.cells_per_round
        self.attempted += n
        first_cell = tracer.optimizer_calls["pso.run_pso"] if tracer else 0
        if tracer:
            tracer.request = r
        t0 = time.perf_counter()
        try:
            cells = self.workload.run(lib, config)
        except Exception:  # a round that raises fails all its cells; keep going
            self.timed += time.perf_counter() - t0
            self.failed += n
            self.problems.append(f"round {r} raised:\n{traceback.format_exc()}")
            return
        seconds = time.perf_counter() - t0
        self.timed += seconds
        before, self._yardstick = self._yardstick, yardstick.measure()
        scale = YARDSTICK_S / ((before + self._yardstick) / 2.0)
        bad = {i for i, cell in enumerate(cells) if not self._cell_ok(r, i, cell)}
        if tracer:
            bad |= {c - first_cell for c in tracer.failed_cells if c >= first_cell}
        if len(cells) != n:
            self.problems.append(f"round {r} returned {len(cells)} cells, expected {n}")
            bad |= set(range(len(cells), n))
        digest = hashlib.sha256(repr([(c.pso_fitness, c.ga_fitness, c.pso_hops, c.ga_hops,
                                       c.oracle_fitness) for c in cells]).encode()).hexdigest()[:16]
        key = self.workload.round_key(r)
        if (self._digests.setdefault(key, digest) != digest
                or not self.ledger.check("rounds", key, digest)):
            self.problems.append(f"round {r} results differ from an earlier run of the same inputs")
            bad = set(range(n))
        self.failed += len(bad)
        if len(cells) == n:
            self.samples.setdefault(r, []).append((seconds, scale, cells))

    def _cell_ok(self, r, i, cell):
        problems = []
        for name in ("pso", "ga", "oracle"):
            fitness = getattr(cell, f"{name}_fitness")
            if fitness is not None and not 0.0 < fitness <= 1.0:
                problems.append(f"{name} fitness {fitness!r} outside (0, 1]")
        if cell.pso_hops < 1 or cell.ga_hops < 1:
            problems.append(f"hops {cell.pso_hops}/{cell.ga_hops} below 1")
        if cell.oracle_fitness is not None:
            for name in ("pso", "ga"):
                if getattr(cell, f"{name}_fitness") > cell.oracle_fitness + ORACLE_SLACK:
                    problems.append(f"{name} beats the exhaustive oracle")
        for problem in problems:
            self.problems.append(f"round {r} cell {i}: {problem}")
        return not problems

    def cells(self):
        """Every distinct cell, each time the median over passes of its
        rescaled times."""
        merged = []
        for r in sorted(self.samples):
            passes = self.samples[r]
            for i, cell in enumerate(passes[0][2]):
                merged.append(dataclasses.replace(cell, **{
                    name: statistics.median(scale * getattr(cells[i], name)
                                            for _, scale, cells in passes)
                    for name in ("pso_ms", "ga_ms", "oracle_ms")
                    if getattr(cell, name) is not None}))
        return merged

    def cells_per_s(self, rescaled=True):
        """Distinct cells over the sum of each round's median wall time,
        rescaled to the yardstick's reference speed or as measured."""
        return self.workload.cells_per_round * len(self.samples) / sum(
            statistics.median(seconds * (scale if rescaled else 1.0)
                              for seconds, scale, _ in passes)
            for passes in self.samples.values())

    def yardstick_speed(self):
        """Median over rounds of YARDSTICK_S over the yardstick's time: the
        machine's speed during the rounds relative to the reference."""
        return statistics.median(scale for passes in self.samples.values()
                                 for _, scale, _ in passes)


def end_to_end(workload, play, setups, facts):
    """(value, unit, note) per end-to-end metric; value None where not defined."""
    cells = play.cells()
    pct = next((p for p in TAIL_LADDER if len(cells) * (100 - p) / 100 >= 10), 50)
    counts = sorted(len(samples) for samples in play.samples.values())
    passes = "median of " + (f"{counts[0]}" if counts[0] == counts[-1]
                             else f"{counts[0]}-{counts[-1]}") + " passes each"
    facts["tail"] = {"percentile": pct, "samples": len(cells)}
    facts["passes"] = {"fewest": counts[0], "most": counts[-1]}

    def column(name):
        return [getattr(cell, name) for cell in cells]

    def p_tail(values):
        return float(np.percentile(values, pct))

    def timing(name, statistic):
        if name == "oracle_ms" and not workload.has_oracle:
            return None, "ms", ""
        note = f"p{pct} of {len(cells)} cells, " if statistic is p_tail else ""
        return statistic(column(name)), "ms", note + passes

    oracle = workload.has_oracle
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "cells_per_s": (play.cells_per_s(), "cells/s",
                        f"{len(cells)} cells, {passes}, {play.timed:.1f} s timed"),
        "pso_run_ms_p50": timing("pso_ms", statistics.median),
        "pso_run_ms_tail": timing("pso_ms", p_tail),
        "ga_run_ms_p50": timing("ga_ms", statistics.median),
        "ga_run_ms_tail": timing("ga_ms", p_tail),
        "oracle_ms_p50": timing("oracle_ms", statistics.median),
        "oracle_ms_tail": timing("oracle_ms", p_tail),
        "pso_mean_fitness": (statistics.fmean(column("pso_fitness"))
                             if workload.reports_pso_fitness else None, "fitness", ""),
        "ga_mean_fitness": (statistics.fmean(column("ga_fitness")), "fitness", ""),
        "pso_oracle_gap": (statistics.fmean(c.oracle_fitness - c.pso_fitness for c in cells)
                           if oracle else None, "fitness", ""),
        "ga_oracle_gap": (statistics.fmean(c.oracle_fitness - c.ga_fitness for c in cells)
                          if oracle else None, "fitness", ""),
        "failed_frac": (play.failed / play.attempted, "ratio",
                        f"{play.failed} of {play.attempted} cells"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
    }
    return metrics


def timed_run(workload, seed, seconds, setup, ledger, problems, deadline, facts):
    """Set up SETUP_REPEATS times, then time passes; the end-to-end table."""
    lib, inputs, first = setup
    setups = [first]
    for _ in range(SETUP_REPEATS - 1):
        lib, inputs, seconds_taken = set_up(workload, seed)
        setups.append(seconds_taken)
    play = Play(workload, ledger, problems, deadline)
    configs = [(r, workload.round_config(lib, inputs, r)) for r in range(workload.rounds)]
    play.run(lib, configs, seconds)
    facts["raw_cells_per_s"] = play.cells_per_s(rescaled=False)
    facts["yardstick_speed"] = play.yardstick_speed()
    return end_to_end(workload, play, setups, facts), GATED, play.attempted, play.failed


def traced_run(workload, setup, ledger, problems, deadline, facts, spans_path):
    """The fixed trace rounds untraced, then traced; the per-layer table."""
    lib, inputs, _ = setup
    # Generated before tracing starts: input generation calls the library too.
    configs = [(r, workload.round_config(lib, inputs, r)) for r in range(workload.trace_rounds)]
    untraced = Play(workload, ledger, problems, deadline)
    untraced.run(lib, configs)
    tracer = Tracer(lib)
    traced = Play(workload, ledger, problems, deadline)
    tracer.install()
    try:
        traced.run(lib, configs, tracer=tracer)
    finally:
        tracer.uninstall()
    problems.extend(tracer.failures)
    layer, counters = tracer.layer_metrics(traced.timed)
    for counter, value in counters.items():
        if not ledger.check("counters", counter, value):
            problems.append(f"counter {counter} = {value!r} differs from an earlier run")
            traced.failed = traced.attempted  # the traced cells did not reproduce
    overhead = untraced.cells_per_s() / traced.cells_per_s() - 1.0
    facts["trace_overhead_frac"] = overhead
    # Layer times are rescaled like the end-to-end ones, by the median speed.
    speed = traced.yardstick_speed()
    table = {metric: (value * speed if unit == "us" else value, unit, "")
             for metric, (value, unit) in layer.items()}
    table["trace_overhead_frac"] = (overhead, "ratio", "traced against untraced cells_per_s")
    tracer.write(spans_path, facts)
    return (table, tuple(table), untraced.attempted + traced.attempted,
            untraced.failed + traced.failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few small cells (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.perf_counter() + HARD_STOP_S

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    sys.path.insert(0, str(SRC))
    try:
        setup = set_up(workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import swarmroute from {SRC}: {exc}", file=sys.stderr)
        return 2

    name = workload.name + ("-tiny" if args.tiny else "")
    facts = {**machine_facts(), "workload": name, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "code": code_digest()}
    ledger = Ledger(f"{facts['code']}:{name}:{args.seed}")
    problems = []
    if args.trace:
        table, emitted, attempted, failed = traced_run(
            workload, setup, ledger, problems, deadline, facts,
            OUT / f"{name}-seed{args.seed}.spans.json.gz")
    else:
        table, emitted, attempted, failed = timed_run(
            workload, args.seed, args.seconds, setup, ledger, problems, deadline, facts)
    ledger.save()

    print(f"# workload {name}  seed {args.seed}  trace {args.trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    for metric, (value, unit, note) in table.items():
        shown = "n/a on this workload" if value is None else repr(value)
        print(f"{metric:<46} {shown:>24} {unit:<10} {note}".rstrip())
    for problem in problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": table[metric][0], "unit": table[metric][1]}
                    for metric in emitted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
