"""Command line interface.

Subcommands: `generate` (emit a network as JSON), `run-pso` / `run-ga`
(single optimization runs, JSON result), `compare` (full budget-grid
experiment, CSV or JSON), `oracle` (brute-force best path on small
networks). Exit codes: 0 success, 2 invalid configuration (including an
unwritable --out path and sizes too large to hold in memory), 3 no path
found. Input rules live with the modules that own the values; the CLI only
parses and maps errors to exit codes.
"""

import argparse
import errno
import json
import os
import sys

from .encoding import NoPathFound
from .errors import InvalidConfig
from .ga import GaParams, run_ga
from .harness import (DEFAULT_ORACLE_CAP, ExperimentConfig, brute_force_best, compare,
                      render_csv, render_json)
from .pso import PsoParams, run_pso
from .topology import (DEFAULT_BANDWIDTH_RANGE, DEFAULT_INTER_DENSITY,
                       DEFAULT_INTRA_DENSITY, build_network)

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_NO_PATH = 3

CROSSOVER_KINDS = {"1pt": "one_point", "2pt": "two_point"}
MUTATION_KINDS = {"swap": "swap", "adjswap": "adjacent_swap"}


def _add_network_flags(p):
    p.add_argument("--nodes", type=int, default=21, help="total node count (default 21)")
    p.add_argument("--seed", type=int, default=0, help="non-negative RNG seed (default 0)")
    p.add_argument("--intra-density", type=float, default=DEFAULT_INTRA_DENSITY,
                   help="intra-region link probability")
    p.add_argument("--inter-density", type=float, default=DEFAULT_INTER_DENSITY,
                   help="inter-region link probability")
    p.add_argument("--no-ensure-connected", action="store_true",
                   help="skip the spanning-tree connectivity backbone")
    p.add_argument("--bandwidth-min", type=float, default=DEFAULT_BANDWIDTH_RANGE[0])
    p.add_argument("--bandwidth-max", type=float, default=DEFAULT_BANDWIDTH_RANGE[1])
    p.add_argument("--out", help="write output to FILE instead of stdout")


def _add_endpoint_flags(p):
    p.add_argument("--source", type=int, default=0, help="source node id (default 0)")
    p.add_argument("--dest", type=int, default=None,
                   help="destination node id (default: highest id)")


def _add_ga_flags(p):
    p.add_argument("--population", type=int, default=40, help="GA population size")
    p.add_argument("--crossover", choices=sorted(CROSSOVER_KINDS), default="1pt")
    p.add_argument("--mutation", choices=sorted(MUTATION_KINDS), default="swap")
    p.add_argument("--crossover-prob", type=float, default=0.8)
    p.add_argument("--mutation-prob", type=float, default=0.1)
    p.add_argument("--no-elitism", action="store_true",
                   help="disable carrying the best chromosome into the next generation")


def _parse_budgets(text):
    """Budget list: '5-20' (inclusive range) or '5,8,12' or a single value."""
    text = text.strip()
    if "-" in text:
        lo, hi = text.split("-", 1)
        budgets = tuple(range(int(lo), int(hi) + 1))
    elif "," in text:
        budgets = tuple(int(part) for part in text.split(","))
    else:
        budgets = (int(text),)
    return budgets


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swarmroute",
        description="Region-based random networks with PSO and GA max-fitness path search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a network and emit it as JSON")
    _add_network_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run-pso", help="single PSO run, JSON result")
    _add_network_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--particles", type=int, default=40)
    p.add_argument("--dynamic-bandwidth", action="store_true",
                   help="re-sample link bandwidths every iteration")
    p.set_defaults(func=cmd_run_pso)

    p = sub.add_parser("run-ga", help="single GA run, JSON result")
    _add_network_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--iterations", type=int, default=100, help="generation count")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_run_ga)

    p = sub.add_parser("compare", help="PSO vs GA over a grid of iteration budgets")
    _add_network_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--budgets", default="5-20",
                   help="iteration budgets: '5-20', '5,8,12' or a single value")
    p.add_argument("--trials", type=int, default=1, help="trial seeds per budget")
    p.add_argument("--particles", type=int, default=40)
    _add_ga_flags(p)
    p.add_argument("--dynamic-bandwidth", action="store_true")
    p.add_argument("--fixed-topology", action="store_true",
                   help="reuse one network (built from --seed) for every grid cell")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="brute-force best path on a small network")
    _add_network_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                   help="refuse networks above this node count")
    p.set_defaults(func=cmd_oracle)

    return parser


def _dest(args):
    return args.nodes - 1 if args.dest is None else args.dest


def _build_network(args):
    return build_network(args.nodes, args.seed, args.intra_density, args.inter_density,
                         not args.no_ensure_connected, args.bandwidth_min, args.bandwidth_max)


def _ga_params(args, **extra):
    return GaParams(pop_size=args.population, crossover_kind=CROSSOVER_KINDS[args.crossover],
                    crossover_prob=args.crossover_prob,
                    mutation_kind=MUTATION_KINDS[args.mutation],
                    mutation_prob=args.mutation_prob, elitism=not args.no_elitism, **extra)


def _bandwidth_mode(args):
    return "dynamic" if args.dynamic_bandwidth else "static"


def _check_out(out_path):
    """Refuse an --out path whose directory is missing or that names a
    directory, before any work runs; nothing is created or truncated.

    Other write failures still surface in `_output`, with the same message.
    """
    if not out_path:
        return
    parent = os.path.dirname(out_path) or os.curdir
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise InvalidConfig(f"cannot write {out_path}: {os.strerror(code)}")


def _output(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise InvalidConfig(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _output_json(payload, out_path):
    _output(json.dumps(payload, indent=2) + "\n", out_path)


def cmd_generate(args):
    _output_json(_build_network(args).to_json(), args.out)


def cmd_run_pso(args):
    params = PsoParams(n_particles=args.particles, iterations=args.iterations,
                       bandwidth_mode=_bandwidth_mode(args))
    result = run_pso(_build_network(args), args.source, _dest(args), params, args.seed)
    _output_json(result.to_json(), args.out)


def cmd_run_ga(args):
    params = _ga_params(args, kmax=args.iterations)
    result = run_ga(_build_network(args), args.source, _dest(args), params, args.seed)
    _output_json(result.to_json(), args.out)


def cmd_compare(args):
    config = ExperimentConfig(
        n_nodes=args.nodes, seed=args.seed, source=args.source, destination=args.dest,
        budgets=_parse_budgets(args.budgets), trials=args.trials,
        pso=PsoParams(n_particles=args.particles), ga=_ga_params(args),
        bandwidth_mode=_bandwidth_mode(args),
        intra_density=args.intra_density, inter_density=args.inter_density,
        b_min=args.bandwidth_min, b_max=args.bandwidth_max,
        ensure_connected=not args.no_ensure_connected,
        fixed_topology=args.fixed_topology)
    report = compare(config)
    _output(render_csv(report) if args.format == "csv" else render_json(report), args.out)
    print("verdicts: pso_mean_fitness_ge_ga={} pso_mean_ms_le_ga={}".format(
        report.verdicts["pso_mean_fitness_ge_ga"], report.verdicts["pso_mean_ms_le_ga"]),
        file=sys.stderr)


def cmd_oracle(args):
    path, fitness = brute_force_best(_build_network(args), args.source, _dest(args),
                                     cap=args.cap)
    _output_json({"path": list(path.nodes), "fitness": fitness, "hops": path.hop_count},
                 args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        args.func(args)
        return EXIT_OK
    except NoPathFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PATH
    except ValueError as exc:  # covers InvalidConfig, bad ranges, bad params
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except MemoryError:  # sizes that parse but cannot be held, e.g. --nodes 200000
        print("error: not enough memory for the requested sizes", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
