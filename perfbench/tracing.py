"""Span tracing for the benchmark's traced run, from outside the package.

`Tracer.install` swaps every swarmroute module attribute that is one of the
layer functions below for a wrapper that records a span, so a name a module
bound with `from .encoding import decode` is traced as well as the original.
`uninstall` puts the originals back. Spans are kept in memory as
(id, layer, start, end, parent, flags, request) rows and written out once
the run is over.
"""

import array
import functools
import gzip
import inspect
import json
import sys
import time

import numpy as np

# (defining module, function); the span name is "<module>.<function>".
LAYERS = (
    ("encoding", "decode"),
    ("encoding", "draw_valid_priorities"),
    ("topology", "build_network"),
    ("topology", "perturb_bandwidths"),
    ("pso", "path_fitness"),
    ("pso", "init_swarm"),
    ("pso", "step"),
    ("pso", "run_pso"),
    ("ga", "run_ga"),
    ("harness", "compare"),
    ("harness", "brute_force_best"),
)
NAMES = tuple(f"{module}.{function}" for module, function in LAYERS)
COLUMNS = ("id", "layer", "start_ns", "end_ns", "parent", "flags", "request")

# Span flags.
DEAD_END = 1  # decode raised DeadEnd
REPEAT = 2    # decode input already decoded in the same optimizer run
RAISED = 4    # any other exception


def _bind(function, args, kwargs):
    """Arguments by parameter name, whether passed by position or keyword."""
    return inspect.signature(function).bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.rows = array.array("q")
        self.request = -1  # set by the benchmark: the round being run
        self.generations = 0
        self.failed_cells = set()
        self.failures = []
        self.optimizer_calls = {"pso.run_pso": 0, "ga.run_ga": 0}
        self._next_id = 0
        self._stack = []
        self._seen = set()
        self._swapped = []
        self._path_fitness = lib.pso.path_fitness

    # -- wrapping -------------------------------------------------------------

    def install(self):
        hooks = {
            "encoding.decode": (self._decode_key, None),
            "pso.run_pso": (self._new_run, self._check_run),
            "ga.run_ga": (self._new_run, self._check_run),
        }
        modules = [module for name, module in list(sys.modules.items())
                   if name == "swarmroute" or name.startswith("swarmroute.")]
        for layer, (module_name, function_name) in enumerate(LAYERS):
            original = getattr(getattr(self.lib, module_name), function_name)
            before, after = hooks.get(NAMES[layer], (None, None))
            wrapper = self._wrap(layer, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._swapped.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def _wrap(self, layer, function, before, after):
        rows, stack, clock = self.rows, self._stack, time.perf_counter_ns
        dead_end = self.lib.encoding.DeadEnd

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            flags = before(function, args, kwargs) if before else 0
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except dead_end:
                flags |= DEAD_END
                raise
            except BaseException:
                flags |= RAISED
                raise
            finally:
                end = clock()
                stack.pop()
                rows.extend((span_id, layer, start, end, parent, flags, self.request))
            if after:
                after(NAMES[layer], function, args, kwargs, result)
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _decode_key(self, function, args, kwargs):
        if kwargs or len(args) < 4:
            bound = _bind(function, args, kwargs)
            priorities, source, destination = (bound["priorities"], bound["source"],
                                               bound["destination"])
        else:
            priorities, source, destination = args[1:4]
        # Within one optimizer run the link set never changes (bandwidth
        # resampling keeps it), so endpoints plus priorities identify the input.
        key = (int(source), int(destination), np.asarray(priorities, float).tobytes())
        if key in self._seen:
            return REPEAT
        self._seen.add(key)
        return 0

    def _new_run(self, function, args, kwargs):
        self._seen = set()
        return 0

    def _check_run(self, name, function, args, kwargs, result):
        """Path checks on every optimizer result: endpoints, loop-free, real
        links, and on static bandwidths the reported fitness recomputed."""
        bound = _bind(function, args, kwargs)
        network, source, destination = bound["network"], bound["source"], bound["destination"]
        cell = self.optimizer_calls[name]
        self.optimizer_calls[name] += 1
        if name == "ga.run_ga":
            self.generations += result.generations
        nodes = result.path.nodes
        problems = []
        if nodes[0] != source or nodes[-1] != destination:
            problems.append(f"path runs {nodes[0]}->{nodes[-1]}, not {source}->{destination}")
        if len(set(nodes)) != len(nodes):
            problems.append("path repeats a node")
        missing = [(u, v) for u, v in zip(nodes, nodes[1:]) if not network.has_link(u, v)]
        if missing:
            problems.append(f"path uses missing links {missing}")
        static = getattr(bound["params"], "bandwidth_mode", "static") == "static"
        if not missing and static and result.fitness != self._path_fitness(network, result.path):
            problems.append(f"fitness {result.fitness!r} differs from path_fitness of its path")
        if problems:
            self.failed_cells.add(cell)
            self.failures.append(f"{name} cell {cell}: " + "; ".join(problems))

    # -- results --------------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics from the recorded spans over `wall_s` traced seconds."""
        stride = len(COLUMNS)
        rows = self.rows
        n = len(rows) // stride
        layer_of = [0] * n
        duration = [0] * n
        parent_of = [-1] * n
        flags_of = [0] * n
        for i in range(0, len(rows), stride):
            span_id = rows[i]
            layer_of[span_id] = rows[i + 1]
            duration[span_id] = rows[i + 3] - rows[i + 2]
            parent_of[span_id] = rows[i + 4]
            flags_of[span_id] = rows[i + 5]
        children_ns = [0] * n
        for span_id in range(n):
            if parent_of[span_id] >= 0:
                children_ns[parent_of[span_id]] += duration[span_id]

        layer = {name: index for index, name in enumerate(NAMES)}
        calls = [0] * len(NAMES)
        total_ns = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for span_id in range(n):
            k = layer_of[span_id]
            calls[k] += 1
            total_ns[k] += duration[span_id]
            self_ns[k] += duration[span_id] - children_ns[span_id]

        def under(child, parent):
            """Spans of layer `child` whose direct parent is a `parent` span."""
            c, p = layer[child], layer[parent]
            return [s for s in range(n)
                    if layer_of[s] == c and parent_of[s] >= 0 and layer_of[parent_of[s]] == p]

        wall_ns = wall_s * 1e9
        decode = layer["encoding.decode"]
        decodes = [s for s in range(n) if layer_of[s] == decode]
        init_draws = under("encoding.decode", "encoding.draw_valid_priorities")
        ga_init_ns = sum(duration[s] for s in under("encoding.draw_valid_priorities", "ga.run_ga"))
        oracle_paths = under("pso.path_fitness", "harness.brute_force_best")

        def ratio(a, b):
            return a / b if b else 0.0

        def per_call_us(name):
            return ratio(total_ns[layer[name]], calls[layer[name]]) / 1000.0

        def share(name, own=total_ns):
            return own[layer[name]] / wall_ns

        metrics = {
            "encoding.decode.calls": (calls[decode], "count"),
            "encoding.decode.us_per_call": (per_call_us("encoding.decode"), "us"),
            "encoding.decode.share": (share("encoding.decode"), "ratio"),
            "encoding.decode.dead_end_frac": (
                ratio(sum(1 for s in decodes if flags_of[s] & DEAD_END), len(decodes)), "ratio"),
            "encoding.decode.repeat_frac": (
                ratio(sum(1 for s in decodes if flags_of[s] & REPEAT), len(decodes)), "ratio"),
            "encoding.draw_valid_priorities.draws_per_call": (
                ratio(len(init_draws), calls[layer["encoding.draw_valid_priorities"]]),
                "draws/call"),
            "topology.perturb_bandwidths.calls": (
                calls[layer["topology.perturb_bandwidths"]], "count"),
            "topology.perturb_bandwidths.us_per_call": (
                per_call_us("topology.perturb_bandwidths"), "us"),
            "topology.perturb_bandwidths.share": (share("topology.perturb_bandwidths"), "ratio"),
            "topology.build_network.calls": (calls[layer["topology.build_network"]], "count"),
            "topology.build_network.us_per_call": (per_call_us("topology.build_network"), "us"),
            "pso.path_fitness.calls": (calls[layer["pso.path_fitness"]], "count"),
            "pso.path_fitness.us_per_call": (per_call_us("pso.path_fitness"), "us"),
            "pso.path_fitness.share": (share("pso.path_fitness"), "ratio"),
            "pso.init_swarm.us_per_call": (per_call_us("pso.init_swarm"), "us"),
            "pso.step.calls": (calls[layer["pso.step"]], "count"),
            "pso.step.us_per_call": (per_call_us("pso.step"), "us"),
            "pso.step.self_share": (share("pso.step", self_ns), "ratio"),
            "ga.generation_us": (
                ratio(total_ns[layer["ga.run_ga"]] - ga_init_ns, self.generations) / 1000.0,
                "us"),
            "ga.run_ga.self_share": (share("ga.run_ga", self_ns), "ratio"),
            "harness.brute_force_best.us_per_call": (
                per_call_us("harness.brute_force_best"), "us"),
            "harness.brute_force_best.share": (share("harness.brute_force_best"), "ratio"),
            "harness.brute_force_best.paths_scored": (
                ratio(len(oracle_paths), calls[layer["harness.brute_force_best"]]), "paths/call"),
            "harness.compare.self_share": (share("harness.compare", self_ns), "ratio"),
        }
        # Deterministic per seed: a second run of the same code must match exactly.
        counters = {
            "decode_calls": len(decodes),
            "decode_dead_ends": sum(1 for s in decodes if flags_of[s] & DEAD_END),
            "decode_repeats": sum(1 for s in decodes if flags_of[s] & REPEAT),
            "init_draws": len(init_draws),
            "layer_calls": dict(zip(NAMES, calls)),
            "oracle_paths_scored": len(oracle_paths),
            "ga_generations": self.generations,
        }
        return metrics, counters

    def write(self, path, facts):
        """Write the spans as gzipped JSON lines: a header object naming the
        columns and layers, then one array per span."""
        stride = len(COLUMNS)
        rows = self.rows
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"facts": facts, "columns": COLUMNS, "layers": NAMES}) + "\n")
            for i in range(0, len(rows), stride):
                out.write(json.dumps(rows[i:i + stride].tolist()) + "\n")
