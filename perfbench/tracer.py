"""Outside-in layer tracer for the bcclab benchmark.

The tracer replaces the public functions of the traced ``bcclab`` modules
with timing wrappers, in every module that binds them (a name bound by
``from .x import y`` is patched wherever it appears), and wraps the
``broadcast``/``receive``/``decide`` methods on the machine objects the
benchmark creates. Each wrapper records calls and inclusive time; self
time is inclusive time minus the time of nested wrapped calls. Spans
(name, start, end, parent, job) are kept only for job-level calls, that
is calls made directly by a benchmark job. ``restore`` puts every
original binding back.

Nothing under ``src/`` is modified; a name that a later version of the
library removes is simply not found, and the metrics derived from it are
reported as absent.
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time

TRACED_MODULES = (
    "partitions", "joinmatrix", "sim", "algorithms", "crossing",
    "families", "indist", "matching", "reduction",
)
MACHINE_METHODS = ("broadcast", "receive", "decide")


class Stat:
    __slots__ = ("calls", "incl", "self")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0


def _rank_hook(tracer, args, result, duration):
    rows = getattr(args[0], "rows", args[0])
    full = result == min(len(rows), len(rows[0]) if rows else 0)
    tracer.add("joinmatrix.rank.full_s" if full else "joinmatrix.rank.deficient_s", duration)


def _indist_hook(tracer, args, result, duration):
    tracer.add("indist.edges", result.edge_count())
    tracer.add("indist.ops", sum(result.op_counts.values()))


def _fool_hook(tracer, args, result, duration):
    tracer.add("crossing.pairs_emitted", len(result))
    tracer.add("crossing.pairs_verified", result.verification["checked"])


def _family_hook(tracer, args, result, duration):
    tracer.add("families.members", result.v1_size + result.v2_size)


def _kmatch_hook(tracer, args, result, duration):
    kind = type(result).__name__
    tracer.add("matching.saturated" if kind == "KMatching" else "matching.violations", 1)


# Counters derived from a wrapped call's arguments and result.
HOOKS = {
    "joinmatrix.build_join_matrix":
        lambda tr, a, r, d: tr.add("joinmatrix.build.entries", r.dimension ** 2),
    "joinmatrix.exact_rank": _rank_hook,
    "sim.simulate": lambda tr, a, r, d: tr.add("sim.vertex_rounds", r.instance.n * r.t),
    "crossing.find_fooling_pairs": _fool_hook,
    "families.enumerate_family": _family_hook,
    "indist.build_indist_graph": _indist_hook,
    "matching.k_matching": _kmatch_hook,
    "reduction.two_party_simulate":
        lambda tr, a, r, d: tr.add("reduction.symbols", r.trace.total_symbols),
}


class Tracer:
    """Per-name call aggregates, hook counters and job-level spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self.broken_hooks = set()
        self.spans = []
        self._stack = []  # frames: [name, start, child_time, span_index]
        self._patched = []  # (owner, attribute, original), in install order
        self._machines = []
        self._job = None

    # -- recording ---------------------------------------------------------

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _enter(self, stat, name):
        stack = self._stack
        span = None
        if stack and stack[-1][0] is None:  # a job-level call
            span = len(self.spans)
            self.spans.append({"name": name, "parent": stack[-1][3], "job": self._job})
        frame = [stat, self.clock(), 0.0, span]
        stack.append(frame)
        return frame

    def _exit(self, frame):
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        stat = frame[0]
        stat.incl += duration
        stat.self += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] is not None:
            self.spans[frame[3]].update(start=frame[1], end=end)
        return duration

    @contextlib.contextmanager
    def job(self, job_id):
        """The root span of one benchmark job."""
        self._job = job_id
        span = len(self.spans)
        self.spans.append({"name": "job", "parent": None, "job": job_id})
        start = self.clock()
        self._stack.append([None, start, 0.0, span])
        try:
            yield
        finally:
            self._stack.pop()
            end = self.clock()
            self.spans[span].update(start=start, end=end)
            self.add("trace.job_s", end - start)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn):
        """A timing wrapper for `fn`, recorded under `name`.

        Calls made outside a job (the answer checks, for instance) pass
        through unrecorded.
        """
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not stack:
                    return gen
                stat.calls += 1
                return self._timed(gen, stat, name)

            return generator_wrapper
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = self._enter(stat, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(frame)
            stat.calls += 1
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self, args, result, duration)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.broken_hooks.add(name)
            return result

        return wrapper

    def _timed(self, gen, stat, name):
        # a generator's time accrues per resumption
        while True:
            frame = self._enter(stat, name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            yield item

    def install(self, modules=TRACED_MODULES, package="bcclab"):
        """Wrap every public function of `modules` wherever it is bound."""
        originals = {}
        for short in modules:
            try:
                module = importlib.import_module(f"{package}.{short}")
            except ModuleNotFoundError:
                continue
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
            if short == "algorithms":  # machine methods are wrapped per machine
                for method in MACHINE_METHODS:
                    self.stats.setdefault(f"algorithms.{method}", Stat())
        owners = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, entry[1])

    def wrap_machine(self, machine):
        """Wrap the machine's protocol methods on the instance itself."""
        for method in MACHINE_METHODS:
            setattr(machine, method, self.wrap(f"algorithms.{method}", getattr(machine, method)))
        self._machines.append(machine)
        return machine

    def restore(self):
        """Put back every binding `install` and `wrap_machine` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        for machine in self._machines:
            for method in MACHINE_METHODS:
                vars(machine).pop(method, None)
        self._machines = []

    # -- reporting ---------------------------------------------------------

    def snapshot(self):
        """Per-name aggregates and counters as plain numbers."""
        return {
            "stats": {
                k: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self}
                for k, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    # lookups for the per-layer metrics; None marks a name never wrapped

    def calls(self, *names):
        if all(n in self.stats for n in names):
            return sum(self.stats[n].calls for n in names)
        return None

    def self_s(self, *names):
        if all(n in self.stats for n in names):
            return sum(self.stats[n].self for n in names)
        return None

    def counter(self, name, source):
        if source not in self.stats or source in self.broken_hooks:
            return None
        return self.counters.get(name, 0)


# -- per-layer metrics -------------------------------------------------------

def _calls(*names):
    return lambda tracer: tracer.calls(*names)


def _self(*names):
    return lambda tracer: tracer.self_s(*names)


def _counter(name, source):
    return lambda tracer: tracer.counter(name, source)


def _ns_per_vertex_round(tracer):
    rounds = tracer.counter("sim.vertex_rounds", "sim.simulate")
    if rounds is None:
        return None
    return tracer.stats["sim.simulate"].incl * 1e9 / rounds if rounds else 0.0


def _useful_crossing_ratio(tracer):
    """Operations (distinct crossed neighbours) per crossing built."""
    ops = tracer.counter("indist.ops", "indist.build_indist_graph")
    crossings = tracer.calls("crossing.cross")
    if ops is None or crossings is None:
        return None
    return ops / crossings if crossings else 0.0


def _unattributed(tracer):
    """Job time spent outside every wrapped call."""
    return tracer.counters.get("trace.job_s", 0.0) - sum(s.self for s in tracer.stats.values())


LAYER_METRICS = (
    ("partitions.join.calls", "count", _calls("partitions.join")),
    ("partitions.join.self_s", "s", _self("partitions.join")),
    ("partitions.enumerate.self_s", "s",
     _self("partitions.enumerate_partitions", "partitions.enumerate_pair_partitions")),
    ("joinmatrix.build.self_s", "s", _self("joinmatrix.build_join_matrix")),
    ("joinmatrix.build.entries", "count",
     _counter("joinmatrix.build.entries", "joinmatrix.build_join_matrix")),
    ("joinmatrix.rank.calls", "count", _calls("joinmatrix.exact_rank")),
    ("joinmatrix.rank.full_s", "s", _counter("joinmatrix.rank.full_s", "joinmatrix.exact_rank")),
    ("joinmatrix.rank.deficient_s", "s",
     _counter("joinmatrix.rank.deficient_s", "joinmatrix.exact_rank")),
    ("sim.simulate.calls", "count", _calls("sim.simulate")),
    ("sim.simulate.self_s", "s", _self("sim.simulate")),
    ("sim.vertex_rounds", "count", _counter("sim.vertex_rounds", "sim.simulate")),
    ("sim.ns_per_vertex_round", "ns", _ns_per_vertex_round),
    ("sim.make_instance.calls", "count", _calls("sim.make_instance")),
    ("sim.make_instance.self_s", "s", _self("sim.make_instance")),
    ("algorithms.broadcast.calls", "count", _calls("algorithms.broadcast")),
    ("algorithms.broadcast.self_s", "s", _self("algorithms.broadcast")),
    ("algorithms.receive.calls", "count", _calls("algorithms.receive")),
    ("algorithms.receive.self_s", "s", _self("algorithms.receive")),
    ("algorithms.decide.calls", "count", _calls("algorithms.decide")),
    ("algorithms.decide.self_s", "s", _self("algorithms.decide")),
    ("crossing.cross.calls", "count", _calls("crossing.cross")),
    ("crossing.cross.self_s", "s", _self("crossing.cross")),
    ("crossing.are_independent.calls", "count", _calls("crossing.are_independent")),
    ("crossing.are_independent.self_s", "s", _self("crossing.are_independent")),
    ("crossing.states_identical.calls", "count", _calls("crossing.states_identical")),
    # compare_states does the comparison behind states_identical
    ("crossing.states_identical.self_s", "s",
     _self("crossing.states_identical", "crossing.compare_states")),
    ("crossing.find_fooling_pairs.self_s", "s", _self("crossing.find_fooling_pairs")),
    ("crossing.pairs_emitted", "count",
     _counter("crossing.pairs_emitted", "crossing.find_fooling_pairs")),
    ("crossing.pairs_verified", "count",
     _counter("crossing.pairs_verified", "crossing.find_fooling_pairs")),
    ("families.enumerate_family.self_s", "s", _self("families.enumerate_family")),
    ("families.cycles_of_instance.calls", "count", _calls("families.cycles_of_instance")),
    ("families.cycles_of_instance.self_s", "s", _self("families.cycles_of_instance")),
    ("families.members", "count", _counter("families.members", "families.enumerate_family")),
    ("indist.build_indist_graph.self_s", "s", _self("indist.build_indist_graph")),
    ("indist.degree_stats.self_s", "s", _self("indist.degree_stats")),
    ("indist.edges", "count", _counter("indist.edges", "indist.build_indist_graph")),
    ("indist.ops", "count", _counter("indist.ops", "indist.build_indist_graph")),
    ("indist.useful_crossing_ratio", "ratio", _useful_crossing_ratio),
    ("matching.k_matching.calls", "count", _calls("matching.k_matching")),
    ("matching.k_matching.self_s", "s", _self("matching.k_matching")),
    ("matching.hopcroft_karp.self_s", "s", _self("matching.hopcroft_karp")),
    ("matching.saturated", "count", _counter("matching.saturated", "matching.k_matching")),
    ("matching.violations", "count", _counter("matching.violations", "matching.k_matching")),
    ("reduction.build_reduction.calls", "count", _calls("reduction.build_reduction")),
    ("reduction.build_reduction.self_s", "s", _self("reduction.build_reduction")),
    ("reduction.components_partition.self_s", "s", _self("reduction.components_partition")),
    ("reduction.two_party_simulate.self_s", "s", _self("reduction.two_party_simulate")),
    ("reduction.symbols", "count", _counter("reduction.symbols", "reduction.two_party_simulate")),
    ("trace.unattributed_s", "s", _unattributed),
)
# measured by the runner: median traced / median plain repetition - 1
OVERHEAD_METRIC = ("trace.overhead_frac", "frac")


def layer_values(tracer):
    """One traced repetition's per-layer values; absent names map to None."""
    return {metric: value(tracer) for metric, _unit, value in LAYER_METRICS}


def median_values(per_rep):
    """Median over repetitions of each metric; None if absent anywhere."""
    out = {}
    for key in per_rep[0]:
        values = [rep[key] for rep in per_rep]
        out[key] = None if None in values else statistics.median(values)
    return out
