"""The tracer's arithmetic, its wrapping and restoring, and absent names."""

import inspect
import sys

import bcclab
import run
import tracer as tr
import workloads as wl
from bcclab import sim


def bcclab_bindings():
    """Every function bound in a loaded bcclab module, by (module, name)."""
    return {
        (key, attr): value
        for key, module in sys.modules.items()
        if key == "bcclab" or key.startswith("bcclab.")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def test_self_time_subtracts_nested_wrapped_calls():
    # job enter, outer enter, inner enter, inner exit, outer exit, job exit
    ticks = iter([0.0, 1.0, 2.0, 5.0, 9.0, 10.0])
    tracer = tr.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner())
    with tracer.job("j"):
        outer()
    o, i = tracer.stats["m.outer"], tracer.stats["m.inner"]
    assert (o.calls, o.incl, o.self) == (1, 8.0, 5.0)
    assert (i.calls, i.incl, i.self) == (1, 3.0, 3.0)
    assert tracer.counters["trace.job_s"] == 10.0
    assert tr.layer_values(tracer)["trace.unattributed_s"] == 2.0
    # only the job and its direct call get spans
    assert [(s["name"], s["parent"], s["start"], s["end"]) for s in tracer.spans] == [
        ("job", None, 0.0, 10.0), ("m.outer", 0, 1.0, 9.0),
    ]


def test_generator_time_accrues_per_resumption():
    ticks = iter(float(t) for t in range(100))
    tracer = tr.Tracer(clock=lambda: next(ticks))

    def gen():
        yield 1
        yield 2

    wrapped = tracer.wrap("m.gen", gen)
    assert list(wrapped()) == [1, 2]  # outside a job: not recorded
    with tracer.job("j"):
        assert list(wrapped()) == [1, 2]
    stat = tracer.stats["m.gen"]
    assert stat.calls == 1 and stat.incl == 3.0  # three resumptions of one tick


def _probe_job(seen):
    def body(ctx):
        seen.append(bcclab.simulate is sim.simulate and sim.simulate.__name__ == "simulate")
        seen.append("__wrapped__" in vars(sim.simulate))
        inst = sim.make_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        machine = ctx.machine(bcclab.algorithms.IdExchange(bits=2))
        return sim.simulate(inst, machine, 2).sent

    return wl.Job("probe", body, lambda sent: {"sent": str(sent)})


def test_traced_run_restores_every_binding():
    before = bcclab_bindings()
    seen = []
    job = _probe_job(seen)
    pinned = {"probe": wl.digest(job.check(job.run(wl.RepContext())))}
    seen.clear()
    reps, attempted, failed = run.measure([job], pinned, 0.0, trace=True)
    assert failed == 0 and attempted == 2
    assert [t is not None for _rep, t in reps] == [False, True]
    assert seen == [True, False, True, True]  # plain rep unwrapped, traced rep wrapped
    traced = reps[1][1]
    assert traced.stats["sim.simulate"].calls == 1
    assert traced.stats["algorithms.broadcast"].calls == 8
    after = bcclab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_never_installs_wrappers(monkeypatch):
    def refuse(self, *a, **k):
        raise AssertionError("wrappers installed in an untraced run")

    monkeypatch.setattr(tr.Tracer, "install", refuse)
    monkeypatch.setattr(tr.Tracer, "wrap_machine", refuse)
    seen = []
    job = _probe_job(seen)
    pinned = {"probe": wl.digest(job.check(job.run(wl.RepContext())))}
    reps, attempted, failed = run.measure([job], pinned, 0.0, trace=False)
    assert failed == 0 and all(t is None for _rep, t in reps)
    assert not any(seen[1::2])


def test_missing_names_are_reported_absent():
    tracer = tr.Tracer()
    tracer.install(modules=("sim", "no_such_module"))
    try:
        values = tr.layer_values(tracer)
    finally:
        tracer.restore()
    assert values["sim.simulate.calls"] == 0
    assert values["crossing.cross.calls"] is None
    assert values["indist.useful_crossing_ratio"] is None
    assert tr.median_values([values, values])["crossing.cross.self_s"] is None


def test_every_layer_metric_is_declared_in_the_benchmark_file():
    import json

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    emitted = [m for m, _u, _v in tr.LAYER_METRICS] + [tr.OVERHEAD_METRIC[0]]
    units = {m: u for m, u, _v in tr.LAYER_METRICS} | dict([tr.OVERHEAD_METRIC])
    assert [d["name"] for d in declared] == emitted
    assert all(d["unit"] == units[d["name"]] for d in declared)
