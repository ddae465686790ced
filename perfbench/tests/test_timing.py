"""Job time and set-up probes are rescaled by the calibrations around them."""

import time

import pytest

import run
import workloads as wl

REF = run.CALIB_REF_S


def test_rescale_between_marks():
    marks = [(0.0, 0.1, REF), (1.0, 1.1, 3 * REF), (2.0, 2.1, REF)]
    intervals = [(0.1, 0.6), (0.8, 1.5)]  # the second holds the calibration at 1.0-1.1
    raw, ref = run.rescale(intervals, marks)
    assert raw == pytest.approx(0.5 + 0.2 + 0.4)
    assert ref == pytest.approx(raw / 2)  # every gap sits between a 1x and a 3x mark


def test_rescaled_by_calibration(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 4 * REF)
    jobs = [wl.Job(j, lambda ctx: None, lambda r: {}) for j in ("a", "b")]
    rep = run.run_rep(jobs, {"a": wl.digest({}), "b": wl.digest({})})
    assert rep.failed == []
    assert rep.ref_s == pytest.approx(rep.wall_s / 4)


def test_long_job_calibrated_inside(monkeypatch):
    def calibrate():
        time.sleep(0.02)
        return REF

    monkeypatch.setattr(run, "calibrate", calibrate)
    monkeypatch.setattr(run, "SEGMENT_S", 0.1)
    job = wl.Job("long", lambda ctx: time.sleep(0.5), lambda r: {})
    rep = run.run_rep([job], {"long": wl.digest({})})
    inside = rep.calibrations - 2  # one runs before the job and one after it
    assert inside >= 3
    # sleep keeps its deadline, so the calibrations inside shorten the job's time
    assert rep.wall_s == pytest.approx(0.5 - 0.02 * inside, abs=0.01)
    assert rep.ref_s == pytest.approx(rep.wall_s)


def test_clock_skips_calibration(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: time.sleep(0.05) or REF)
    calibrator = run.Calibrator()
    before = calibrator.clock()
    calibrator.mark()
    assert calibrator.clock() - before < 0.01


def test_setup_probes_rescaled(monkeypatch):
    class Done:
        def __init__(self):
            self.stdout = repr(run.time.monotonic() + 0.5)  # each probe "takes" 0.5 s

    monkeypatch.setattr(run, "calibrate", lambda: 2 * REF)
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: Done())
    setup_s, samples = run.measure_setup("rank", 1)
    assert len(samples) == run.SETUP_PROBES
    assert all(s == pytest.approx(0.5, abs=0.05) for s in samples)
    assert setup_s == pytest.approx(0.25, abs=0.03)  # machine at half the reference speed
