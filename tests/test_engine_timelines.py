"""Random fault timelines on the desk plants: the event-segmented engine
against the step-by-step oracle, and the engine's invariants."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import _oracles as orc
from gridftc import sim_engine
from gridftc.desk_models import desk4_plant, desk5_plant
from gridftc.reconfig import FaultEvent
from gridftc.sim_engine import (
    ControllerConfig,
    ObserverConfig,
    Scenario,
    build_report,
    run_scenario,
)

PLANTS = {"desk4": desk4_plant(), "desk5": desk5_plant()}
GENTLE = [-0.003, -0.03, 0.0]
STRONG = [-50.0, -50.0, -50.0]  # drives many runs to the divergence verdict
MODES = {"virtual-sensor", "augmentation", "unrecoverable"}
DEAD_READING = 7.0


@st.composite
def timelines(draw):
    """A valid scenario: time-ordered faults, every stuck or dead sensor on
    one machine (the engine runs one merged observer), short horizons on
    coarse grids so each example stays cheap."""
    plant = PLANTS[draw(st.sampled_from(sorted(PLANTS)))]
    n = plant.n
    dt = draw(st.sampled_from([0.004, 0.005, 0.01]))
    dead_sub = draw(st.integers(1, n))
    faults, t = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        t += draw(st.floats(0.0, 1.5))
        kind = draw(st.sampled_from(["gain", "stuck", "total-loss"]))
        faults.append(FaultEvent(
            t_fault=t, kind=kind, fdi_delay=draw(st.floats(0.0, 1.0)),
            subsystem=draw(st.integers(1, n)) if kind == "gain" else dead_sub,
            factor=draw(st.floats(0.3, 1.8)) if kind == "gain" else None,
            stuck_value=draw(st.none() | st.floats(-1.0, 1.0))
            if kind == "stuck" else None))
    settling = 0.5
    gentle = draw(st.booleans())
    return Scenario(
        plant=plant, dt=dt, faults=tuple(faults),
        horizon=t + settling + draw(st.floats(0.0, 4.0)),
        settling_window=settling,
        reconfigure=draw(st.sampled_from([True, True, False])),
        noise_amplitude=draw(st.sampled_from([0.0, 1e-3])),
        observer=ObserverConfig(initial_offset=draw(st.floats(0.0, 0.05))),
        controller=ControllerConfig(
            gains=np.tile(GENTLE if gentle else STRONG, (n, 1))),
        j_max=draw(st.sampled_from([None, 20.0])),
        name="timeline")


def _on_desk5(*faults, noise=0.0):
    """A desk5 scenario with these faults and gentle feedback."""
    return Scenario(
        plant=PLANTS["desk5"], dt=0.005, faults=faults, horizon=3.0,
        settling_window=0.5, noise_amplitude=noise,
        observer=ObserverConfig(initial_offset=0.01),
        controller=ControllerConfig(gains=np.tile(GENTLE, (5, 1))),
        name="timeline")


def _gain(t, sub, factor):
    return FaultEvent(t_fault=t, subsystem=sub, kind="gain", factor=factor,
                      fdi_delay=0.4)


# Two gains on one machine scale its reading twice, y f1 f2, which differs
# from y (f1 f2) in the last bits for factors like these; after a stuck
# fault the later gain scales the held reading.
TWO_GAINS = _on_desk5(_gain(0.3, 2, 0.7), _gain(0.9, 2, 1.3), noise=1e-3)
GAIN_STUCK_GAIN = _on_desk5(
    _gain(0.3, 5, 0.7),
    FaultEvent(t_fault=0.8, subsystem=5, kind="stuck", fdi_delay=0.4),
    _gain(1.2, 5, 1.3))


def _bits(a):
    """Bytes of an array with every NaN payload made alike."""
    a = np.asarray(a)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _augmented(log):
    """(step, 0-based column) of the first augmentation per machine."""
    out = {}
    for m in log.events:
        if m.label.endswith(":augmentation"):
            out.setdefault(m.subsystem - 1, m.step)
    return out


def _garbage_after(col, k_dead):
    """An ``_Engine.advance`` whose sensor on machine ``col`` reports
    ``DEAD_READING`` from row ``k_dead`` on: a segment from there on runs
    with one more stuck fault, last, which the wrapper takes out again.
    ``k_dead`` is an event step, so every segment starts at it or ends
    before it."""
    real = sim_engine._Engine.advance
    dead = (FaultEvent(t_fault=0.0, subsystem=col + 1, kind="stuck",
                       fdi_delay=0.0), DEAD_READING)

    def advance(self, k0, k_end):
        if k0 < k_dead:
            return real(self, k0, k_end)
        self.active.append(dead)
        try:
            return real(self, k0, k_end)
        finally:
            self.active.pop()

    return advance


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(scn=timelines(), seed=st.integers(0, 3))
@example(scn=TWO_GAINS, seed=1)
@example(scn=GAIN_STUCK_GAIN, seed=0)
def test_random_timelines_match_loop_oracle(scn, seed):
    log = run_scenario(scn, seed=seed)
    ref = orc.run_scenario_loops(scn, seed=seed)
    rows = len(log.t)
    last = int(round(scn.horizon / scn.dt))

    # the segmented engine is the step loop, bit for bit, on every row it
    # logged; only a divergence verdict cuts the run short
    assert rows == last + 1 or log.diverged
    for name in ("t", "x", "xhat", "y_meas", "y_used", "L"):
        assert _bits(getattr(log, name)) == \
            _bits(getattr(ref, name)[:rows]), name
    markers = [m.to_dict() for m in log.events]
    if log.diverged:
        assert markers[-1]["kind"] == "diverged"
        assert markers[:-1] == [e for e in ref.events if e["step"] < rows]
    else:
        assert markers == ref.events
        assert [(t, p.to_dict()) for t, p in log.plans] == ref.plans
        assert log.unrecoverable == ref.unrecoverable

    # events are time-ordered and sit on the grid
    steps = [m.step for m in log.events]
    assert steps == sorted(steps) and all(0 <= k < rows for k in steps)
    assert all(m.t == m.step * scn.dt for m in log.events)

    # every observer's gain is monotone and capped up to a divergence
    # verdict; a merged observer restarts its machine's column at L = 1
    healthy = log.events[-1].step if log.diverged else rows
    restarts = {(m.subsystem - 1, m.step) for m in log.events
                if m.label.endswith(":augmentation")}
    assert np.all(log.L[:healthy] <= scn.observer.L_max)
    dL = np.diff(log.L[:healthy], axis=0)
    for r, i in np.argwhere(~(dL >= 0.0)):
        assert (i, r + 1) in restarts and log.L[r + 1, i] == 1.0

    # a verdict always exists
    report = build_report(scn, log)
    assert report.diverged is log.diverged
    assert len(report.recovery) == len(scn.faults)
    verdicts = [r["verdict"] for r in report.recovery]
    assert set(verdicts) <= {"recovered", "not-recovered", "unrecoverable",
                             "diverged"}
    if log.diverged:
        assert verdicts[-1] in ("diverged", "unrecoverable")
    else:
        assert "diverged" not in verdicts
    diagnosed = [m for m in log.events if m.kind == "fdi"]
    assert all(m.detail["mode"] in MODES for m in diagnosed)
    if scn.reconfigure and not log.diverged:
        due = sum(sim_engine._grid_index(f.t_fault + f.fdi_delay, scn.dt)
                  <= last for f in scn.faults)
        assert len(diagnosed) == due

    # no dead reading is consumed: once a machine's sensor is switched off,
    # whatever it reports leaves every state, estimate and gain unchanged
    for col, k_dead in _augmented(log).items():
        with mock.patch.object(sim_engine._Engine, "advance",
                               _garbage_after(col, k_dead)):
            again = run_scenario(scn, seed=seed)
        for name in ("x", "xhat", "L"):
            assert _bits(getattr(again, name)) == _bits(getattr(log, name))
        assert np.all(again.y_meas[k_dead:, col] != log.y_meas[k_dead:, col])
