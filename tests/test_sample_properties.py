"""Property tests of the CSR ``Sample``: invariants, slicing, CSV round trip
and ``slice_periodic``."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poislim as pl
from poislim.errors import DomainError
from poislim.simulate import (
    RngStream,
    Sample,
    Trajectory,
    read_events_csv,
    simulate_sample,
    slice_periodic,
    write_events_csv,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

HORIZON = 2.0
INTENSITIES = {cid: pl.TrueIntensity.from_model(pl.make_model(cid), 0.5)
               for cid in ("REGULAR_EXP", "CUSP", "JUMP_SHIFT", "SUFFWIN_LINEAR")}

times = st.floats(0.0, HORIZON, allow_nan=False)
record = st.lists(times, max_size=6, unique=True).map(sorted)
records = st.lists(record, max_size=7)


def build(recs, horizon=HORIZON):
    return Sample.from_trajectories([Trajectory(np.array(r, dtype=float), horizon)
                                     for r in recs], horizon)


def assert_same(a: Sample, b: Sample):
    assert a.n == b.n and a.horizon == b.horizon
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.events, b.events)


def mask_split(long_trajectory, tau):
    """Reference: one full-record mask per piece."""
    n = int(round(long_trajectory.horizon / tau))
    ev = long_trajectory.events
    pieces = [ev[(ev >= j * tau) & (ev < (j + 1) * tau)] - j * tau for j in range(n)]
    return Sample.from_trajectories([Trajectory(p, tau) for p in pieces], tau)


@PROPERTY
@given(st.sampled_from(sorted(INTENSITIES)), st.integers(1, 40),
       st.integers(0, 2 ** 32), st.integers(0, 2 ** 40))
def test_simulated_csr_invariants(name, n, seed, base):
    s = simulate_sample(INTENSITIES[name], n, RngStream(seed, base))
    off = s.offsets
    assert s.n == n and off[0] == 0 and off[-1] == s.events.size == s.total_events()
    assert np.all(np.diff(off) >= 0)
    assert s.pooled_events() is s.events
    for j in range(n):
        ev = s.events[off[j]:off[j + 1]]
        assert np.all(np.diff(ev) > 0.0)
        assert np.all((ev >= 0.0) & (ev <= s.horizon))
        assert np.array_equal(s.trajectories[j].events, ev)


@PROPERTY
@given(records, st.integers(-9, 9), st.integers(-9, 9))
def test_slice_equals_from_trajectories(recs, a, b):
    s = build(recs)
    assert_same(s[a:b], build(recs[a:b]))
    assert_same(s[a:], build(recs[a:]))
    assert_same(s[:b], build(recs[:b]))


def test_slice_rejects_steps_and_integers():
    s = build([[0.1], [0.2], [0.3]])
    for index in (slice(None, None, 2), slice(None, None, -1), 1):
        with pytest.raises(TypeError):
            s[index]


@PROPERTY
@given(records)
def test_events_csv_roundtrip_property(recs):
    s = build(recs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_events_csv(s, path)
        assert_same(read_events_csv(path, s.n, HORIZON), s)


@PROPERTY
@given(st.integers(1, 12), st.sampled_from([1.0, 0.3, 0.7, 2.5]), st.data())
def test_slice_periodic_equals_mask_split(n, tau, data):
    horizon = n * tau
    ev = data.draw(st.lists(st.floats(0.0, horizon, allow_nan=False), max_size=40, unique=True))
    # events on the cut points themselves
    ev += data.draw(st.lists(st.integers(0, n).map(lambda j: j * tau), max_size=3, unique=True))
    long_trajectory = Trajectory(np.unique(np.array(ev, dtype=float)), horizon)
    try:
        expect = mask_split(long_trajectory, tau)
    except DomainError:
        # a shifted time rounded onto or past tau: both splits refuse it
        with pytest.raises(DomainError):
            slice_periodic(long_trajectory, tau)
        return
    assert_same(slice_periodic(long_trajectory, tau), expect)
