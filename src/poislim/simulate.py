"""Trajectory simulation by thinning and i.i.d. sample assembly.

Randomness comes from counter-based Philox streams keyed by
(master_seed, stream_index), so any trajectory can be regenerated
bit-identically regardless of execution order or worker count.  The stream
contract: trajectory j of ``simulate_sample(intensity, n, RngStream(s, b))``
is drawn from the Philox stream with key (s, b + j), in the order candidate
count, candidate positions, acceptance uniforms.  The experiments harness
maps (replicate, trajectory) pairs onto flat stream indices as
replicate_block * STREAM_STRIDE + trajectory, so a replicate holds at most
``STREAM_STRIDE`` trajectories.

A ``Sample`` is stored column-wise: one sorted ``events`` array per
trajectory, concatenated, and ``offsets`` such that trajectory j is
``events[offsets[j]:offsets[j + 1]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError
from .intensity import IntensityModel, TrueIntensity

__all__ = [
    "STREAM_STRIDE",
    "RngStream",
    "Trajectory",
    "Sample",
    "simulate_trajectory",
    "simulate_sample",
    "slice_periodic",
    "write_events_csv",
    "read_events_csv",
]

# max trajectories per replicate block; keeps (replicate, trajectory) -> index injective
STREAM_STRIDE = 1 << 21

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """One independent random stream: (master_seed, stream_index) Philox key."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed & _MASK64,
                        self.stream_index & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _check_events(ev: np.ndarray, horizon: float, offsets=None) -> None:
    """Event times finite, inside [0, horizon] and strictly increasing, within
    each record ``ev[offsets[j]:offsets[j + 1]]`` when ``offsets`` is given."""
    if ev.ndim != 1:
        raise DomainError("event times must be a 1-d array")
    if not ev.size:
        return
    lo, hi = ev.min(), ev.max()  # both propagate NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("event times must be finite")
    if lo < 0.0 or hi > horizon:
        raise DomainError("event times outside [0, horizon]")
    rising = ev[1:] > ev[:-1]
    if offsets is not None:
        starts = np.zeros(ev.size + 1, dtype=bool)
        starts[offsets] = True
        rising |= starts[1:-1]
    if not rising.all():
        raise DomainError("event times must be strictly increasing")


@dataclass(frozen=True)
class Trajectory:
    """One sorted record of event times on [0, horizon]."""

    events: np.ndarray
    horizon: float

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", ev)
        _check_events(ev, self.horizon)

    def __len__(self):
        return int(self.events.size)


@dataclass(frozen=True, eq=False)
class Sample:
    """n independent trajectories sharing one horizon, in CSR layout.

    Trajectory j is ``events[offsets[j]:offsets[j + 1]]``; ``sample[a:b]`` is
    trajectories a..b-1 as a sample that shares ``events``.
    """

    events: np.ndarray
    offsets: np.ndarray
    horizon: float

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        off = np.asarray(self.offsets)
        if off.ndim != 1 or off.size < 1 or off.dtype.kind not in "iu":
            raise DomainError("offsets must be a nonempty 1-d integer array")
        off = off.astype(np.int64, copy=False)
        object.__setattr__(self, "events", ev)
        object.__setattr__(self, "offsets", off)
        if off[0] != 0 or off[-1] != ev.size or (off[1:] < off[:-1]).any():
            raise DomainError("offsets must rise from 0 to the number of events")
        _check_events(ev, self.horizon, off)

    @classmethod
    def from_trajectories(cls, trajectories, horizon: float) -> "Sample":
        """The sample of the given ``Trajectory`` records, in order."""
        trajectories = tuple(trajectories)
        for tr in trajectories:
            if abs(tr.horizon - horizon) > 1e-12:
                raise ConfigurationError("all trajectories must share the sample horizon")
        counts = np.array([len(tr) for tr in trajectories], dtype=np.int64)
        events = (np.concatenate([tr.events for tr in trajectories])
                  if trajectories else np.empty(0))
        return cls(events, np.concatenate(([0], np.cumsum(counts))), horizon)

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def trajectories(self) -> tuple:
        """One ``Trajectory`` per record, each a view into ``events``."""
        off = self.offsets.tolist()
        return tuple(Trajectory(self.events[a:b], self.horizon)
                     for a, b in zip(off[:-1], off[1:]))

    def __getitem__(self, index) -> "Sample":
        if not isinstance(index, slice) or index.step not in (None, 1):
            raise TypeError("a Sample takes a slice with step 1, e.g. sample[a:b]")
        a, b, _ = index.indices(self.n)
        off = self.offsets[a:max(a, b) + 1]
        return Sample(self.events[off[0]:off[-1]], off - off[0], self.horizon)

    def pooled_events(self) -> np.ndarray:
        """All event times of all trajectories, concatenated (order preserved)."""
        return self.events

    def total_events(self) -> int:
        return int(self.events.size)


def _resolve_intensity(intensity):
    """Accept a TrueIntensity or a (model, theta) pair."""
    if isinstance(intensity, TrueIntensity):
        return intensity
    if isinstance(intensity, tuple) and len(intensity) == 2 and isinstance(intensity[0], IntensityModel):
        return TrueIntensity.from_model(intensity[0], intensity[1])
    raise ConfigurationError("intensity must be a TrueIntensity or (model, theta) pair")


def simulate_trajectory(intensity, rng: RngStream) -> Trajectory:
    """One trajectory: trajectory 0 of ``simulate_sample(intensity, 1, rng)``."""
    return simulate_sample(intensity, 1, rng).trajectories[0]


def simulate_sample(intensity, n: int, rng_base: RngStream) -> Sample:
    """n independent trajectories by thinning; trajectory j uses stream_index base+j.

    Each stream draws its candidate count at rate lambda_max, the candidate
    positions and the acceptance uniforms, in that order, which is what makes
    the output reproducible bit-for-bit.  One Philox generator is reset to
    each stream's key (zero counter, empty buffer) instead of being built per
    stream; the intensity is then evaluated once over all candidates.
    """
    if n <= 0:
        raise DomainError(f"sample size must be >= 1, got {n}")
    ti = _resolve_intensity(intensity)
    lam_max = ti.lambda_max
    if lam_max < 0 or (lam_max == 0.0 and np.max(ti.value(np.linspace(0, ti.horizon, 64))) > 0):
        raise ConfigurationError("lambda_max must be positive for a nonzero intensity")
    if lam_max == 0.0:
        return Sample(np.empty(0), np.zeros(n + 1, dtype=np.int64), ti.horizon)
    bitgen = np.random.Philox(0)
    g = np.random.Generator(bitgen)
    key = [rng_base.master_seed & _MASK64, 0]
    # the state of a new Philox(key=key): zero counter, empty buffer
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    mean = lam_max * ti.horizon
    counts = np.empty(n, dtype=np.int64)
    draws = []
    for j in range(n):
        key[1] = (rng_base.stream_index + j) & _MASK64
        bitgen.state = fresh
        counts[j] = k = g.poisson(mean)
        # row 0: positions / horizon, row 1: acceptance uniforms, in draw order
        draws.append(g.random((2, k)))
    u = np.concatenate(draws, axis=1)
    # 0 + horizon * u is exactly what Generator.uniform(0, horizon) returns
    times = ti.horizon * u[0]
    accept = u[1] * lam_max < ti.value(times)
    owner = np.repeat(np.arange(n), counts)[accept]
    times = times[accept]
    order = np.lexsort((times, owner))
    times, owner = times[order], owner[order]
    # ties among float64 uniforms are effectively impossible but would break
    # the strictly-increasing invariant, so drop exact duplicates defensively
    tie = (times[1:] == times[:-1]) & (owner[1:] == owner[:-1])
    if tie.any():
        keep = np.concatenate(([True], ~tie))
        times, owner = times[keep], owner[keep]
    return Sample(times, np.searchsorted(owner, np.arange(n + 1)), ti.horizon)


def slice_periodic(long_trajectory: Trajectory, tau: float) -> Sample:
    """Cut one record on [0, n*tau] into n pieces, each shifted back to [0, tau].

    Piece j holds the events in [j*tau, (j+1)*tau), minus j*tau.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    ratio = long_trajectory.horizon / tau
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9:
        raise DomainError(
            f"horizon {long_trajectory.horizon} is not an integer multiple of tau={tau}"
        )
    ev = long_trajectory.events
    starts = np.arange(n + 1) * tau
    offsets = np.searchsorted(ev, starts)
    events = ev[:offsets[-1]] - np.repeat(starts[:-1], np.diff(offsets))
    return Sample(events, offsets, tau)


def write_events_csv(sample: Sample, path) -> None:
    """One row per event: trajectory_index, event_time."""
    with open(path, "w", newline="") as fh:
        fh.write("trajectory_index,event_time\n")
        for j, tr in enumerate(sample.trajectories):
            for t in tr.events:
                fh.write(f"{j},{t:.17g}\n")


def read_events_csv(path, n: int, horizon: float) -> Sample:
    """Inverse of write_events_csv for a known (n, horizon)."""
    buckets = [[] for _ in range(n)]
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("trajectory_index"):
            raise ConfigurationError(f"{path}: missing event CSV header")
        for line in fh:
            if not line.strip():
                continue
            j_str, t_str = line.split(",")
            j = int(j_str)
            if not 0 <= j < n:
                raise ConfigurationError(f"{path}: trajectory index {j} outside [0, {n})")
            buckets[j].append(float(t_str))
    return Sample.from_trajectories(
        (Trajectory(events=np.array(sorted(b)), horizon=horizon) for b in buckets), horizon)
