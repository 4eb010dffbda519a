"""Trajectory simulation by thinning and i.i.d. sample assembly.

Randomness comes from counter-based Philox streams keyed by
(master_seed, stream_index), so any trajectory can be regenerated
bit-identically regardless of execution order or worker count.  The
experiments harness maps (replicate, trajectory) pairs onto flat stream
indices as replicate_block * STREAM_STRIDE + trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class RngStream:
    """One independent random stream: (master_seed, stream_index) Philox key."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def offset(self, delta: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index + delta)


@dataclass(frozen=True)
class Trajectory:
    """One sorted record of event times on [0, horizon]."""

    events: np.ndarray
    horizon: float

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", ev)
        if ev.size:
            if ev[0] < 0.0 or ev[-1] > self.horizon:
                raise DomainError("event times outside [0, horizon]")
            if np.any(np.diff(ev) <= 0.0):
                raise DomainError("event times must be strictly increasing")

    def __len__(self):
        return int(self.events.size)


@dataclass(frozen=True)
class Sample:
    """n independent trajectories sharing one horizon."""

    trajectories: tuple
    horizon: float

    def __post_init__(self):
        for tr in self.trajectories:
            if abs(tr.horizon - self.horizon) > 1e-12:
                raise ConfigurationError("all trajectories must share the sample horizon")

    @property
    def n(self) -> int:
        return len(self.trajectories)

    def pooled_events(self) -> np.ndarray:
        """All event times of all trajectories, concatenated (order preserved)."""
        if not self.trajectories:
            return np.empty(0)
        return np.concatenate([tr.events for tr in self.trajectories])

    def total_events(self) -> int:
        return sum(len(tr) for tr in self.trajectories)


def _resolve_intensity(intensity):
    """Accept a TrueIntensity or a (model, theta) pair."""
    if isinstance(intensity, TrueIntensity):
        return intensity
    if isinstance(intensity, tuple) and len(intensity) == 2 and isinstance(intensity[0], IntensityModel):
        return TrueIntensity.from_model(intensity[0], intensity[1])
    raise ConfigurationError("intensity must be a TrueIntensity or (model, theta) pair")


def simulate_trajectory(intensity, rng: RngStream) -> Trajectory:
    """One trajectory by thinning homogeneous candidates at rate lambda_max.

    Draw order per stream is fixed (candidate count, positions, acceptance
    uniforms), which is what makes the output reproducible bit-for-bit.
    """
    ti = _resolve_intensity(intensity)
    lam_max = ti.lambda_max
    if lam_max < 0 or (lam_max == 0.0 and np.max(ti.value(np.linspace(0, ti.horizon, 64))) > 0):
        raise ConfigurationError("lambda_max must be positive for a nonzero intensity")
    g = rng.generator()
    if lam_max == 0.0:
        return Trajectory(events=np.empty(0), horizon=ti.horizon)
    n_cand = g.poisson(lam_max * ti.horizon)
    times = g.uniform(0.0, ti.horizon, size=n_cand)
    accept = g.uniform(0.0, 1.0, size=n_cand) * lam_max < ti.value(times)
    kept = np.sort(times[accept])
    # ties among float64 uniforms are effectively impossible but would break
    # the strictly-increasing invariant, so drop exact duplicates defensively
    if kept.size > 1:
        kept = kept[np.concatenate(([True], np.diff(kept) > 0.0))]
    return Trajectory(events=kept, horizon=ti.horizon)


def simulate_sample(intensity, n: int, rng_base: RngStream) -> Sample:
    """n independent trajectories; trajectory j uses stream_index base+j."""
    if n <= 0:
        raise DomainError(f"sample size must be >= 1, got {n}")
    ti = _resolve_intensity(intensity)
    trajectories = tuple(
        simulate_trajectory(ti, rng_base.offset(j)) for j in range(n)
    )
    return Sample(trajectories=trajectories, horizon=ti.horizon)


def slice_periodic(long_trajectory: Trajectory, tau: float) -> Sample:
    """Cut one record on [0, n*tau] into n pieces, each shifted back to [0, tau]."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    ratio = long_trajectory.horizon / tau
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9:
        raise DomainError(
            f"horizon {long_trajectory.horizon} is not an integer multiple of tau={tau}"
        )
    ev = long_trajectory.events
    pieces = []
    for j in range(n):
        lo, hi = j * tau, (j + 1) * tau
        chunk = ev[(ev >= lo) & (ev < hi)] - lo
        pieces.append(Trajectory(events=chunk, horizon=tau))
    return Sample(trajectories=tuple(pieces), horizon=tau)


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
    trajectories = tuple(
        Trajectory(events=np.array(sorted(b)), horizon=horizon) for b in buckets
    )
    return Sample(trajectories=trajectories, horizon=horizon)
