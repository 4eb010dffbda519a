import math

import numpy as np
import pytest
from scipy import stats

import poislim as pl
from poislim.errors import ConfigurationError, DomainError
from poislim.simulate import (
    RngStream,
    Sample,
    Trajectory,
    read_events_csv,
    simulate_sample,
    simulate_trajectory,
    slice_periodic,
    write_events_csv,
)


def const_intensity(level, horizon=1.0, lambda_max=None):
    return pl.TrueIntensity(fn=lambda t: np.full_like(t, float(level)),
                            horizon=horizon,
                            lambda_max=level if lambda_max is None else lambda_max)


def test_zero_intensity_gives_empty_trajectory():
    ti = pl.TrueIntensity(fn=lambda t: np.zeros_like(t), horizon=1.0, lambda_max=0.0)
    tr = simulate_trajectory(ti, RngStream(0, 0))
    assert len(tr) == 0


def test_counts_match_poisson_moments_and_gof():
    lam2 = const_intensity(2.0)
    # the sample's n candidate counts are n Poisson draws of one stream, and the
    # thinned counts are Poisson(2) whatever the draws that follow them
    counts = np.diff(simulate_sample(lam2, 100_000, RngStream(11, 0)).offsets)
    assert counts.mean() == pytest.approx(2.0, abs=0.02)
    assert counts.var() == pytest.approx(2.0, abs=0.05)
    # chi-square goodness of fit against Poisson(2), tail binned
    kmax = 9
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    probs = stats.poisson.pmf(np.arange(kmax), 2.0)
    probs = np.append(probs, 1.0 - probs.sum())
    _, p = stats.chisquare(observed, probs * counts.size)
    assert p > 0.001


def test_mean_count_matches_cumulative():
    null = pl.make_model("NULLFI_SINE")
    lam = pl.TrueIntensity.from_model(null, 0.5)
    counts = np.diff(simulate_sample(lam, 100_000, RngStream(12, 0)).offsets)
    expect = pl.cumulative(null, 0.5, null.horizon)
    se = math.sqrt(expect / counts.size)
    assert abs(counts.mean() - expect) <= 3.0 * se


def test_thinning_is_bound_independent():
    tight = const_intensity(2.0)
    loose = const_intensity(2.0, lambda_max=4.0)
    a = np.diff(simulate_sample(tight, 10_000, RngStream(13, 0)).offsets)
    b = np.diff(simulate_sample(loose, 10_000, RngStream(14, 0)).offsets)
    assert pl.ks_two_sample(a, b) < 0.02


def test_determinism_and_stream_independence():
    reg = pl.make_model("REGULAR_EXP")
    s1 = simulate_sample((reg, 0.5), 300, RngStream(99, 10))
    s2 = simulate_sample((reg, 0.5), 300, RngStream(99, 10))
    # the same key gives the same sample, bit for bit
    assert np.array_equal(s1.offsets, s2.offsets)
    assert np.array_equal(s1.events, s2.events)
    # another stream index, or another seed, gives another sample
    for key in (RngStream(99, 11), RngStream(98, 10)):
        other = simulate_sample((reg, 0.5), 300, key)
        assert not (other.events.size == s1.events.size
                    and np.array_equal(other.events, s1.events))


def test_sample_size_contracts():
    reg = pl.make_model("REGULAR_EXP")
    with pytest.raises(DomainError):
        simulate_sample((reg, 0.5), 0, RngStream(1, 0))
    lam1 = const_intensity(1.0)
    s = simulate_sample(lam1, 1000, RngStream(15, 0))
    total = s.total_events()
    assert abs(total - 1000.0) <= 4.0 * math.sqrt(1000.0)


def test_slice_periodic_examples():
    tr = Trajectory(events=np.array([0.5, 1.5]), horizon=2.0)
    pieces = slice_periodic(tr, 1.0)
    assert pieces.n == 2
    assert np.allclose(pieces.trajectories[0].events, [0.5])
    assert np.allclose(pieces.trajectories[1].events, [0.5])
    empty = slice_periodic(Trajectory(events=np.empty(0), horizon=3.0), 1.0)
    assert empty.n == 3 and all(len(t) == 0 for t in empty.trajectories)
    with pytest.raises(DomainError):
        slice_periodic(Trajectory(events=np.empty(0), horizon=2.5), 1.0)


def test_slice_periodic_matches_direct_simulation():
    lam_long = pl.TrueIntensity(fn=lambda t: np.full_like(t, 2.0),
                                horizon=10_000.0, lambda_max=2.0)
    long_tr = simulate_trajectory(lam_long, RngStream(16, 0))
    sliced = slice_periodic(long_tr, 1.0)
    direct = simulate_sample(const_intensity(2.0), 10_000, RngStream(17, 0))
    a = np.array([len(t) for t in sliced.trajectories])
    b = np.array([len(t) for t in direct.trajectories])
    assert pl.ks_two_sample(a, b) < 0.02


def test_trajectory_validation():
    with pytest.raises(DomainError):
        Trajectory(events=np.array([0.2, 0.1]), horizon=1.0)
    with pytest.raises(DomainError):
        Trajectory(events=np.array([0.2, 1.5]), horizon=1.0)


@pytest.mark.parametrize("events", [[0.1, np.nan], [np.nan], [np.nan, 0.5], [0.2, np.inf]])
def test_non_finite_event_times_rejected(events):
    ev = np.array(events)
    with pytest.raises(DomainError, match="finite"):
        Trajectory(events=ev, horizon=1.0)
    with pytest.raises(DomainError, match="finite"):
        Sample(ev, np.array([0, ev.size]), 1.0)
    with pytest.raises(DomainError, match="finite"):
        Sample(ev, np.arange(ev.size + 1), 1.0)


def test_sample_csr_validation():
    # decreasing times are fine across a record boundary, not inside a record
    s = Sample(np.array([0.5, 0.2]), np.array([0, 1, 2]), 1.0)
    assert s.n == 2 and [len(t) for t in s.trajectories] == [1, 1]
    with pytest.raises(DomainError, match="increasing"):
        Sample(np.array([0.5, 0.2]), np.array([0, 2]), 1.0)
    with pytest.raises(DomainError, match="increasing"):
        Sample(np.array([0.1, 0.5, 0.5]), np.array([0, 1, 3]), 1.0)
    with pytest.raises(DomainError, match="outside"):
        Sample(np.array([0.5, 1.5]), np.array([0, 1, 2]), 1.0)
    for offsets in ([1, 2], [0, 1], [0, 2, 1, 2], [], [0.0, 2.0]):
        with pytest.raises(DomainError, match="offsets"):
            Sample(np.array([0.1, 0.2]), np.array(offsets), 1.0)
    empty = Sample(np.empty(0), np.zeros(4, dtype=np.int64), 2.0)
    assert empty.n == 3 and empty.total_events() == 0 and empty[1:].n == 2
    with pytest.raises(ConfigurationError, match="horizon"):
        Sample.from_trajectories([Trajectory(np.array([0.5]), 2.0)], 1.0)


def test_events_csv_roundtrip(tmp_path):
    reg = pl.make_model("REGULAR_EXP")
    s = simulate_sample((reg, 0.5), 5, RngStream(18, 0))
    path = tmp_path / "events.csv"
    write_events_csv(s, path)
    back = read_events_csv(path, 5, 1.0)
    for a, b in zip(s.trajectories, back.trajectories):
        assert np.array_equal(a.events, b.events)


@pytest.mark.parametrize("index", [-1, 3])
def test_events_csv_rejects_out_of_range_index(tmp_path, index):
    path = tmp_path / "events.csv"
    path.write_text(f"trajectory_index,event_time\n0,0.25\n{index},0.5\n")
    with pytest.raises(ConfigurationError, match="trajectory index"):
        read_events_csv(path, 3, 1.0)


_MASK64 = 0xFFFFFFFFFFFFFFFF


def one_stream_thinning(ti, n, rng):
    """Reference: the sample from one generator, then a plain per-trajectory loop."""
    g = rng.generator()
    counts = g.poisson(ti.lambda_max * ti.horizon, n)
    times = g.uniform(0.0, ti.horizon, counts.sum())
    accept = g.uniform(0.0, 1.0, counts.sum()) * ti.lambda_max < ti.value(times)
    out = []
    for t, a in zip(np.split(times, np.cumsum(counts)[:-1]),
                    np.split(accept, np.cumsum(counts)[:-1])):
        kept = np.sort(t[a])
        if kept.size > 1:
            kept = kept[np.concatenate(([True], np.diff(kept) > 0.0))]
        out.append(kept)
    return out


def per_trajectory_key_thinning(ti, rng):
    """Reference of a size-1 sample: count, positions, uniforms from a fresh Philox
    keyed (seed, index), the layout in which every trajectory had its own key."""
    key = np.array([rng.master_seed & _MASK64, rng.stream_index & _MASK64], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=key))
    n_cand = g.poisson(ti.lambda_max * ti.horizon)
    times = g.uniform(0.0, ti.horizon, size=n_cand)
    accept = g.uniform(0.0, 1.0, size=n_cand) * ti.lambda_max < ti.value(times)
    return np.unique(times[accept])


def oracle_intensities():
    models = {cid: pl.make_model(cid) for cid in
              ("REGULAR_EXP", "CUSP", "JUMP_SHIFT", "SUFFWIN_LINEAR", "CHANGEPOINT")}
    cases = {cid: pl.TrueIntensity.from_model(m, 0.5) for cid, m in models.items()
             if cid != "CHANGEPOINT"}
    cases["contaminated"] = pl.TrueIntensity.contaminated(
        models["REGULAR_EXP"], 0.3, lambda t: 0.5 + 0.5 * np.sin(2 * np.pi * t), h_max=1.0)
    cp = models["CHANGEPOINT"]
    cases["changepoint"] = pl.TrueIntensity.changepoint(cp.g1, cp.g2, 0.5, -0.25, 0.4)
    # candidate mean 60: Generator.poisson's rejection branch (mean >= 10)
    cases["long-record"] = pl.TrueIntensity(
        fn=lambda t: 2.0 + np.sin(2 * np.pi * t), horizon=20.0, lambda_max=3.0)
    return cases


@pytest.mark.parametrize("name", list(oracle_intensities()))
@pytest.mark.parametrize("n, base", [(1, RngStream(3, 0)), (300, RngStream(21, 17))])
def test_simulate_sample_matches_per_stream_oracle(name, n, base):
    # the whole sample comes from the one stream it is given
    ti = oracle_intensities()[name]
    sample = simulate_sample(ti, n, base)
    expect = one_stream_thinning(ti, n, base)
    assert sample.n == n
    assert sample.total_events() == sum(e.size for e in expect)
    for tr, ev in zip(sample.trajectories, expect):
        assert np.array_equal(tr.events, ev)
    single = simulate_trajectory(ti, base)
    assert np.array_equal(single.events, simulate_sample(ti, 1, base).trajectories[0].events)
    # a size-1 sample draws what one trajectory of its own key always drew
    assert np.array_equal(single.events, per_trajectory_key_thinning(ti, base))
