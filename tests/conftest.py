import numpy as np
import pytest
from dataclasses import dataclass

from poislim.intensity import IntensityModel, ParameterInterval


@dataclass(frozen=True)
class FlatModel(IntensityModel):
    """lambda(theta, t) = level, independent of theta (tie-break test bed)."""

    catalog_id = "FLAT"
    smoothness_order = 3

    level: float = 1.0
    theta_interval: ParameterInterval = ParameterInterval(0.2, 1.7)

    def _lambda_bound(self):
        return self.level

    def _value(self, theta, t, theta_side=0):
        return np.full(np.broadcast_shapes(np.shape(theta), np.shape(t)), self.level)

    def _dtheta(self, theta, t, order, side):
        return np.zeros_like(t)

    def integral_hint(self, thetas, lo, hi):
        return np.full(np.shape(thetas), self.level * (hi - lo))


@pytest.fixture
def flat_model():
    return FlatModel()


@pytest.fixture
def term_passes(monkeypatch):
    """The (theta_side, thetas) of every ``IntensityModel.event_log_terms`` pass
    made while the test runs, in order."""
    passes = []
    terms = IntensityModel.event_log_terms

    def counted(self, thetas, events, theta_side=0):
        passes.append((theta_side, np.atleast_1d(np.asarray(thetas, dtype=float)).copy()))
        return terms(self, thetas, events, theta_side)

    monkeypatch.setattr(IntensityModel, "event_log_terms", counted)
    return passes
