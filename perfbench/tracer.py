"""Span recorder that wraps poislim's public layer functions from outside.

Nothing under ``src/`` is edited: each wrapper is installed on the module or
class attribute that callers look up at run time.  A span keeps its name,
start, end, parent span and an optional work count.  Spans stay in memory and
are written once, when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index or -1, count]
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording one span per call; ``count(args, kwargs, result)``."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every poislim module the experiment path uses."""
    from poislim import cli, estimators, experiments, intensity, likelihood, limits

    tracer.patch(cli, "run_scenario", "experiments.run_scenario")
    tracer.patch(experiments.ExperimentReport, "write_table_csv", "cli.write")
    tracer.patch(experiments.ExperimentReport, "write_summary_json", "cli.write")
    tracer.patch(experiments, "ks_two_sample", "experiments.ks_two_sample")
    tracer.patch(experiments, "simulate_sample", "simulate.simulate_sample",
                 count=lambda a, k, s: (s.n, s.total_events()))
    tracer.patch(limits, "limit_params", "limits.limit_params")
    tracer.patch(limits, "sample_limit_batch", "limits.sample_limit_batch",
                 count=lambda a, k, out: int(np.size(out)))
    tracer.patch(estimators, "mle", "estimators.mle")
    tracer.patch(estimators, "bayes", "estimators.bayes")
    tracer.patch(likelihood.LikelihoodEvaluator, "values", "likelihood.values",
                 count=lambda a, k, out: int(np.size(out)))
    for cls in vars(intensity).values():
        if isinstance(cls, type) and "event_log_sums" in vars(cls):
            tracer.patch(cls, "event_log_sums", "intensity.event_log_sums",
                         count=lambda a, k, out: int(np.size(a[1]) * np.size(a[2])))
