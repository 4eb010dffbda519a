"""One fresh benchmark process; run.py starts it and reads the JSON it writes.

    child.py setup      SCENARIO RESULT
    child.py experiment SCENARIO RESULT OUT_PREFIX WORKERS
    child.py traced     SCENARIO RESULT OUT_PREFIX SPANS
    child.py fbm        SCENARIO RESULT

Every mode first times "fresh process to ready": importing poislim, building
the scenario, model and true intensity, and computing the limit parameters.
``experiment`` then times ``poislim.cli.main(["experiment", ...])``;
``traced`` does the same at one worker with the layer wrappers installed;
``fbm`` times one cold public ``limits.simulate_fbm`` call.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _setup(scenario_path):
    import poislim  # noqa: F401
    from poislim import limits
    from poislim.experiments import Scenario

    with open(scenario_path) as fh:
        doc = json.load(fh)
    scenario = Scenario.from_dict(doc)
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    limits.limit_params(scenario.regime, model, scenario.theta0, true_intensity=true_int)
    setup_s = time.perf_counter() - _T0
    iv = model.theta_interval
    return {
        "setup_s": setup_s,
        "theta_interval": [iv.alpha, iv.beta],
        "estimators": list(scenario.build_settings().estimators),
    }


def _blas():
    """Name, configuration and thread count of the OpenBLAS that numpy loaded."""
    import ctypes
    import glob
    import os

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    return info


def _context():
    import os
    import platform

    import numpy
    import scipy

    import poislim

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "poislim": poislim.__version__,
        "poislim_path": os.path.dirname(poislim.__file__),
        "blas": _blas(),
    }


def _cpu(which):
    ru = resource.getrusage(which)
    return ru.ru_utime + ru.ru_stime


def _own_peak_rss_kb():
    """Peak RSS of this process's own memory.

    ru_maxrss of an exec'd process also counts the RSS of the process that
    forked it, so read the high-water mark of the current address space.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_cli(scenario_path, out_prefix, workers):
    from poislim import cli

    self0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    rc = cli.main(["experiment", scenario_path, "--out-prefix", out_prefix,
                   "--workers", str(workers)])
    wall = time.perf_counter() - start
    return {
        "rc": rc,
        "wall_s": wall,
        "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - self0,
        "children_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - child0,
        "self_maxrss_kb": _own_peak_rss_kb(),
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def main(argv):
    mode, scenario_path, result_path, *rest = argv
    out = _setup(scenario_path)
    if mode == "setup":
        out["context"] = _context()
    elif mode == "experiment":
        out_prefix, workers = rest
        out.update(_run_cli(scenario_path, out_prefix, int(workers)))
    elif mode == "traced":
        from tracer import Tracer, install

        out_prefix, spans_path = rest
        tracer = Tracer()
        install(tracer)
        out.update(_run_cli(scenario_path, out_prefix, 1))
        tracer.write(spans_path)
    elif mode == "fbm":
        import numpy as np

        from poislim import limits
        from poislim.simulate import RngStream

        # the cusp limit law's default fBm: kappa 1/4, 2001 points on [-20, 20]
        params = limits.CuspParams(kappa=0.25, hurst=0.75, gamma_sq=1.0)
        grid = np.linspace(-params.grid_halfwidth, params.grid_halfwidth, params.grid_points)
        start = time.perf_counter()
        limits.simulate_fbm(params.hurst, grid, RngStream(0, 0))
        out["fbm_first_call_s"] = time.perf_counter() - start
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
