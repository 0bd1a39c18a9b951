"""Workload definitions: one run config and one CLI session per workload.

A session is the list of `pmaflow` commands a user would type, in order.
Each command runs in its own process, forked from a fresh interpreter
right after set-up (child.py), so every program cache starts cold, as it
does for a CLI user.  After the session, the commands
named in the workload's `rotation` run again, in that order and round
and round, while the run has time left; every run is a further sample.
The rotation repeats the short commands more often, so that each metric
gets several seconds of samples.
The seed given to the benchmark only picks the config's `seed`, which
drives the `random_band` initial condition (the README demo starts from
zero, so there it changes nothing numerically).
"""

from __future__ import annotations

import copy

# The config seeds a benchmark seed maps onto, by `seed % len(...)`.  Of
# config seeds 0-7, these three give the n=2 workload the same Newton
# iterations per step and matvec counts within 5% of one another, so the
# seed changes the initial condition but hardly the amount of work.
# Reference outputs are recorded for each of them.
CONFIG_SEEDS = (0, 3, 5)

_ESTIMATES = {"entropy_p": 2.0, "beta": 0.25, "alpha0": 1.0}
_RHS = {"kind": "smooth_product", "spatial_amplitude": 0.4,
        "profile": "decay", "p0": 2.0}

# The README demo config, verbatim apart from the seed.
_README = {
    "grid": {"n_complex": 1, "points_per_axis": 64},
    "flow": {"equation": "ma", "T": 1.0, "dt": 0.01},
    "rhs": _RHS,
    "estimates": _ESTIMATES,
    "seed": 7,
    "label": "demo",
}

# Complex dimension 2 at N=16, four steps of the general symbol flow
# (sigma_2 / sigma_1) from a seeded random admissible field.  N >= 24
# waits for a faster matvec.
_SIGMA_N2 = {
    "grid": {"n_complex": 2, "points_per_axis": 16},
    "flow": {"equation": "hessian", "symbol": "sigma_quotient", "k": 2,
             "l": 1, "T": 0.04, "dt": 0.01,
             "initial_condition": "random_band"},
    "rhs": _RHS,
    "estimates": _ESTIMATES,
    "seed": 7,
    "label": "sigma_n2",
}


_ESTIMATE = {"key": "estimate",
             "argv": ["estimate", "--config", "{cfg}", "--out", "{out}"]}
_REGULARIZE = {"key": "regularize",
               "argv": ["regularize", "--traj", "{checkpoint}",
                        "--epsilon", "0.125", "--out", "{out}"]}
_MAXPRINCIPLE = {"key": "maxprinciple",
                 "argv": ["maxprinciple", "--dim", "3", "--out", "{out}"]}
_REPORT = {"key": "report", "argv": ["report", "--dir", "{estimate}"]}


def _sweep(axis: str, values: str, workers: int) -> dict:
    return {"key": "sweep",
            "argv": ["sweep", "--config", "{cfg}", "--axis", axis,
                     "--values", values, "--workers", str(workers),
                     "--out", "{out}"]}


WORKLOADS = {
    # The README session: tiny arrays, 100 cheap steps, overhead-bound.
    # Its sweep has one worker, not the README's two: the benchmark runs
    # on one CPU (run.py), and a second worker would only time-slice it.
    "readme_session": {
        "config": _README,
        "session": [_ESTIMATE,
                    _sweep("flow.dt", "0.02,0.01,0.005", 1),
                    _REGULARIZE, _MAXPRINCIPLE, _REPORT],
        "rotation": ["regularize", "estimate", "regularize", "sweep",
                     "estimate", "maxprinciple", "estimate", "regularize"],
    },
    # FFT- and Krylov-bound through the general symbol path: the complex
    # (..., 2, 2) Hessian tensors exceed L2, the matvec dominates, and the
    # shared Newton driver runs with the eigen-projector linearization and
    # the scalar-rate predictor.  Its sweep (a single one-step run) and the
    # max-principle battery, which takes no input from the workload, are
    # there so that it reports every metric.
    "sigma_n2": {
        "config": _SIGMA_N2,
        "session": [_ESTIMATE, _sweep("flow.T", "0.01", 1), _REGULARIZE,
                    _MAXPRINCIPLE, _REPORT],
        "rotation": ["sweep", "regularize", "estimate", "sweep",
                     "regularize", "maxprinciple", "sweep", "regularize"],
    },
}


def config_for(workload: str, seed: int) -> dict:
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    cfg["seed"] = CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]
    return cfg


def command(workload: str, key: str, paths: dict) -> dict:
    """The workload's command `key` with `{cfg}`, `{out}`, `{estimate}` and
    `{checkpoint}` filled in from `paths`."""
    cmd = next(c for c in WORKLOADS[workload]["session"] if c["key"] == key)
    return {"key": key, "argv": [a.format(**paths) for a in cmd["argv"]]}
