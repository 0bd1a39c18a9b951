"""A fresh interpreter that runs `pmaflow` commands, each in a forked child.

    python3 child.py <config.json> [--trace]

First it times the set-up every CLI call pays before it computes anything:
importing `pmaflow.cli`, parsing the workload's config and building the
grid, the right-hand side and phi_0.  Nothing but the standard library is
imported before that.  It then writes one line, `ready <json>`, with the
set-up time and the library versions, and reads requests from standard
input, one JSON object per line: `argv`, the pmaflow arguments; `result`,
the file for the result; `stdout`, the file for the command's output.  For
each it forks; the child, which starts as a fresh interpreter is right
after the set-up, times `pmaflow.cli.main(argv)` (with `--trace` it first
wraps the public functions of each module, see tracer.py), writes its
result file and exits.  The interpreter waits for the child and answers
`done <exit status>`.  It ends at the end of its input.
"""

import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_inputs(cfg_text: str):
    """Parse the config and build grid, rhs and phi_0 through the public API."""
    import numpy as np
    from pmaflow import RhsSpec, TorusGrid, random_admissible_field
    from pmaflow.cli import RunConfig

    cfg = RunConfig.from_json(cfg_text)
    g = cfg.grid
    grid = TorusGrid(g.n_complex, g.points_per_axis, g.period, g.derivative_mode)
    r = cfg.rhs
    if r.kind != "smooth_product" or r.profile != "decay":
        raise ValueError("set-up timing covers the benchmark's smooth_product rhs only")
    mode = 2.0 * np.pi * r.spatial_mode / grid.period
    rhs = RhsSpec.smooth_product(
        lambda *xs: r.spatial_amplitude * np.cos(mode * xs[0]),
        lambda t: np.exp(-t), p0=r.p0, scale=r.scale)
    f = cfg.flow
    if f.initial_condition == "random_band":
        phi0 = random_admissible_field(grid, np.random.default_rng(cfg.seed),
                                       margin=f.ic_margin,
                                       amplitude=f.ic_amplitude)
    else:
        phi0 = grid.constant_field(0.0)
    return grid, rhs, phi0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_forked(request: dict, trace: bool) -> None:
    """In the forked child: run one command, write its result, exit."""
    status = 1
    try:
        fd = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        import pmaflow.cli as cli

        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        rc = cli.main(request["argv"])
        out = {"rc": rc, "wall_s": time.perf_counter() - t0,
               "peak_rss_mb": _peak_rss_mb()}
        if tracer is not None:
            out["trace"] = tracer.dump()
        with open(request["result"], "w") as fh:
            json.dump(out, fh)
        status = 0
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)


def main(args: list[str]) -> int:
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    trace = "--trace" in args[1:]
    with open(args[0]) as fh:
        cfg_text = fh.read()

    t0 = time.perf_counter()
    import pmaflow.cli  # noqa: F401
    _build_inputs(cfg_text)
    setup_s = time.perf_counter() - t0

    print("ready " + json.dumps({"setup_s": setup_s, "env": _environment()}),
          flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _run_forked(request, trace)
        _, status = os.waitpid(pid, 0)
        print(f"done {os.waitstatus_to_exitcode(status)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
