"""pmaflow benchmark: wall time of the CLI commands a user runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json

Run from the repository root.  A run executes the workload's CLI session
(workloads.py), each command in a fresh interpreter through
`pmaflow.cli.main`, then runs the workload's rotation of commands again
while another one fits in `--seconds`.  Each interpreter also times its
own set-up (child.py).  Before each command the benchmark times a fixed
calibration kernel (`calibrate`); every time metric is the median of its
samples scaled by the run's host speed, CALIBRATION_REF_S over the median
calibration time.  Every command is checked against the outputs recorded
in reference.json.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

With `--trace 1` the session runs untraced, then traced (tracer.py), and
the traced estimate runs once more: the traced outputs must equal the
untraced ones, the solver counters must repeat exactly, and the metrics
are the per-layer ones plus the tracing overhead.  The spans are written
to .perfbench-runs/ when the run ends.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, counters, layer_metrics  # noqa: E402
from workloads import CONFIG_SEEDS, WORKLOADS, command, config_for  # noqa: E402

REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170.0        # every run ends well inside 180 s
RTOL, ATOL = 1e-6, 1e-9    # admits reordered-sum round-off, not a new algorithm
# Median time of `calibrate` on the 2-vCPU Xeon host the bounds were set
# on; the time metrics are in seconds of that host.
CALIBRATION_REF_S = 0.195
TIME_METRICS = ("setup_s", "estimate_s", "sweep_s", "regularize_s",
                "maxprinciple_s")
E2E_UNITS = {**dict.fromkeys(TIME_METRICS, "s"), "peak_rss_mb": "MB",
             "estimate_rss_mb": "MB"}
PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate() -> float:
    """Seconds for a fixed mix of the work pmaflow does: FFTs of a complex
    n=2, N=16 field (larger than L2), batched 3x3 LAPACK calls and an
    interpreter-bound loop, about a third each on the reference host.  It
    runs in the benchmark's own process and depends on numpy and the host
    only, never on pmaflow."""
    import numpy as np

    rng = np.random.default_rng(0)
    field = rng.standard_normal((16,) * 4) + 0j
    mats = rng.standard_normal((32768, 3, 3))
    mats += mats.transpose(0, 2, 1).copy()
    t0 = time.perf_counter()
    for _ in range(12):
        np.fft.ifftn(np.fft.fftn(field))
    np.linalg.eigvalsh(mats)
    np.linalg.det(mats)
    acc = 0
    for i in range(600_000):
        acc += (i * i) % 7
    return time.perf_counter() - t0


class Server:
    """One fresh interpreter (child.py) that runs commands in forked children.

    It is started in a session of its own, so that closing it also ends a
    forked child that is still running.
    """

    def __init__(self, root: Path, work_dir: Path, cfg_path: Path,
                 trace: bool, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self._buf = b""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._stderr = open(work_dir / f"server-{time.monotonic_ns()}.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(cfg_path)]
            + (["--trace"] if trace else []),
            cwd=work_dir, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._stderr,
            start_new_session=True)
        try:
            ready = json.loads(self._readline().split(" ", 1)[1])
        except (OSError, EOFError, TimeoutError, IndexError, ValueError):
            self.close()
            raise RuntimeError("child.py did not start; see " + self._stderr.name)
        self.setup_s = ready["setup_s"]
        self.env = ready["env"]

    def _readline(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 4096)
            if not chunk:
                raise EOFError
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def command(self, argv: list[str], n: int) -> tuple[dict | None, str]:
        """Run one command in a forked child: (result, stdout)."""
        result = self.work_dir / f"result-{n}.json"
        out = self.work_dir / f"stdout-{n}.txt"
        request = {"argv": argv, "result": str(result), "stdout": str(out)}
        result.unlink(missing_ok=True)
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
            status = int(self._readline().split()[1])
        except (OSError, EOFError, TimeoutError, IndexError, ValueError):
            sys.stderr.write(f"no answer from child.py: {argv}\n")
            self.close()
            return None, ""
        stdout = out.read_text() if out.exists() else ""
        if status != 0 or not result.exists():
            sys.stderr.write(stdout[-4000:])
            return None, stdout
        return json.loads(result.read_text()), stdout

    def close(self) -> None:
        """End the interpreter and any forked child; wait for both."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


# ---------------------------------------------------------------------------
# recorded outputs and the correctness gate


def _flatten(value, prefix: str, out: dict) -> dict:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def outputs(key: str, argv: list[str], stdout: str) -> dict:
    """The recorded outputs of one command, flattened to path -> scalar."""
    if key == "report":
        return {line.split(":")[0]: line.split(":")[1].strip()
                for line in stdout.splitlines() if line.startswith("check ")}
    out_dir = Path(argv[argv.index("--out") + 1])
    if key == "sweep":
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = [{k: _cell(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        return _flatten(rows, "rows", {})
    name = {"estimate": "report.json", "regularize": "regularize.json",
            "maxprinciple": "maxprinciple.json"}[key]
    return _flatten(json.loads((out_dir / name).read_text()), "", {})


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def gate(key: str, rc, got: dict, ref: dict) -> list[str]:
    """Reasons the operation fails; empty when it passes.

    A check recorded False may turn True (a defect fixed); a check recorded
    True that turns False fails, as does any exit code 1.
    """
    reasons = []
    if rc not in (0, 2):
        reasons.append(f"exit code {rc}")
    elif rc == 2 and ref["rc"] == 0:
        reasons.append("invariant checks failed (exit code 2)")
    for path, want in ref["outputs"].items():
        if path not in got:
            reasons.append(f"{path}: missing")
            continue
        have = got[path]
        if isinstance(want, bool) or isinstance(have, bool):
            if want is True and have is not True:
                reasons.append(f"{path}: {want} -> {have}")
        elif key == "report" and want == "FAIL":
            continue
        elif not _close(have, want):
            reasons.append(f"{path}: {want!r} -> {have!r}")
    return reasons


def expected_false(ref: dict) -> list[str]:
    return [p for p, v in ref["outputs"].items()
            if v is False or v == "FAIL"]


# ---------------------------------------------------------------------------
# sessions


class Session:
    """The commands of one workload run against one output directory.

    Every command writes to its own directory; `regularize` reads the first
    estimate's checkpoint and `report` its directory.  The commands run in
    the forked children of one fresh interpreter until `restart`.
    """

    def __init__(self, run_dir: Path, workload: str, cfg_path: Path,
                 tag: str, deadline: float, trace: bool = False,
                 calibrated: bool = False):
        self.workload = workload
        self.cfg_path = cfg_path
        self.dir = run_dir / tag
        self.dir.mkdir()
        self.deadline = deadline
        self.trace = trace
        self.calibrated = calibrated
        self.done: list[dict] = []
        self.setups: list[float] = []   # one set-up time per interpreter
        self.env: dict = {}
        self.server: Server | None = None
        self._count: dict[str, int] = {}
        self._start_s = 0.0

    def restart(self) -> None:
        """Run the next commands in a new fresh interpreter."""
        self.close()
        t0 = time.monotonic()
        self.server = Server(Path.cwd(), self.dir, self.cfg_path,
                             self.trace, self.deadline)
        self._start_s = time.monotonic() - t0
        self.setups.append(self.server.setup_s)
        self.env = self.server.env

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def run(self, key: str) -> dict:
        if self.server is None:
            self.restart()
        n = self._count[key] = self._count.get(key, 0) + 1
        first = self.dir / "estimate-1"
        cmd = command(self.workload, key, {
            "cfg": self.cfg_path, "out": self.dir / f"{key}-{n}",
            "estimate": first, "checkpoint": first / "trajectory.bin"})
        t0 = time.monotonic()
        cal = calibrate() if self.calibrated else None
        rec, stdout = self.server.command(cmd["argv"], len(self.done))
        if rec is None:
            self.close()
        got = None
        if rec is not None and rec["rc"] != 1:
            try:
                got = outputs(key, cmd["argv"], stdout)
            except (OSError, ValueError) as exc:
                sys.stderr.write(f"{self.workload} {key}: {exc}\n")
        op = {"key": key, "rec": rec, "outputs": got, "calibration_s": cal,
              "took": time.monotonic() - t0}
        self.done.append(op)
        return op

    def run_session(self, commands: int | None = None) -> list[dict]:
        """The workload's session (its first `commands` commands, or all)."""
        keys = [c["key"] for c in WORKLOADS[self.workload]["session"]]
        return [self.run(key) for key in keys[:commands]]

    def rotate_until(self, deadline: float) -> None:
        """Run rounds of the rotation, each in a new fresh interpreter, and
        in each round every command that its last run says fits before
        `deadline`; stop when none fits."""
        took = {op["key"]: op["took"] for op in self.done}
        rotation = WORKLOADS[self.workload]["rotation"]
        while (time.monotonic() + self._start_s
               + min(took[k] for k in rotation) <= deadline):
            self.restart()
            for key in rotation:
                if time.monotonic() + took[key] <= deadline:
                    took[key] = self.run(key)["took"]


def check_ops(done: list[dict], ref: dict, workload: str) -> int:
    failed = 0
    for op in done:
        rc = op["rec"]["rc"] if op["rec"] else None
        reasons = ([f"no outputs (exit code {rc})"] if op["outputs"] is None
                   else gate(op["key"], rc, op["outputs"], ref[op["key"]]))
        if reasons:
            failed += 1
            print(f"FAIL {workload} {op['key']}: " + "; ".join(reasons[:8]))
    return failed


# ---------------------------------------------------------------------------
# entry point


def _environment(nproc: int, child_env: dict) -> dict:
    env = {"nproc": nproc, "benchmark_cpus": sorted(os.sched_getaffinity(0)),
           **child_env}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True,
                                  text=True, timeout=10)
            env[level.lower()] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            env[level.lower()] = None
    return env


def record(root: Path) -> int:
    """Run every workload's session once per config seed; store its outputs."""
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for i in range(len(CONFIG_SEEDS)):
            cfg = config_for(workload, i)
            seed = cfg["seed"]
            run_dir = _fresh_run_dir(root, f"record-{workload}-{seed}")
            cfg_path = run_dir / "config.json"
            cfg_path.write_text(json.dumps(cfg))
            session = Session(run_dir, workload, cfg_path, "s0",
                              time.monotonic() + 600.0)
            try:
                done = session.run_session()
            finally:
                session.close()
            entry = {}
            for op in done:
                if op["outputs"] is None or op["rec"]["rc"] == 1:
                    print(f"{workload} seed {seed} {op['key']} failed",
                          file=sys.stderr)
                    return 1
                entry[op["key"]] = {"rc": op["rec"]["rc"],
                                    "outputs": op["outputs"]}
            reference[workload][str(seed)] = entry
            shutil.rmtree(run_dir)
            print(f"recorded {workload} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    return 0


def _fresh_run_dir(root: Path, tag: str) -> Path:
    run_dir = root / ".perfbench-runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pmaflow" / "cli.py").is_file():
        print("run from the repository root: src/pmaflow/cli.py not found",
              file=sys.stderr)
        return 2
    # before numpy is imported here (calibrate) or in a child
    for var in PIN_THREADS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the benchmark and every child: the calibration then runs
    # on the CPU the commands run on, and no command depends on a second
    # vCPU that the host's other tenants load differently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.record:
        return record(root)
    if args.workload is None:
        parser.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}; run with --record", file=sys.stderr)
        return 2
    cfg = config_for(args.workload, args.seed)
    ref = json.loads(REFERENCE.read_text())[args.workload][str(cfg["seed"])]

    run_dir = _fresh_run_dir(root, f"{args.workload}-s{args.seed}")
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    sessions: list[Session] = []
    try:
        return _measure(args, run_dir, cfg_path, ref, sessions, nproc)
    finally:
        for session in sessions:
            session.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, run_dir: Path, cfg_path: Path, ref: dict,
             sessions: list, nproc: int) -> int:
    workload = args.workload
    start = time.monotonic()

    def session(tag: str, trace: bool = False) -> Session:
        sessions.append(Session(run_dir, workload, cfg_path, tag,
                                start + RUN_LIMIT_S, trace=trace,
                                calibrated=not args.trace))
        return sessions[-1]

    if not args.trace:
        calibrate()  # warm-up: numpy import, FFT plans, LAPACK start-up
    untraced = session("untraced")
    first = untraced.run_session()
    if not args.trace:
        untraced.rotate_until(start + args.seconds)
    untraced.close()
    print("env: " + json.dumps(_environment(nproc, untraced.env),
                               sort_keys=True))
    for path in sorted({p for op in ref.values() for p in expected_false(op)}):
        print(f"expected False at baseline: {path}")
    attempted = len(untraced.done)
    failed = check_ops(untraced.done, ref, workload)
    correct = failed == 0

    if args.trace:
        traced = session("traced", trace=True)
        traced.run_session()
        traced.close()
        again = session("traced-again", trace=True)
        again.run_session(commands=1)
        again.close()
        ops = traced.done + again.done
        attempted += len(ops)
        failed += check_ops(ops, ref, workload)
        correct = failed == 0 and _trace_consistent(first, traced.done,
                                                    again.done)
        metrics = _trace_metrics(first, traced.done, workload, args.seed)
    else:
        metrics = _e2e_metrics(untraced)

    print(f"{workload}: attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _e2e_metrics(session: Session) -> dict:
    """Medians over every sample, times scaled by the run's host speed; a
    command whose process died is left out."""
    done = session.done
    samples: dict[str, list[float]] = {"setup_s": session.setups}
    rss: dict[str, list[float]] = {}
    for op in done:
        rec = op["rec"]
        if rec is None:
            continue
        if op["key"] != "report":
            samples.setdefault(f"{op['key']}_s", []).append(rec["wall_s"])
        rss.setdefault(op["key"], []).append(rec["peak_rss_mb"])
    cal = statistics.median(op["calibration_s"] for op in done)
    speed = CALIBRATION_REF_S / cal
    raw = {k: statistics.median(v) for k, v in samples.items()}
    values = {k: v * speed for k, v in raw.items()}
    if rss:
        values["peak_rss_mb"] = max(statistics.median(v) for v in rss.values())
    if rss.get("estimate"):
        values["estimate_rss_mb"] = statistics.median(rss["estimate"])
    print(f"host speed: calibration median {cal:.4f} s over {len(done)} "
          f"samples, reference {CALIBRATION_REF_S:.3f} s, scale {speed:.4f}")
    print("unscaled medians (s): " + json.dumps(
        {k: round(v, 4) for k, v in raw.items()}))
    print("set-up samples (s): " + json.dumps(
        [round(x, 4) for x in session.setups]))
    print("samples [command, wall s, calibration s]: " + json.dumps(
        [[op["key"], round(op["rec"]["wall_s"], 4),
          round(op["calibration_s"], 4)] for op in done if op["rec"]]))
    return {k: {"value": values[k], "unit": unit}
            for k, unit in E2E_UNITS.items() if k in values}


def _identical(a: dict | None, b: dict | None) -> bool:
    """Equal outputs, with NaN equal to NaN."""
    if a is None or b is None or a.keys() != b.keys():
        return False
    return all(x == y or (isinstance(x, float) and isinstance(y, float)
                          and math.isnan(x) and math.isnan(y))
               for x, y in ((a[k], b[k]) for k in a))


def _trace_consistent(untraced, traced, again) -> bool:
    ok = True
    for a, b in zip(untraced, traced):
        if not _identical(a["outputs"], b["outputs"]):
            print(f"traced {a['key']} outputs differ from the untraced run")
            ok = False
    if not traced[0]["rec"] or not again[0]["rec"]:
        return False
    first = counters([traced[0]["rec"]["trace"]])
    second = counters([again[0]["rec"]["trace"]])
    print("counters (traced estimate, twice): " + json.dumps(first))
    if first != second:
        print("counters differ between two runs: " + json.dumps(second))
        ok = False
    return ok


def _trace_metrics(untraced, traced, workload: str, seed: int) -> dict:
    records = [op["rec"]["trace"] for op in traced if op["rec"]]
    values, module_self = layer_metrics(records)
    walls = [(u["rec"]["wall_s"], t["rec"]["wall_s"])
             for u, t in zip(untraced, traced) if u["rec"] and t["rec"]]
    base = sum(u for u, _ in walls)
    values["trace.overhead_s"] = sum(t for _, t in walls) - base
    values["trace.overhead_ratio"] = (values["trace.overhead_s"] / base
                                      if base else 0.0)
    print("self time per layer (s): " + json.dumps(
        {k: round(v, 4) for k, v in sorted(module_self.items())}))
    out = Path(".perfbench-runs") / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed, "counters": counters(records),
        "span_fields": ["name", "start", "end", "parent", "thread"],
        "layer_self_s": module_self,
        "commands": [{"key": op["key"], "spans": op["rec"]["trace"]["spans"]}
                     for op in traced if op["rec"]]}))
    return {k: {"value": values[k], "unit": unit}
            for k, unit in LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
