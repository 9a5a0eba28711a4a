"""stereorig benchmark: end-to-end metrics per workload, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload merge-sbs-1080p --seed 1 --seconds 40 --trace 0

Run from the root of a stereorig checkout; the program is taken from its
src/ directory. Inputs are generated from --seed under .perfbench-work/.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads, metrics and sources of noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from checks import CheckError, check_merge_listing, check_merge_pixels, check_rig, frame_name, frame_size
from inputs import PAIRS, PROBE_PAIRS, TOL_MS, WORK_DIR, ensure_merge_inputs, rig_plan

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, WORK_DIR)
PY = sys.executable
SETUP_SAMPLES = 5
PIXEL_CHECK_STRIDE = 5  # every 5th frame of the last run, offset by the seed
IMPORT_SAMPLES = 5
SYNC_WORKERS = 5  # per-process speed differs by up to 10%; the median spans several
POLL_S = 0.001
CHILD_TIMEOUT_S = 120.0

CLI_READY = "import stereorig.cli"
SYNC_READY = (
    "import importlib.resources, stereorig.syncproto; from stereorig import registry; "
    "registry.parse_device_specs(importlib.resources.files('stereorig.data')"
    ".joinpath('devices.json').read_text('utf-8'))"
)


@dataclass
class Run:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    first_output_s: float | None = None


def _complete(watch: tuple[str, int]) -> bool:
    try:
        return os.stat(watch[0]).st_size >= watch[1]
    except FileNotFoundError:
        return False


def run_program(argv: list[str], cwd: str = ROOT, watch: tuple[str, int] | None = None) -> Run:
    """Run one program process to its end; wall time from launch, peak RSS from wait4.

    With `watch` = (path, size), also poll for when that file first reaches
    its full size. stdout and stderr go to files, so no pipe can fill. A
    child still running after CHILD_TIMEOUT_S is killed.
    """
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        first = None
        try:
            if watch is None:
                _, status, usage = os.wait4(proc.pid, 0)
            while watch is not None:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if first is None and _complete(watch):
                    first = time.perf_counter() - t0
                time.sleep(POLL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall > CHILD_TIMEOUT_S:
            raise CheckError(f"{' '.join(argv[1:4])} killed after {CHILD_TIMEOUT_S:.0f} s")
        if watch is not None and first is None and _complete(watch):
            first = wall  # written within the last poll interval
        out.seek(0)
        err.seek(0)
        return Run(
            proc.returncode,
            out.read().decode(),
            err.read().decode(),
            wall,
            usage.ru_maxrss / 1024.0,
            first,
        )


def setup_seconds(code: str) -> float:
    """Median wall time of fresh interpreters that get the entry point ready."""
    return statistics.median(run_program([PY, "-c", code]).wall_s for _ in range(SETUP_SAMPLES))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _require_exit(run: Run, want: int, what: str) -> None:
    if run.exit_code != want:
        raise CheckError(f"{what} exited {run.exit_code}, want {want}: {run.stderr.strip()[-300:]}")


def _worker_json(run: Run, what: str) -> dict:
    _require_exit(run, 0, what)
    doc = json.loads(run.stdout.strip().splitlines()[-1])
    if "error" in doc:
        raise CheckError(f"{what}: {doc['error']}")
    return doc


# --------------------------------------------------------------------------
# workloads: each returns (attempted, failed, metrics)


def merge_argv(in_dir: str, mode: str, out_dir: str) -> list[str]:
    return [
        PY, "-m", "stereorig", "merge",
        "--left", os.path.join(in_dir, "left.txt"),
        "--right", os.path.join(in_dir, "right.txt"),
        "--mode", mode, "--tol", f"{TOL_MS:g}", "-o", out_dir,
    ]


def merge_workload(mode: str, seed: int, seconds: float):
    in_dir, plan = ensure_merge_inputs(ROOT, seed)
    setup = setup_seconds(CLI_READY)
    out_dir = os.path.join(WORK, f"out-{mode}")
    argv = merge_argv(in_dir, mode, out_dir)
    watch = (os.path.join(out_dir, frame_name(mode, 0)), frame_size(mode))

    def once() -> Run:
        shutil.rmtree(out_dir, ignore_errors=True)
        run = run_program(argv, watch=watch)
        _require_exit(run, 0, "merge")
        check_merge_listing(out_dir, mode, plan, run.stdout)
        return run

    once()  # warm-up: page cache, bytecode, allocator
    runs, busy = [], 0.0
    while busy < seconds:
        runs.append(once())
        busy += runs[-1].wall_s
    n = len(plan.pairs)
    check_merge_pixels(out_dir, mode, plan, seed, range(seed % PIXEL_CHECK_STRIDE, n, PIXEL_CHECK_STRIDE))
    shutil.rmtree(out_dir)
    return len(runs) * n, 0, {
        "work_per_s": metric(statistics.median(n / r.wall_s for r in runs), "1/s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mb for r in runs), "MB"),
        "first_output_s": metric(statistics.median(r.first_output_s for r in runs), "s"),
        "setup_s": metric(setup, "s"),
    }


def sync_workload(seed: int, seconds: float):
    """SYNC_WORKERS worker processes in turn, each for its share of `seconds`."""
    setup = setup_seconds(SYNC_READY)
    worker = os.path.join(BENCH_DIR, "sync_worker.py")
    argv = [PY, worker, "--seed", str(seed), "--seconds", str(seconds / SYNC_WORKERS)]
    runs = [run_program(argv) for _ in range(SYNC_WORKERS)]
    docs = [_worker_json(run, "sync worker") for run in runs]
    return sum(d["attempted"] for d in docs), sum(d["failed"] for d in docs), {
        "work_per_s": metric(statistics.median(r for d in docs for r in d["round_rates"]), "1/s"),
        "peak_rss_mb": metric(statistics.median(run.rss_mb for run in runs), "MB"),
        "first_output_s": metric(
            statistics.median(f for d in docs for f in d["round_first_outputs"]), "s"
        ),
        "setup_s": metric(setup, "s"),
    }


def rig_round(seed: int) -> list[Run]:
    """Every rig-setup command once, each checked after it ends."""
    ipd, cmds, fixtures = rig_plan(seed)
    out_dir = os.path.join(WORK, "rig")
    reset_dir(out_dir)
    for name, pairs in fixtures.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump([{"a": p["a"], "b": p["b"]} for p in pairs], fh)
    runs = []
    for cmd in cmds:
        run = run_program([PY, "-m", "stereorig", *cmd.argv], cwd=out_dir)
        check_rig(cmd, ipd, run.exit_code, run.stdout, out_dir, fixtures)
        runs.append(run)
    return runs


def rig_workload(seed: int, seconds: float):
    setup = setup_seconds(CLI_READY)
    rig_round(seed)  # warm-up
    rates, runs, busy = [], [], 0.0
    while busy < seconds:
        rnd = rig_round(seed)
        rnd_busy = sum(r.wall_s for r in rnd)
        rates.append(len(rnd) / rnd_busy)
        runs.extend(rnd)
        busy += rnd_busy
    shutil.rmtree(os.path.join(WORK, "rig"))
    return len(runs), 0, {
        "work_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mb for r in runs), "MB"),
        "first_output_s": metric(statistics.median(r.wall_s for r in runs), "s"),
        "setup_s": metric(setup, "s"),
    }


# --------------------------------------------------------------------------
# traced run


def cli_import_ms() -> float:
    code = f"import time; t = time.perf_counter(); {CLI_READY}; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        run = run_program([PY, "-c", code])
        _require_exit(run, 0, "import stereorig.cli")
        samples.append(float(run.stdout))
    return 1e3 * statistics.median(samples)


def traced(workload: str, seed: int):
    """Every per-layer metric; attempted/failed count the workload's own units."""
    mode = {"merge-anaglyph-1080p": "anaglyph", "merge-sbs-1080p": "sbs"}.get(workload)
    in_dir, plan = ensure_merge_inputs(ROOT, seed, PAIRS if mode else PROBE_PAIRS)
    out_dir = os.path.join(WORK, "out-traced")
    if mode:  # the same untimed warm-up as the untraced run
        _require_exit(run_program(merge_argv(in_dir, mode, out_dir)), 0, "merge")
    reset_dir(out_dir)
    ipd, _, _ = rig_plan(seed)
    run = run_program([
        PY, os.path.join(BENCH_DIR, "layers.py"),
        "--left", os.path.join(in_dir, "left.txt"),
        "--right", os.path.join(in_dir, "right.txt"),
        "--mode", mode or "anaglyph", "--tol", f"{TOL_MS:g}", "--out", out_dir, "--ipd", str(ipd),
    ])
    layer = _worker_json(run, "layers worker")
    shutil.rmtree(out_dir)
    sync = _worker_json(
        run_program([PY, os.path.join(BENCH_DIR, "sync_worker.py"), "--seed", str(seed), "--trace"]),
        "sync worker",
    )
    layer.update(sync["metrics"])
    rig_round(seed)  # warm-up
    rig_runs = rig_round(seed)
    shutil.rmtree(os.path.join(WORK, "rig"))
    layer["cli.command_ms"] = (1e3 * statistics.median(r.wall_s for r in rig_runs), "ms")
    layer["cli.import_ms"] = (cli_import_ms(), "ms")
    attempted, failed = {
        "sync-lossy": (sync["attempted"], sync["failed"]),
        "rig-setup": (len(rig_runs), 0),
    }.get(workload, (len(plan.pairs), 0))
    return attempted, failed, {k: metric(v, u) for k, (v, u) in sorted(layer.items())}


WORKLOADS = {
    "merge-anaglyph-1080p": lambda seed, s: merge_workload("anaglyph", seed, s),
    "merge-sbs-1080p": lambda seed, s: merge_workload("sbs", seed, s),
    "sync-lossy": sync_workload,
    "rig-setup": rig_workload,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so run_program kills its child
    if not os.path.isfile(os.path.join(SRC, "stereorig", "cli.py")):
        sys.stderr.write(f"error: no stereorig source under {SRC}; run from a checkout's root\n")
        return 2
    try:
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed)
        else:
            attempted, failed, metrics = WORKLOADS[args.workload](args.seed, args.seconds)
    except CheckError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
