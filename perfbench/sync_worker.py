"""sync-lossy worker: simulated sessions in one process, timed from outside syncproto.

Run by run.py as a child process so that its peak RSS is the simulator's
own. Prints one JSON object as its last line.

    python3 perfbench/sync_worker.py --seed 1 --seconds 10       # timed rounds
    python3 perfbench/sync_worker.py --seed 1 --trace             # one traced round
    python3 perfbench/sync_worker.py --seed 1 --count             # mismatches per loss

stereorig must be importable (run.py puts the checkout's src on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import statistics
import sys
import time
from collections import Counter

from checks import CheckError, check_session
from inputs import (
    SYNC_CAPTURE_MS,
    SYNC_DEVICES,
    SYNC_DURATION_MS,
    SYNC_JITTER_MS,
    SYNC_LATENCY_MS,
    SyncCase,
    sync_round,
)

WARMUP_SESSIONS = 30
_CALLS = ("run_pairing", "run_capture_sync", "run_frame_sync")


def load_devices():
    from stereorig import registry

    text = importlib.resources.files("stereorig.data").joinpath("devices.json").read_text("utf-8")
    specs = registry.parse_device_specs(text)
    return tuple(registry.lookup(specs, m) for m in SYNC_DEVICES)


def run_session(sp, devices, case: SyncCase):
    """The simulate-sync pipeline for one case.

    Returns (outcome, transcript entries, {syncproto call: seconds}).
    """
    transport = sp.SimulatedTransport(SYNC_LATENCY_MS, SYNC_JITTER_MS, case.loss)
    spans = {}

    def call(name, *args, **kw):
        t = time.perf_counter()
        res = getattr(sp, name)(*args, **kw)
        spans[name] = time.perf_counter() - t
        return res

    offs = case.offsets
    run = call("run_pairing", *devices, transport, seed=case.sim_seed, clock_offsets=offs)
    entries = list(run.transcript)
    sa, sb = run.state_a, run.state_b
    skew, ticks = None, ([], [])
    if sa.phase is sp.Phase.CONFIGURED:
        cap = call(
            "run_capture_sync", (sa, sb), transport, SYNC_CAPTURE_MS,
            seed=case.sim_seed + 1, clock_offsets=offs,
        )
        entries.extend(cap.transcript)
        sa, sb, skew = cap.state_a, cap.state_b, cap.skew
        if skew is not None:
            fs = call(
                "run_frame_sync", (sa, sb), transport, SYNC_DURATION_MS,
                seed=case.sim_seed + 2, clock_offsets=offs,
            )
            entries.extend(fs.transcript)
            sa, sb = fs.state_a, fs.state_b
            ticks = fs.ticks_a, fs.ticks_b
    outcome = {
        "phase_a": sa.phase.value,
        "phase_b": sb.phase.value,
        "skew": skew,
        "offsets": offs,
        "fps": sa.negotiated.frame_rate if sa.negotiated else None,
        "ticks_a": [(t.seq, t.timestamp) for t in ticks[0]],
        "ticks_b": [(t.seq, t.timestamp) for t in ticks[1]],
    }
    return outcome, entries, spans


def timed_rounds(sp, devices, seed: int, seconds: float) -> dict:
    """Whole rounds until `seconds` inside syncproto is measured; checks run untimed.

    A session's first output is the start of capture: the time spent in
    run_pairing and run_capture_sync.
    """
    cases = sync_round(seed)
    for case in cases[:WARMUP_SESSIONS]:
        check_session(run_session(sp, devices, case)[0], SYNC_DURATION_MS)
    rates, firsts, failed, busy = [], [], 0, 0.0
    while busy < seconds:
        round_busy, round_firsts = 0.0, []
        for case in cases:
            outcome, _, spans = run_session(sp, devices, case)
            round_busy += sum(spans.values())
            round_firsts.append(spans["run_pairing"] + spans.get("run_capture_sync", 0.0))
            if not check_session(outcome, SYNC_DURATION_MS):
                failed += 1
        rates.append(len(cases) / round_busy)
        firsts.append(statistics.median(round_firsts))
        busy += round_busy
    return {
        "attempted": len(rates) * len(cases),
        "failed": failed,
        "round_rates": rates,
        "round_first_outputs": firsts,
    }


def traced_round(sp, devices, seed: int) -> dict:
    """One round with spans around each syncproto call and transcript counts."""
    spans = {name: [] for name in _CALLS}
    kinds, retransmits, events, failed = Counter(), 0, 0, 0
    cases = sync_round(seed)
    for case in cases[:WARMUP_SESSIONS]:
        run_session(sp, devices, case)
    for case in cases:
        outcome, entries, times = run_session(sp, devices, case)
        for name, dt in times.items():
            spans[name].append(dt)
        if not check_session(outcome, SYNC_DURATION_MS):
            failed += 1
        events += len(entries)
        kinds.update(e.kind for e in entries)
        retransmits += sum(
            e.kind == "timer" and e.detail.startswith("retransmit") for e in entries
        )
    metrics = {
        f"syncproto.{name}_ms": (1e3 * statistics.fmean(spans[name]), "ms") for name in _CALLS
    }
    busy = sum(sum(v) for v in spans.values())
    metrics["syncproto.us_per_event"] = (1e6 * busy / events, "us")
    metrics["syncproto.messages_sent"] = (kinds["send"], "count")
    metrics["syncproto.messages_dropped"] = (kinds["drop"], "count")
    metrics["syncproto.retransmits"] = (retransmits, "count")
    return {"attempted": len(cases), "failed": failed, "metrics": metrics}


def count_mismatches(sp, devices, seed: int) -> dict:
    cases = sync_round(seed)
    by_loss = Counter(
        str(case.loss)
        for case in cases
        if not check_session(run_session(sp, devices, case)[0], SYNC_DURATION_MS)
    )
    return {"sessions": len(cases), "mismatched_by_loss": dict(by_loss)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--count", action="store_true")
    args = ap.parse_args(argv)
    from stereorig import syncproto as sp

    devices = load_devices()
    try:
        if args.count:
            result = count_mismatches(sp, devices, args.seed)
        elif args.trace:
            result = traced_round(sp, devices, args.seed)
        else:
            result = timed_rounds(sp, devices, args.seed, args.seconds)
    except CheckError as exc:
        result = {"error": str(exc)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
