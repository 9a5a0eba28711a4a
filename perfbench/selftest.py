"""Self-test of the benchmark's checks: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py      # from the root of a stereorig checkout

Runs the program once per output kind on small seeded inputs (an 8-pair
merge probe, one sync round's first sessions, one rig-setup round), checks
that the untouched outputs pass, then feeds each check a copy with one
small corruption and requires that the check rejects it. Prints one line
per case and exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run as bench
from inputs import PROBE_PAIRS, SYNC_DURATION_MS, ensure_merge_inputs, rig_plan, sync_round

SEED = 7
_results: list[bool] = []


def expect(name: str, fn, should_pass: bool) -> bool:
    """Run one check case; return whether it went as expected."""
    try:
        ok = fn() is not False
    except checks.CheckError:
        ok = False
    good = ok == should_pass
    _results.append(good)
    verdict = "passes" if ok else "rejected"
    print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}")
    return good


def _set_byte(path: str, offset_from_end: int, value: int | None = None) -> int:
    """Write `value` (default: the old byte plus one) at the offset; return the old byte."""
    with open(path, "r+b") as fh:
        fh.seek(-offset_from_end, os.SEEK_END)
        old = fh.read(1)[0]
        fh.seek(-offset_from_end, os.SEEK_END)
        fh.write(bytes([(old + 1) % 256 if value is None else value]))
    return old


def _shifted(line: str) -> str:
    ts, name = line.split(" ", 1)
    return f"{float(ts) + 0.01:.2f} {name}"


def merge_cases() -> None:
    in_dir, plan = ensure_merge_inputs(bench.ROOT, SEED, PROBE_PAIRS)
    frames = range(len(plan.pairs))
    for mode in ("anaglyph", "sbs"):
        out = os.path.join(bench.WORK, f"selftest-{mode}")
        shutil.rmtree(out, ignore_errors=True)
        run = bench.run_program(bench.merge_argv(in_dir, mode, out))
        listing = lambda stdout=run.stdout: checks.check_merge_listing(out, mode, plan, stdout)
        pixels = lambda: checks.check_merge_pixels(out, mode, plan, SEED, frames)
        expect(f"{mode}: program output, listing", listing, True)
        expect(f"{mode}: program output, pixels", pixels, True)

        last = os.path.join(out, checks.frame_name(mode, len(plan.pairs) - 1))
        old = _set_byte(last, 2)  # green of the last pixel: 0 (anaglyph) / right view (sbs)
        expect(f"{mode}: one pixel off by one", pixels, False)
        _set_byte(last, 2, old)

        pairs_txt = os.path.join(out, "pairs.txt")
        with open(pairs_txt, encoding="utf-8") as fh:
            original = fh.read()
        lines = original.splitlines(keepends=True)
        for name, text in (
            ("one pair line removed", "".join(lines[:3] + lines[4:])),
            ("one timestamp 0.01 ms off", "".join(lines[:2] + [_shifted(lines[2])] + lines[3:])),
        ):
            with open(pairs_txt, "w", encoding="utf-8") as fh:
                fh.write(text)
            expect(f"{mode}: {name}", listing, False)
        with open(pairs_txt, "w", encoding="utf-8") as fh:
            fh.write(original)
        wrong = run.stdout.replace(f"dropped {plan.dropped_left} left", f"dropped {plan.dropped_left + 1} left")
        expect(f"{mode}: dropped count off by one", lambda: listing(wrong), False)
        expect(f"{mode}: restored output", listing, True)
        shutil.rmtree(out)


def sync_cases() -> None:
    from stereorig import syncproto as sp

    import sync_worker

    devices = sync_worker.load_devices()
    done = next(
        o
        for o in (sync_worker.run_session(sp, devices, c)[0] for c in sync_round(SEED))
        if o["phase_a"] == o["phase_b"] == "done"
    )
    check = lambda o: checks.check_session(o, SYNC_DURATION_MS)
    expect("sync: completed session", lambda: check(done), True)
    bad = dict(done, phase_b="capturing")
    expect("sync: one session phase swapped", lambda: check(bad), False)
    bad = dict(done, skew=done["skew"] + 1e-3)
    expect("sync: start skew 1 us off", lambda: check(bad), False)
    bad = dict(done, ticks_a=done["ticks_a"][:-1])
    expect("sync: one tick missing", lambda: check(bad), False)
    ticks = list(done["ticks_b"])
    ticks[5] = (ticks[5][0], ticks[5][1] + 1e-3)
    expect("sync: one tick 1 us off cadence", lambda: check(dict(done, ticks_b=ticks)), False)


def rig_cases() -> None:
    ipd, cmds, fixtures = rig_plan(SEED)
    runs = []
    if not expect("rig: program outputs", lambda: runs.extend(bench.rig_round(SEED)), True):
        return
    out_dir = os.path.join(bench.WORK, "rig")
    by_kind = {}
    for cmd, r in zip(cmds, runs):
        by_kind.setdefault(cmd.kind, (cmd, r))

    cmd, r = by_kind["base-model"]
    doc = json.loads(r.stdout)
    doc["camera_b_target"][0] += 0.1
    expect(
        "rig: base-model camera 0.1 mm off",
        lambda: checks.check_rig(cmd, ipd, 0, json.dumps(doc), out_dir, fixtures),
        False,
    )
    for cmd, r in zip(cmds, runs):
        if cmd.kind != "gen-template":
            continue
        path = os.path.join(out_dir, cmd.output)
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
        at = svg.index('cx="', svg.index('class="aperture"')) + 4
        end = svg.index('"', at)
        moved = svg[:at] + f"{float(svg[at:end]) + 0.1:.3f}" + svg[end:]
        expect(f"rig: {cmd.argv[2]} template aperture 0.1 mm off", lambda s=moved: checks.check_template(s, ipd), False)
    cmd, r = by_kind["align-check"]
    expect(
        "rig: align-check exit code flipped",
        lambda: checks.check_rig(cmd, ipd, 1 - r.exit_code, r.stdout, out_dir, fixtures),
        False,
    )
    cmd, r = by_kind["grid-overlay"]
    doc = json.loads(r.stdout)
    doc["vertical_lines"][3] += 0.5
    expect(
        "rig: grid line 0.5 px off",
        lambda: checks.check_rig(cmd, ipd, 0, json.dumps(doc), out_dir, fixtures),
        False,
    )
    shutil.rmtree(out_dir)


def main() -> int:
    if not os.path.isfile(os.path.join(bench.SRC, "stereorig", "cli.py")):
        sys.stderr.write("error: run from the root of a stereorig checkout\n")
        return 2
    sys.path.insert(0, bench.SRC)
    merge_cases()
    sync_cases()
    rig_cases()
    bad = _results.count(False)
    print(f"{len(_results) - bad} of {len(_results)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
