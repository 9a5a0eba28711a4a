"""Traced-run worker: per-layer timings around calls into stereorig's public functions.

Run by run.py as a fresh child process, so the resident set after loading
is the merge path's own:

    python3 perfbench/layers.py --left L.txt --right R.txt --mode sbs --out DIR

replays `stereorig merge` step by step (read_manifest, load_stream,
pair_frames, merge_pairs, write_ppm) with a timer around each call, times
the kernels and read_ppm on the first frames, pair_frames on 200k
timestamps, and the rig-setup layers in loops. Nothing inside stereorig is
instrumented. Prints one JSON object of {name: [value, unit]} as its last
line.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

KERNEL_FRAMES = 5
PAIR_FRAMES_N = 200_000
RIG_REPS = 200


def _timed(fn, *args, **kw):
    t = time.perf_counter()
    res = fn(*args, **kw)
    return res, time.perf_counter() - t


def _median_s(fn, args_list) -> float:
    return statistics.median(_timed(fn, *a)[1] for a in args_list)


def merge_layers(left: str, right: str, mode: str, tol: float, out_dir: str) -> dict:
    from stereorig import _kernels, merge, ppmio

    m = {}
    _, t_l = _timed(ppmio.read_manifest, left)
    _, t_r = _timed(ppmio.read_manifest, right)
    m["ppmio.read_manifest_ms"] = (1e3 * (t_l + t_r) / 2, "ms")
    ls, t_l = _timed(merge.load_stream, left, "left")
    rs, t_r = _timed(merge.load_stream, right, "right")
    m["merge.load_stream_ms"] = (1e3 * (t_l + t_r) / 2, "ms")
    m["merge.resident_mb_after_load"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    result, t = _timed(merge.pair_frames, ls, rs, tol)
    m["merge.pair_frames_ms"] = (1e3 * t, "ms")
    frames, t = _timed(merge.merge_pairs, result.pairs, mode)
    m["merge.compose_ms"] = (1e3 * t, "ms")
    os.makedirs(out_dir, exist_ok=True)
    writes = [
        (os.path.join(out_dir, f"{mode}_{i:04d}.ppm"), f.pixels) for i, f in enumerate(frames)
    ]
    m["ppmio.write_ppm_ms"] = (1e3 * _median_s(ppmio.write_ppm, writes), "ms")
    del frames, writes
    first = [(p.left.pixels, p.right.pixels) for p in result.pairs[:KERNEL_FRAMES]]
    m["kernels.anaglyph_ms"] = (1e3 * _median_s(_kernels.anaglyph_pixels, first), "ms")
    m["kernels.sbs_ms"] = (1e3 * _median_s(_kernels.sbs_pixels, first), "ms")
    paths = [(p,) for _, p in ppmio.read_manifest(left)[:KERNEL_FRAMES]]
    m["ppmio.read_ppm_ms"] = (1e3 * _median_s(ppmio.read_ppm, paths), "ms")
    del ls, rs, result, first

    px = np.zeros((1, 1, 3), dtype=np.uint8)
    big_l = [merge.Frame(1, 1, px, i * 33.3, "left") for i in range(PAIR_FRAMES_N)]
    big_r = [merge.Frame(1, 1, px, i * 33.3 + 1.0, "right") for i in range(PAIR_FRAMES_N)]
    _, t = _timed(merge.pair_frames, big_l, big_r, tol)
    m["merge.pair_frames_200k_ms"] = (1e3 * t, "ms")
    return m


def rig_layers(ipd: float) -> dict:
    from stereorig import alignment, guidance, registry, svgio, templates

    text = importlib.resources.files("stereorig.data").joinpath("devices.json").read_text("utf-8")
    specs = registry.parse_device_specs(text)
    j7 = registry.lookup(specs, "J7-fixture")
    a5 = registry.lookup(specs, "A5-fixture")
    coplanar = alignment.LayoutConfig("vertical", "coplanar", "portrait", 180)
    stacked = alignment.LayoutConfig("vertical", "depth-stacked", "portrait", 180)
    base = alignment.compute_base_model(j7, j7, coplanar, ipd=ipd)
    stacked_base = alignment.compute_base_model(j7, j7, stacked, ipd=ipd)
    layout = templates.two_phone_layout(j7, base)
    reading = guidance.SensorReading((10.0, -20.0, 30.0), (0.1, 0.2, 0.3))
    calls = {
        "registry.parse_device_specs_us": lambda: registry.parse_device_specs(text),
        "alignment.compute_base_model_us": lambda: alignment.compute_base_model(
            j7, a5, coplanar, ipd=ipd
        ),
        "templates.two_phone_layout_us": lambda: templates.two_phone_layout(j7, base),
        "templates.three_phone_layout_us": lambda: templates.three_phone_layout(a5, ipd=ipd),
        "templates.mirror_rig_layout_us": lambda: templates.mirror_rig_layout(j7, ipd=ipd),
        "svgio.render_svg_us": lambda: svgio.render_svg(layout),
        "guidance.grid_overlay_us": lambda: guidance.grid_overlay(stacked_base, j7),
        "guidance.check_alignment_us": lambda: guidance.check_alignment(reading, reading),
    }
    m = {}
    for name, fn in calls.items():
        fn()
        samples = []
        for _ in range(RIG_REPS):
            t = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t)
        m[name] = (1e6 * statistics.median(samples), "us")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--left", required=True)
    ap.add_argument("--right", required=True)
    ap.add_argument("--mode", choices=("sbs", "anaglyph"), required=True)
    ap.add_argument("--tol", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--ipd", type=float, required=True)
    args = ap.parse_args(argv)
    metrics = merge_layers(args.left, args.right, args.mode, args.tol, args.out)
    metrics.update(rig_layers(args.ipd))
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
