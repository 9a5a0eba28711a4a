"""Correctness checks, computed apart from the program.

Each check raises CheckError on the first disagreement. None imports
stereorig: the references below are written from the documented behaviour
(BT.601 weights, floor(luma + 0.5); side-by-side columns; matching terminal
phases; cameras and apertures an IPD apart).
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

from inputs import HEIGHT, WIDTH, MergePlan, RigCommand, frame_pixels, side_base

IPD_TOL_MM = 2e-3  # outputs carry 3 decimals
_HEADER = f"P6\n{{w}} {HEIGHT}\n255\n"


class CheckError(AssertionError):
    """An output disagrees with the benchmark's reference."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# --------------------------------------------------------------------------
# merge


def reference_anaglyph(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Red = right luma, green = 0, blue = left luma; luma in float64, BT.601."""
    import numpy as np

    out = np.zeros(left.shape, dtype=np.uint8)
    for src, channel in ((right, 0), (left, 2)):
        luma = src[..., 0] * 0.299 + src[..., 1] * 0.587 + src[..., 2] * 0.114
        out[..., channel] = np.minimum(np.floor(luma + 0.5), 255.0)
    return out


def reference_sbs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.empty((left.shape[0], 2 * left.shape[1], 3), dtype=np.uint8)
    out[:, : left.shape[1]] = left
    out[:, left.shape[1] :] = right
    return out


def frame_name(mode: str, i: int) -> str:
    return f"{mode}_{i:04d}.ppm"


def frame_size(mode: str) -> int:
    w = 2 * WIDTH if mode == "sbs" else WIDTH
    return len(_HEADER.format(w=w)) + w * HEIGHT * 3


def check_merge_listing(out_dir: str, mode: str, plan: MergePlan, stdout: str) -> None:
    """Summary line, pairs.txt and every frame's header and size."""
    n = len(plan.pairs)
    want = (
        f"paired {n} frames (dropped {plan.dropped_left} left, "
        f"{plan.dropped_right} right) -> {out_dir}"
    )
    _require(stdout.strip() == want, f"merge stdout {stdout.strip()!r}, want {want!r}")
    with open(os.path.join(out_dir, "pairs.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) == n, f"pairs.txt has {len(lines)} lines, want {n}")
    for i, (line, (li, _)) in enumerate(zip(lines, plan.pairs)):
        ts, name = line.split(" ", 1)
        _require(name == frame_name(mode, i), f"pairs.txt line {i}: file {name!r}")
        _require(float(ts) == plan.left_ts[li], f"pairs.txt line {i}: {ts} != {plan.left_ts[li]}")
    names = sorted(os.listdir(out_dir))
    want_names = sorted([frame_name(mode, i) for i in range(n)] + ["pairs.txt"])
    _require(names == want_names, f"output files {names[:3]}... differ from the plan")
    header = _HEADER.format(w=2 * WIDTH if mode == "sbs" else WIDTH).encode("ascii")
    for i in range(n):
        path = os.path.join(out_dir, frame_name(mode, i))
        _require(os.path.getsize(path) == frame_size(mode), f"{path}: wrong size")
        with open(path, "rb") as fh:
            _require(fh.read(len(header)) == header, f"{path}: wrong header")


def read_raster(path: str, width: int) -> np.ndarray:
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    raster = np.frombuffer(data, dtype=np.uint8, offset=len(data) - width * HEIGHT * 3)
    return raster.reshape(HEIGHT, width, 3)


def check_merge_pixels(out_dir: str, mode: str, plan: MergePlan, seed: int, frames=None) -> None:
    """Every pixel of the given output frames (default: all) against the reference."""
    import numpy as np

    ref = reference_sbs if mode == "sbs" else reference_anaglyph
    width = 2 * WIDTH if mode == "sbs" else WIDTH
    bases = {side: side_base(seed, side) for side in ("left", "right")}
    for i in range(len(plan.pairs)) if frames is None else frames:
        li, ri = plan.pairs[i]
        want = ref(
            frame_pixels(seed, "left", li, bases["left"]),
            frame_pixels(seed, "right", ri, bases["right"]),
        )
        got = read_raster(os.path.join(out_dir, frame_name(mode, i)), width)
        if not np.array_equal(got, want):
            bad = np.argwhere(got != want)[0]
            raise CheckError(f"{mode} frame {i}: pixel {tuple(bad)} differs from the reference")


# --------------------------------------------------------------------------
# sync


def check_session(outcome: dict, duration_ms: float) -> bool:
    """True if the terminal phases match; raises if a matched session is wrong.

    `outcome` has phase_a, phase_b, skew, offsets, fps and ticks_a/ticks_b as
    lists of (seq, timestamp). A mismatch is returned, not raised: it is the
    known CaptureStart fault and counts as a failed operation.
    """
    if outcome["phase_a"] != outcome["phase_b"]:
        return False
    if outcome["phase_a"] == "done":
        want_skew = abs(outcome["offsets"][0] - outcome["offsets"][1])
        _require(
            outcome["skew"] is not None and abs(outcome["skew"] - want_skew) < 1e-6,
            f"start skew {outcome['skew']} != offset difference {want_skew}",
        )
        fps = outcome["fps"]
        count = math.floor(duration_ms * fps / 1000.0 + 1e-9)
        period = 1000.0 / fps
        for side in ("ticks_a", "ticks_b"):
            ticks = outcome[side]
            _require(len(ticks) == count, f"{side}: {len(ticks)} ticks, want {count}")
            t0 = ticks[0][1]
            for k, (seq, ts) in enumerate(ticks):
                _require(seq == k, f"{side}: tick {k} has seq {seq}")
                _require(abs(ts - t0 - k * period) < 1e-6, f"{side}: tick {k} off cadence")
    return True


# --------------------------------------------------------------------------
# rig-setup


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= IPD_TOL_MM


def _axis_offset(dx: float, dy: float, axis: str, ipd: float, what: str) -> None:
    """The two views sit exactly `ipd` apart along the layout axis, level across it."""
    along, across = (dy, dx) if axis == "vertical" else (dx, dy)
    _require(
        _close(abs(along), ipd) and _close(across, 0.0),
        f"{what} offset ({dx:.4f}, {dy:.4f}) mm, want {ipd} along the {axis} axis",
    )


def check_base_model(stdout: str, ipd: float, cmd: RigCommand) -> None:
    doc = json.loads(stdout)
    (ax, ay), (bx, by) = doc["camera_a"], doc["camera_b_target"]
    _axis_offset(bx - ax, by - ay, doc["layout"]["axis"], ipd, "base-model cameras")
    _require(
        [doc["device_a"], doc["device_b"]] == [cmd.argv[2], cmd.argv[4]],
        "base-model reports other devices",
    )


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _folded(x: float, folds: list[dict]) -> tuple[float, float]:
    """Where strip position x lands once the strip turns by angle_deg at each fold."""
    px = py = heading = cursor = 0.0
    for fold in sorted(folds, key=lambda f: f["x"]):
        if fold["x"] >= x:
            break
        px += (fold["x"] - cursor) * math.cos(heading)
        py += (fold["x"] - cursor) * math.sin(heading)
        heading += math.radians(fold["angle_deg"])
        cursor = fold["x"]
    return px + (x - cursor) * math.cos(heading), py + (x - cursor) * math.sin(heading)


def check_template(svg_text: str, ipd: float) -> None:
    """The assembled rig's camera views are `ipd` apart, pair by pair.

    Two-phone: the apertures lie flat, along the layout axis. Three-phone:
    the strip turns by each fold's angle_deg, and the views are the folded
    aperture positions. Mirror: the views are the two mirror centres, and
    the one aperture sits over mirror A.
    """
    root = ET.fromstring(svg_text)
    _require(_local(root.tag) == "svg", "root element is not svg")
    meta = json.loads(next(e.text for e in root.iter() if _local(e.tag) == "metadata"))
    circles = [
        (float(e.get("cx")), float(e.get("cy")))
        for e in root.iter()
        if _local(e.tag) == "circle" and e.get("class") == "aperture"
    ]
    rig = meta["rig"]
    if rig == "two-phone":
        _require(len(circles) == 2, "two-phone rig needs two apertures")
        (ax, ay), (bx, by) = circles
        _axis_offset(bx - ax, by - ay, meta["base"]["layout"][0], ipd, "apertures")
        return
    if rig == "mirror":
        m = meta["mirror"]
        _require(
            len(circles) == 1 and all(_close(c, w) for c, w in zip(circles[0], m["mirror_a_center"])),
            "mirror rig needs one aperture, over mirror A",
        )
        views = [m["mirror_a_center"], m["mirror_b_center"]]
    else:
        _require(rig == "three-phone" and len(circles) == 3, f"unexpected {rig} template")
        ox, oy = meta["strip_origin"]
        views = [(*_folded(cx - ox, meta["folds"]), cy - oy) for cx, cy in circles]
    for i, p in enumerate(views):
        for q in views[i + 1 :]:
            sep = math.dist(p, q)
            _require(_close(sep, ipd), f"{rig} views {sep:.4f} mm apart, want {ipd}")


def check_grid(stdout: str, svg_text: str) -> None:
    doc = json.loads(stdout)
    step = doc["pitch_mm"] * doc["pixel_density"]
    w, h = doc["screen_px"]
    for key, extent in (("vertical_lines", w), ("horizontal_lines", h)):
        lines = doc[key]
        _require(len(lines) == math.ceil(extent / step), f"{key}: {len(lines)} lines")
        _require(all(abs(v - k * step) < 1e-3 for k, v in enumerate(lines)), f"{key}: spacing")
    tx, ty = doc["target_marker_px"]
    _require(0 <= tx < w and 0 <= ty < h, "target marker off screen")
    _require(_local(ET.fromstring(svg_text).tag) == "svg", "grid SVG root is not svg")


def check_align(stdout: str, exit_code: int, cmd: RigCommand, pairs: list[dict]) -> None:
    _require(exit_code == cmd.expect_exit, f"align-check exit {exit_code}, want {cmd.expect_exit}")
    lines = stdout.splitlines()
    _require(len(lines) == len(pairs), f"align-check printed {len(lines)} lines")
    for i, (line, pair) in enumerate(zip(lines, pairs)):
        tag = "aligned" if pair["aligned"] else "misaligned"
        _require(line.startswith(f"[{i}] {tag}:"), f"align-check line {i}: {line!r}")


def check_rig(cmd: RigCommand, ipd: float, exit_code: int, stdout: str, out_dir: str, fixtures) -> None:
    """Check one rig-setup command's exit code and outputs."""
    if cmd.kind == "align-check":
        check_align(stdout, exit_code, cmd, fixtures[cmd.output])
        return
    _require(exit_code == cmd.expect_exit, f"{cmd.kind} exit {exit_code}")
    if cmd.kind == "base-model":
        check_base_model(stdout, ipd, cmd)
        return
    with open(os.path.join(out_dir, cmd.output), encoding="utf-8") as fh:
        svg = fh.read()
    if cmd.kind == "gen-template":
        check_template(svg, ipd)
    else:
        check_grid(stdout, svg)
