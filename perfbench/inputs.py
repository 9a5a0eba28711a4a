"""Seeded inputs for every workload, and the results they were built to give.

Everything here is a pure function of the seed, except `ensure_merge_inputs`,
which writes the frame streams to disk once per seed and reuses them while
that seed's plan file is present.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass

WORK_DIR = ".perfbench-work"

# merge streams: 30 fps slots, each side misses a few slots, so the pairing
# drops the partner that is left alone
WIDTH, HEIGHT = 1920, 1080
PERIOD_MS = 1000.0 / 30.0
PAIRS = 60
DROPS_PER_SIDE = 3
JITTER_MS = 3.0  # |left - right| <= 6 ms, well inside TOL_MS
TOL_MS = 10.0  # neighbouring slots stay >= 27 ms apart, far outside it
PROBE_PAIRS = 8  # stream length of the traced run's merge probe on other workloads

# sync sessions: a fixed lossy set (its mismatch count never depends on the
# seed) and a seeded loss-free set (which cannot lose a CaptureStart)
SYNC_FIXED_SEEDS = range(100)
SYNC_FIXED_LOSSES = (0.1, 0.3)
SYNC_FIXED_OFFSETS = (1.5, -2.5)
SYNC_SEEDED_SESSIONS = 100
SYNC_LATENCY_MS = 10.0
SYNC_JITTER_MS = 5.0
SYNC_CAPTURE_MS = 50.0
SYNC_DURATION_MS = 2000.0
SYNC_DEVICES = ("J7-fixture", "A5-fixture")

# rig-setup: layouts each feasible for every IPD in the seeded range
IPD_RANGE_MM = (58.0, 72.0)
BASE_MODEL_CASES = (
    ("J7-fixture", "A5-fixture", ()),
    ("A5-fixture", "compact-fixture", ("--layout", "horizontal", "--stack", "depth")),
    ("compact-fixture", "J7-fixture", ("--orientation", "landscape", "--rotate-b", "90")),
    ("J7-fixture", "J7-fixture", ("--layout", "horizontal", "--rotate-b", "270")),
)
TEMPLATE_CASES = (("two", "J7-fixture"), ("three", "A5-fixture"), ("mirror", "compact-fixture"))
GRID_DEVICE = "J7-fixture"
READING_PAIRS = 6
MAG_TOL_UT = 5.0


# --------------------------------------------------------------------------
# merge


@dataclass(frozen=True)
class MergePlan:
    """Timestamps the generator wrote and the pairing they must produce."""

    left_ts: tuple[float, ...]
    right_ts: tuple[float, ...]
    pairs: tuple[tuple[int, int], ...]  # (left index, right index) in left order
    dropped_left: int
    dropped_right: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__)

    @classmethod
    def from_json(cls, text: str) -> "MergePlan":
        d = json.loads(text)
        return cls(
            tuple(d["left_ts"]),
            tuple(d["right_ts"]),
            tuple(tuple(p) for p in d["pairs"]),
            d["dropped_left"],
            d["dropped_right"],
        )


def merge_plan(seed: int, pairs: int = PAIRS) -> MergePlan:
    rng = random.Random(f"merge-{seed}")
    slots = pairs + 2 * DROPS_PER_SIDE
    missing = rng.sample(range(slots), 2 * DROPS_PER_SIDE)
    miss_left, miss_right = set(missing[:DROPS_PER_SIDE]), set(missing[DROPS_PER_SIDE:])

    def stamps(miss):
        # 0.01 ms steps: six significant digits at most, see README "Inputs"
        return {
            s: round(s * PERIOD_MS + rng.uniform(-JITTER_MS, JITTER_MS), 2)
            for s in range(slots)
            if s not in miss
        }

    left, right = stamps(miss_left), stamps(miss_right)
    lslots, rslots = sorted(left), sorted(right)
    pair_idx = tuple(
        (lslots.index(s), rslots.index(s)) for s in lslots if s in right
    )
    return MergePlan(
        tuple(left[s] for s in lslots),
        tuple(right[s] for s in rslots),
        pair_idx,
        len(miss_right),
        len(miss_left),
    )


def frame_pixels(seed: int, side: str, index: int, base: np.ndarray | None = None) -> np.ndarray:
    """Pixels of one input frame: the side's seeded noise image, rolled per frame."""
    import numpy as np

    if base is None:
        base = side_base(seed, side)
    return np.roll(base, shift=(index * 7, index * 13), axis=(0, 1))


def side_base(seed: int, side: str) -> np.ndarray:
    import numpy as np  # not at module level: the sync worker's RSS stays its own

    rng = np.random.default_rng([seed, 0 if side == "left" else 1])
    return rng.integers(0, 256, size=(HEIGHT, WIDTH, 3), dtype=np.uint8)


def _write_synced(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def ppm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def ensure_merge_inputs(root: str, seed: int, pairs: int = PAIRS) -> tuple[str, MergePlan]:
    """Write (or reuse) the seed's two streams; return their directory and plan.

    Frame files are fsynced so that their writeback does not overlap the
    timed runs. Input sets of other seeds are removed first, so the work
    directory holds one full set at a time.
    """
    kind = "merge" if pairs == PAIRS else f"probe{pairs}"
    d = os.path.join(root, WORK_DIR, f"{kind}-{seed}")
    plan_path = os.path.join(d, "plan.json")
    if os.path.exists(plan_path):
        with open(plan_path, encoding="utf-8") as fh:
            return d, MergePlan.from_json(fh.read())
    work = os.path.join(root, WORK_DIR)
    if os.path.isdir(work):
        for name in os.listdir(work):
            if name.startswith(kind + "-"):
                shutil.rmtree(os.path.join(work, name))
    os.makedirs(d)
    plan = merge_plan(seed, pairs)
    for side, stamps in (("left", plan.left_ts), ("right", plan.right_ts)):
        base = side_base(seed, side)
        lines = []
        for i, ts in enumerate(stamps):
            name = f"{side}_{i:04d}.ppm"
            _write_synced(os.path.join(d, name), ppm_bytes(frame_pixels(seed, side, i, base)))
            lines.append(f"{ts:.2f} {name}\n")
        with open(os.path.join(d, f"{side}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    with open(plan_path, "w", encoding="utf-8") as fh:
        fh.write(plan.to_json())
    return d, plan


# --------------------------------------------------------------------------
# sync


@dataclass(frozen=True)
class SyncCase:
    sim_seed: int
    loss: float
    offsets: tuple[float, float]


def sync_round(seed: int) -> list[SyncCase]:
    """One round: the fixed lossy set plus the seed's loss-free set, in seeded order."""
    rng = random.Random(f"sync-{seed}")
    cases = [
        SyncCase(s, loss, SYNC_FIXED_OFFSETS)
        for loss in SYNC_FIXED_LOSSES
        for s in SYNC_FIXED_SEEDS
    ]
    for _ in range(SYNC_SEEDED_SESSIONS):
        offsets = (round(rng.uniform(-5.0, 5.0), 3), round(rng.uniform(-5.0, 5.0), 3))
        cases.append(SyncCase(rng.randrange(1_000_000, 2_000_000), 0.0, offsets))
    rng.shuffle(cases)
    return cases


# --------------------------------------------------------------------------
# rig-setup


@dataclass(frozen=True)
class RigCommand:
    argv: tuple[str, ...]  # arguments after `python -m stereorig`
    kind: str  # base-model | gen-template | grid-overlay | align-check
    expect_exit: int
    output: str | None = None  # file the command writes, relative to the output dir


def _reading(rng: random.Random, mag=None, gyro=None) -> dict:
    return {
        "magnetometer": mag or [round(rng.uniform(-50, 50), 3) for _ in range(3)],
        "gyroscope": gyro or [round(rng.uniform(-0.5, 0.5), 3) for _ in range(3)],
    }


def _reading_pairs(rng: random.Random, last_aligned: bool) -> list[dict]:
    """Pairs alternating misaligned/aligned; the last one decides the exit code."""
    out = []
    for i in range(READING_PAIRS):
        a = _reading(rng)
        aligned = last_aligned if i == READING_PAIRS - 1 else i % 2 == 1
        if aligned:
            mag = [v + rng.uniform(-0.5, 0.5) * MAG_TOL_UT for v in a["magnetometer"]]
            b = _reading(rng, mag=[round(v, 3) for v in mag])
        else:
            mag = list(a["magnetometer"])
            axis = rng.randrange(3)
            mag[axis] = round(mag[axis] + rng.choice((-3.0, 3.0)) * MAG_TOL_UT, 3)
            b = _reading(rng, mag=mag)
        out.append({"a": a, "b": b, "aligned": aligned})
    return out


def rig_plan(seed: int) -> tuple[float, list[RigCommand], dict[str, list[dict]]]:
    """(ipd, the round's commands, reading fixtures by file name)."""
    rng = random.Random(f"rig-{seed}")
    ipd = round(rng.uniform(*IPD_RANGE_MM), 1)
    sipd = f"{ipd:g}"
    cmds = [
        RigCommand(("base-model", "--a", a, "--b", b, "--ipd", sipd, *extra), "base-model", 0)
        for a, b, extra in BASE_MODEL_CASES
    ]
    for mode, device in TEMPLATE_CASES:
        out = f"{mode}.svg"
        cmds.append(
            RigCommand(
                ("gen-template", "--mode", mode, "--device", device, "--ipd", sipd, "-o", out),
                "gen-template",
                0,
                out,
            )
        )
    cmds.append(
        RigCommand(
            ("grid-overlay", "--device", GRID_DEVICE, "--ipd", sipd, "--svg", "grid.svg"),
            "grid-overlay",
            0,
            "grid.svg",
        )
    )
    fixtures = {}
    for name, last in (("readings_ok.json", True), ("readings_bad.json", False)):
        fixtures[name] = _reading_pairs(rng, last)
        cmds.append(
            RigCommand(("align-check", "--readings", name), "align-check", 0 if last else 1, name)
        )
    return ipd, cmds, fixtures
