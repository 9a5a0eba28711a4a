"""Independent reference implementations used as test oracles.

Everything here deliberately re-derives results through a different route
than the package code: corner-point rotation instead of case tables,
brute-force scans instead of closed forms, sequential complex-plane
folding instead of heading walks, loops instead of set algebra.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import replace
from xml.sax import saxutils

import numpy as np

from stereorig.registry import negotiate
from stereorig.syncproto import (
    _CADENCE_TOL_MS,
    Message,
    MsgKind,
    Phase,
    SessionState,
    TickStamp,
    Timer,
)


# --- strap arithmetic -------------------------------------------------------

def strap_oracle(v: float, h: float, m: float, w: float) -> tuple[float, float, float]:
    rise = h + m
    long_len = sum([v, rise, w, h])
    short_len = sum([v, rise])
    return long_len, short_len, h


# --- footprint rotation via corner points -----------------------------------

def footprint_oracle(
    w: float, l: float, cx: float, cy: float, deg_cw: int
) -> tuple[float, float, float, float]:
    th = math.radians(deg_cw)  # clockwise is positive in a y-down plane
    c, s = math.cos(th), math.sin(th)

    def rot(p):
        return (p[0] * c - p[1] * s, p[0] * s + p[1] * c)

    corners = [rot(p) for p in ((0, 0), (w, 0), (0, l), (w, l))]
    cam = rot((cx, cy))
    x0 = min(p[0] for p in corners)
    y0 = min(p[1] for p in corners)
    x1 = max(p[0] for p in corners)
    y1 = max(p[1] for p in corners)
    return (x1 - x0, y1 - y0, cam[0] - x0, cam[1] - y0)


# --- brute-force placement scan ---------------------------------------------

def _oriented_oracle(spec, orientation: str):
    w, l = spec.body_width, spec.body_length
    cx, cy = spec.camera_center
    if orientation == "landscape":
        return footprint_oracle(w, l, cx, cy, 90)
    return (w, l, cx, cy)


def scan_placement(
    spec_a,
    spec_b,
    layout,
    ipd: float,
    step: float = 0.1,
    window: float = 0.05,
) -> dict | None:
    """0.1 mm translation scan along the layout axis.

    Mirrors the solving task: rotation 0 first, the fallback rotation only
    if 0 has no hits.  Returns the minimum-area hit, or None.
    """
    wa, la, cax, cay = _oriented_oracle(spec_a, layout.orientation)
    horizontal = layout.axis == "horizontal"
    a_len, ca_ax = (wa, cax) if horizontal else (la, cay)
    cross_a_len, ca_cross = (la, cay) if horizontal else (wa, cax)

    rotations = [0]
    if layout.rotation_b != 0:
        rotations.append(layout.rotation_b)

    for rot in rotations:
        wb, lb, cbx, cby = footprint_oracle(*_oriented_oracle(spec_b, layout.orientation), rot)
        b_len, cb_ax = (wb, cbx) if horizontal else (lb, cby)
        cross_b_len, cb_cross = (lb, cby) if horizontal else (wb, cbx)

        lo = -(b_len + ipd + 10.0)
        hi = a_len + ipd + 10.0
        ts = np.arange(lo, hi, step)
        sep = np.abs(ts + cb_ax - ca_ax)

        if layout.stacking == "coplanar":
            feasible = (ts >= a_len - 1e-9) | (ts + b_len <= 1e-9)
        else:
            feasible = ~((ts < ca_ax - 1e-9) & (ts + b_len > ca_ax + 1e-9))

        hits = feasible & (np.abs(sep - ipd) <= window)
        if not hits.any():
            continue

        cross_t = ca_cross - cb_cross
        cross_extent = max(cross_a_len, cross_t + cross_b_len) - min(0.0, cross_t)
        ext = np.maximum(a_len, ts + b_len) - np.minimum(0.0, ts)
        areas = ext * cross_extent
        masked = np.where(hits, areas, np.inf)
        i = int(np.argmin(masked))
        return {
            "rotation": rot,
            "t": float(ts[i]),
            "area": float(areas[i]),
            "separation": float(sep[i]),
            "cross_extent": float(cross_extent),
        }
    return None


def scan_min_separation(spec_a, spec_b, layout, ipd: float, step: float = 0.1) -> float:
    """Smallest feasible camera separation the scan can find, any rotation."""
    wa, la, cax, cay = _oriented_oracle(spec_a, layout.orientation)
    horizontal = layout.axis == "horizontal"
    a_len, ca_ax = (wa, cax) if horizontal else (la, cay)

    rotations = [0]
    if layout.rotation_b != 0:
        rotations.append(layout.rotation_b)

    best = math.inf
    for rot in rotations:
        wb, lb, cbx, cby = footprint_oracle(*_oriented_oracle(spec_b, layout.orientation), rot)
        b_len, cb_ax = (wb, cbx) if horizontal else (lb, cby)
        lo = -(b_len + ipd + 200.0)
        hi = a_len + ipd + 200.0
        ts = np.arange(lo, hi, step)
        sep = np.abs(ts + cb_ax - ca_ax)
        if layout.stacking == "coplanar":
            feasible = (ts >= a_len - 1e-9) | (ts + b_len <= 1e-9)
        else:
            feasible = ~((ts < ca_ax - 1e-9) & (ts + b_len > ca_ax + 1e-9))
        if feasible.any():
            best = min(best, float(sep[feasible].min()))
    return best


# --- sequential fold oracle ---------------------------------------------------

def fold_positions_oracle(
    points: list[tuple[float, float]], folds: list[tuple[float, float]]
) -> list[tuple[float, float, float]]:
    """Fold a flat strip by rotating everything beyond each hinge in turn.

    points are (x_along_strip, y); folds are (hinge_x, angle_deg).  Returns
    3D positions with the strip's y as height.
    """
    xs = [p[0] for p in points]
    pos = [complex(x, 0.0) for x in xs]
    hinge_xs = sorted(f[0] for f in folds)
    hinge_pos = {hx: complex(hx, 0.0) for hx in hinge_xs}
    for hx, ang in sorted(folds):
        pivot = hinge_pos[hx]
        spin = cmath.exp(1j * math.radians(ang))
        for i, x in enumerate(xs):
            if x > hx + 1e-12:
                pos[i] = pivot + (pos[i] - pivot) * spin
        for other in hinge_xs:
            if other > hx + 1e-12:
                hinge_pos[other] = pivot + (hinge_pos[other] - pivot) * spin
    return [(p.real, p.imag, pt[1]) for p, pt in zip(pos, points)]


# --- capability negotiation by exhaustive loops -----------------------------

def negotiate_oracle(a, b) -> tuple[float, tuple[int, int]]:
    common_fps = [f for f in a.frame_rates if f in b.frame_rates]
    if common_fps:
        fps = max(common_fps)
    else:
        fps = min(max(a.frame_rates), max(b.frame_rates))

    def rank(r):
        return (r[0] * r[1], r[0])

    common_res = [r for r in a.resolutions if r in b.resolutions]
    if common_res:
        res = sorted(common_res, key=rank)[-1]
    else:
        best_a = sorted(a.resolutions, key=rank)[-1]
        best_b = sorted(b.resolutions, key=rank)[-1]
        res = sorted([best_a, best_b], key=rank)[0]
    return fps, res


# --- raw-dict device invariant validator ------------------------------------

def validate_spec_dict(entry: dict) -> list[str]:
    problems = []
    for name in ("body_width", "body_length", "body_thickness", "pixel_density"):
        if not entry[name] > 0:
            problems.append(f"{name} not positive")
    cx, cy = entry["camera_center"]
    if not (0 <= cx <= entry["body_width"]):
        problems.append("camera x outside body")
    if not (0 <= cy <= entry["body_length"]):
        problems.append("camera y outside body")
    if not entry["resolutions"]:
        problems.append("no resolutions")
    if not entry["frame_rates"]:
        problems.append("no frame rates")
    if not (0 < entry["screen_width_px"] <= 1e5 and 0 < entry["screen_height_px"] <= 1e5):
        problems.append("bad screen")
    if not all(0 < side <= 1e5 for size in entry["resolutions"] for side in size):
        problems.append("bad resolution")
    if not all(0 < fps <= 1e3 for fps in entry["frame_rates"]):
        problems.append("bad frame rate")
    return problems


# --- XML escaping ------------------------------------------------------------

# the standard library's escape; svgio re-implements it so as not to import it
xml_escape_oracle = saxutils.escape


# --- pixel oracles ------------------------------------------------------------

def anaglyph_oracle(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    h, w = left.shape[:2]
    out = np.zeros((h, w, 3), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            ll = (
                int(left[y, x, 0]) * 0.299
                + int(left[y, x, 1]) * 0.587
                + int(left[y, x, 2]) * 0.114
            )
            rr = (
                int(right[y, x, 0]) * 0.299
                + int(right[y, x, 1]) * 0.587
                + int(right[y, x, 2]) * 0.114
            )
            out[y, x, 0] = min(255, math.floor(rr + 0.5))
            out[y, x, 2] = min(255, math.floor(ll + 0.5))
    return out


def sbs_oracle(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    h, w = left.shape[:2]
    out = np.zeros((h, 2 * w, 3), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            for c in range(3):
                out[y, x, c] = left[y, x, c]
                out[y, w + x, c] = right[y, x, c]
    return out


# --- frame pairing oracles ----------------------------------------------------

def greedy_pairs_oracle(
    lts: list[float], rts: list[float], tol: float
) -> list[tuple[int, int]]:
    taken = [False] * len(rts)
    pairs = []
    for i, lt in enumerate(lts):
        best = None
        for j, rt in enumerate(rts):
            if taken[j] or abs(rt - lt) > tol:
                continue
            key = (abs(rt - lt), rt)
            if best is None or key < best[0]:
                best = (key, j)
        if best is not None:
            taken[best[1]] = True
            pairs.append((i, best[1]))
    return pairs


def optimal_pairs_oracle(
    lts: list[float], rts: list[float], tol: float
) -> tuple[int, float]:
    """(max pair count, min total skew at that count) via non-crossing DP."""
    n, m = len(lts), len(rts)
    neg = (-1, 0.0)
    dp = [[(0, 0.0)] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            best = max(
                dp[i - 1][j], dp[i][j - 1], key=lambda t: (t[0], -t[1])
            )
            d = abs(lts[i - 1] - rts[j - 1])
            if d <= tol:
                cand = (dp[i - 1][j - 1][0] + 1, dp[i - 1][j - 1][1] + d)
                if (cand[0], -cand[1]) > (best[0], -best[1]):
                    best = cand
            dp[i][j] = best
    count, skew = dp[n][m]
    return count, skew


# --- merge outcome oracle -----------------------------------------------------

# a P6 header: magic, width, height and maxval, each separated by whitespace
# and `#` comments, then exactly one whitespace byte before the raster
_HEADER_SEP = rb"\s(?:\s|#[^\n]*\n)*"
_P6_HEADER = re.compile(
    rb"P6" + _HEADER_SEP + rb"(\d+)" + _HEADER_SEP + rb"(\d+)" + _HEADER_SEP + rb"(\d+)\s"
)


def _ppm_size_oracle(data: bytes | None) -> tuple[int, int] | None:
    """(width, height) of a whole binary P6 file with maxval 255, else None."""
    m = _P6_HEADER.match(data or b"")
    if m is None:
        return None
    w, h, maxval = (int(g) for g in m.groups())
    if w == 0 or h == 0 or maxval != 255 or len(data) - m.end() < w * h * 3:
        return None
    return w, h


def merge_outcome_oracle(
    left: list[tuple[str, bytes | None]],
    right: list[tuple[str, bytes | None]],
    tol: float,
    mode: str,
) -> tuple[int, set[str]]:
    """(exit code, names in -o) of `stereorig merge` on two streams.

    Each stream is its manifest's entries in order: the timestamp as text
    and the frame file's bytes, None for a missing file.  Every frame,
    dropped ones included, must have a finite timestamp, non-decreasing
    within its stream, and a valid whole P6 file; paired frames must have
    the same size.  A failed run leaves nothing.
    """
    streams = []
    for entries in (left, right):
        times, sizes = [], []
        for text, data in entries:
            try:
                ts = float(text)
            except ValueError:
                return 1, set()
            size = _ppm_size_oracle(data)
            if not math.isfinite(ts) or size is None or (times and ts < times[-1]):
                return 1, set()
            times.append(ts)
            sizes.append(size)
        streams.append((times, sizes))
    (lts, lsizes), (rts, rsizes) = streams
    pairs = greedy_pairs_oracle(lts, rts, tol)
    if any(lsizes[i] != rsizes[j] for i, j in pairs):
        return 1, set()
    return 0, {"pairs.txt"} | {f"{mode}_{k:04d}.ppm" for k in range(len(pairs))}


# --- segment intersection sweep ----------------------------------------------

def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p) -> bool:
    return (
        min(a[0], b[0]) - 1e-9 <= p[0] <= max(a[0], b[0]) + 1e-9
        and min(a[1], b[1]) - 1e-9 <= p[1] <= max(a[1], b[1]) + 1e-9
    )


def segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    for (a, b, p) in ((p3, p4, p1), (p3, p4, p2), (p1, p2, p3), (p1, p2, p4)):
        if abs(_orient(a, b, p)) < 1e-9 and _on_segment(a, b, p):
            return True
    return False


def piece_segments(piece) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    if piece.shape == "rect":
        x, y, w, h = piece.rect
        c = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
        return [(c[i], c[(i + 1) % 4]) for i in range(4)]
    if piece.shape == "segments":
        return [
            (piece.points[i], piece.points[i + 1]) for i in range(len(piece.points) - 1)
        ]
    return []


def cut_intersections(layout) -> list[tuple[str, str]]:
    """Pairs of distinct cut pieces whose outlines touch or cross."""
    cuts = [p for p in layout.pieces if p.kind == "cut"]
    bad = []
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            for s1 in piece_segments(cuts[i]):
                for s2 in piece_segments(cuts[j]):
                    if segments_intersect(*s1, *s2):
                        bad.append((cuts[i].piece_id, cuts[j].piece_id))
                        break
                else:
                    continue
                break
    return bad


# --- misc helpers ---------------------------------------------------------------

def half_up(v: float) -> int:
    return math.floor(v + 0.5)


_RES_POOL = [
    (640, 480),
    (1280, 720),
    (1920, 1080),
    (2560, 1440),
    (3840, 2160),
]
_FPS_POOL = [15.0, 24.0, 25.0, 30.0, 48.0, 60.0, 120.0]
_FOCUS_POOL = ["auto", "infinity", "macro", "manual"]
_CAPTURE_POOL = ["video", "mono", "hdr", "raw"]


def random_spec(rng, model_id: str):
    """Randomized but template-friendly device: cameras near the top edge."""
    from stereorig.registry import DeviceSpec

    w = rng.uniform(60.0, 85.0)
    l = rng.uniform(120.0, 170.0)
    h = rng.uniform(6.0, 12.0)
    cx = rng.uniform(20.0, min(55.0, w - 5.0))
    cy = rng.uniform(5.0, 30.0)
    density = rng.uniform(8.0, 12.0)
    res = rng.sample(_RES_POOL, k=rng.randint(1, 3))
    fps = rng.sample(_FPS_POOL, k=rng.randint(1, 3))
    return DeviceSpec(
        model_id=model_id,
        body_width=round(w, 2),
        body_length=round(l, 2),
        body_thickness=round(h, 2),
        camera_center=(round(cx, 2), round(cy, 2)),
        screen_width_px=int(w * density),
        screen_height_px=int(l * density),
        pixel_density=round(density, 2),
        resolutions=frozenset(res),
        frame_rates=frozenset(fps),
        focus_modes=frozenset(rng.sample(_FOCUS_POOL, k=rng.randint(1, 3))),
        capture_modes=frozenset(rng.sample(_CAPTURE_POOL, k=rng.randint(1, 2))),
    )


# --- sync retransmission ------------------------------------------------------


def awaiting_oracle(state) -> bool:
    """Whether a session still waits for its pairing messages to be answered.

    The simulator's earlier role/phase rule: the initiator waits while
    Pairing (for PairAccept or CapabilityOffer), the responder while
    Negotiating (for CapabilityAck).
    """
    phase = state.phase.value
    return (state.role, phase) in (("initiator", "pairing"), ("responder", "negotiating"))


# --- field-by-field JSON shapes -------------------------------------------------


def model_dict_oracle(model) -> dict:
    """BaseModel as JSON data, every field named by hand and rounded to 3 decimals."""

    def point(p):
        return [round(p[0], 3), round(p[1], 3)]

    def rect(r):
        return {
            "x": round(r.x, 3),
            "y": round(r.y, 3),
            "width": round(r.width, 3),
            "height": round(r.height, 3),
        }

    return {
        "camera_a": point(model.camera_a),
        "camera_b_target": point(model.camera_b_target),
        "box_b": rect(model.box_b),
        "body_a": rect(model.body_a),
        "camera_b_offset": point(model.camera_b_offset),
        "layout": {
            "axis": model.layout.axis,
            "stacking": model.layout.stacking,
            "orientation": model.layout.orientation,
            "rotation_b": model.layout.rotation_b,
        },
        "ipd": round(model.ipd, 3),
        "rotation_applied": model.rotation_applied,
        "device_a": model.device_a,
        "device_b": model.device_b,
        "axis_gap": round(model.axis_gap, 3),
    }


def serialized_specs_oracle(specs) -> str:
    """Catalog text with every DeviceSpec field named by hand and each set sorted."""
    docs = [
        {
            "model_id": s.model_id,
            "body_width": s.body_width,
            "body_length": s.body_length,
            "body_thickness": s.body_thickness,
            "camera_center": list(s.camera_center),
            "screen_width_px": s.screen_width_px,
            "screen_height_px": s.screen_height_px,
            "pixel_density": s.pixel_density,
            "resolutions": sorted([w, h] for w, h in s.resolutions),
            "frame_rates": sorted(s.frame_rates),
            "focus_modes": sorted(s.focus_modes),
            "capture_modes": sorted(s.capture_modes),
        }
        for s in specs
    ]
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"


# --- sync protocol transitions -----------------------------------------------
# The hand-written if-chains that `syncproto.step` used before its
# TRANSITIONS table, kept unchanged as the reference the table must match.


def _fail(
    state: SessionState, reason: str, emit: bool = False
) -> tuple[SessionState, list[Message]]:
    out = [Message(MsgKind.ERROR, state.endpoint_id, reason)] if emit else []
    return replace(state, phase=Phase.FAILED, fail_reason=reason, unacked=()), out


def _profile_within(profile: CapabilityProfile, spec: DeviceSpec) -> bool:
    # the adopted profile must not ask this device for more than its maxima
    own_fps = max(spec.frame_rates)
    own_px = max(w * h for w, h in spec.resolutions)
    return profile.frame_rate <= own_fps and profile.resolution[0] * profile.resolution[1] <= own_px


def _on_timer(
    state: SessionState, timer: Timer, now: float
) -> tuple[SessionState, list[Message]]:
    me = state.endpoint_id
    kind = timer.kind
    if kind == "abort":
        return _fail(state, "aborted: peer failure")
    if kind == "give_up":
        return _fail(state, "timeout: retry budget exhausted")

    if kind == "start":
        if state.phase is not Phase.IDLE:
            return _fail(state, f"unexpected start in {state.phase.value}")
        if state.role == "initiator":
            request = (Message(MsgKind.PAIR_REQUEST, me),)
            return replace(state, phase=Phase.PAIRING, unacked=request), list(request)
        return replace(state, phase=Phase.PAIRING), []

    if kind == "propose_capture":
        if state.role != "initiator" or state.phase is not Phase.CONFIGURED:
            return _fail(state, f"unexpected propose_capture in {state.phase.value}")
        start = now + float(timer.payload)
        return replace(state, capture_start=start), [Message(MsgKind.CAPTURE_START, me, start)]

    if kind == "capture_begin":
        if state.phase is not Phase.CONFIGURED or state.capture_start is None:
            return state, []
        return replace(state, phase=Phase.CAPTURING), []

    if kind == "tick_due":
        if state.phase is not Phase.CAPTURING:
            return state, []
        period = 1000.0 / state.negotiated.frame_rate
        seq = state.next_tick_seq
        ts = state.capture_start + seq * period
        msg = Message(MsgKind.FRAME_TICK, me, TickStamp(seq, ts))
        return replace(state, next_tick_seq=seq + 1), [msg]

    if kind == "capture_end":
        if state.phase is not Phase.CAPTURING:
            return state, []
        return replace(state, phase=Phase.DONE), []

    return _fail(state, f"unknown timer {kind!r}")


def _on_message(
    state: SessionState, msg: Message, now: float
) -> tuple[SessionState, list[Message]]:
    me = state.endpoint_id
    kind = msg.kind
    phase = state.phase

    if kind is MsgKind.ERROR:
        return _fail(state, f"peer error: {msg.payload}")

    if kind is MsgKind.PAIR_REQUEST:
        if state.role == "responder" and phase in (Phase.PAIRING, Phase.NEGOTIATING):
            replies = (
                Message(MsgKind.PAIR_ACCEPT, me),
                Message(MsgKind.CAPABILITY_OFFER, me, state.spec),
            )
            return replace(state, phase=Phase.NEGOTIATING, unacked=replies), list(replies)
        return _fail(state, f"unexpected PairRequest in {phase.value}", emit=True)

    if kind is MsgKind.PAIR_ACCEPT:
        if state.role == "initiator":
            if phase is Phase.PAIRING:
                return replace(state, phase=Phase.NEGOTIATING, unacked=()), []
            if phase in (Phase.NEGOTIATING, Phase.CONFIGURED):
                return state, []  # duplicate / reordered
        return _fail(state, f"unexpected PairAccept in {phase.value}", emit=True)

    if kind is MsgKind.CAPABILITY_OFFER:
        if state.role == "initiator":
            if phase in (Phase.PAIRING, Phase.NEGOTIATING):
                profile = negotiate(state.spec, msg.payload)
                return (
                    replace(state, phase=Phase.CONFIGURED, negotiated=profile, unacked=()),
                    [Message(MsgKind.CAPABILITY_ACK, me, profile)],
                )
            if phase is Phase.CONFIGURED:
                return state, [Message(MsgKind.CAPABILITY_ACK, me, state.negotiated)]
        return _fail(state, f"unexpected CapabilityOffer in {phase.value}", emit=True)

    if kind is MsgKind.CAPABILITY_ACK:
        if state.role == "responder":
            if phase is Phase.NEGOTIATING:
                profile = msg.payload
                if not _profile_within(profile, state.spec):
                    return _fail(state, "negotiated profile exceeds own capabilities", emit=True)
                return (
                    replace(state, phase=Phase.CONFIGURED, negotiated=profile, unacked=()),
                    [],
                )
            if phase is Phase.CONFIGURED:
                return state, []  # duplicate ack
        return _fail(state, f"unexpected CapabilityAck in {phase.value}", emit=True)

    if kind is MsgKind.CAPTURE_START:
        if phase is Phase.CONFIGURED:
            start = float(msg.payload)
            if start <= now:
                return _fail(state, "start time in past", emit=True)
            return replace(state, capture_start=start), []
        return _fail(state, f"unexpected CaptureStart in {phase.value}", emit=True)

    if kind is MsgKind.FRAME_TICK:
        if phase is Phase.CAPTURING:
            tick: TickStamp = msg.payload
            period = 1000.0 / state.negotiated.frame_rate
            expected = state.capture_start + tick.seq * period
            if abs(tick.timestamp - expected) > _CADENCE_TOL_MS:
                return _fail(
                    state,
                    f"frame cadence mismatch at seq {tick.seq}: "
                    f"got {tick.timestamp:.6f}, expected {expected:.6f}",
                    emit=True,
                )
            return state, []
        if phase in (Phase.DONE, Phase.CONFIGURED):
            return state, []  # late or early tick around the capture window
        return _fail(state, f"unexpected FrameTick in {phase.value}", emit=True)

    return _fail(state, f"unknown message kind {kind!r}", emit=True)


def step_oracle(
    state: SessionState, event: Message | Timer, local_now: float = 0.0
) -> tuple[SessionState, list[Message]]:
    """The if-chain `step` that the TRANSITIONS table replaced, kept as the reference."""
    if state.phase is Phase.FAILED:
        return state, []
    if state.phase is Phase.DONE and not (
        isinstance(event, Timer) and event.kind == "abort"
    ):
        return state, []
    if isinstance(event, Timer):
        return _on_timer(state, event, local_now)
    if isinstance(event, Message):
        return _on_message(state, event, local_now)
    raise TypeError(f"event must be Message or Timer, got {type(event).__name__}")
