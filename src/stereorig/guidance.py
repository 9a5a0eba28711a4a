"""On-screen grid guidance and sensor-based alignment judging.

The grid overlay projects a depth-stacked base model onto the rear
device's screen (mm -> px via the device's pixel density) so the user can
line the front device up against drawn markers.  The sensor path compares
paired magnetometer/gyroscope readings from the two devices and turns the
result into deterministic corrective instructions.

The magnetometer comparison is a direct componentwise delta of the two
field vectors: two identically-oriented devices in the same place read the
same field.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import (
    DEFAULT_GRID_PITCH_MM,
    DEFAULT_GYRO_TOLERANCE_DPS,
    DEFAULT_MAG_TOLERANCE_UT,
    check_range,
    json_array,
    round_floats,
)
from .alignment import BaseModel
from .registry import DeviceSpec

_AXES = ("x", "y", "z")


class GuidanceError(ValueError):
    """Raised for readings that cannot be judged or overlays that cannot render."""


@dataclass(frozen=True)
class SensorReading:
    magnetometer: tuple[float, float, float]  # uT per axis
    gyroscope: tuple[float, float, float]  # deg/s per axis
    timestamp_ms: float = 0.0

    def __post_init__(self):
        for v in (*self.magnetometer, *self.gyroscope, self.timestamp_ms):
            if not math.isfinite(v):
                raise GuidanceError(f"non-finite sensor value {v!r}")


@dataclass(frozen=True)
class AlignmentStatus:
    aligned: bool
    axis_deltas: tuple[float, float, float]
    tilt_detected: bool
    tilt_axis: str | None
    offending_axes: tuple[str, ...] = ()


@dataclass(frozen=True)
class GridOverlay:
    """Pixel-space overlay; coordinates are floats, rounded only on access.

    Keeping sub-pixel positions makes the mm->px mapping exactly linear
    (doubling the density doubles every coordinate bit-for-bit); the
    integer positions a renderer would light up come from marker_px().
    """

    screen_px: tuple[int, int]
    vertical_lines: tuple[float, ...]
    horizontal_lines: tuple[float, ...]
    target_marker: tuple[float, float]
    box_marker: tuple[float, float, float, float]
    pixel_density: float
    pitch_mm: float
    orientation: str

    def marker_px(self) -> tuple[int, int]:
        return (_half_up(self.target_marker[0]), _half_up(self.target_marker[1]))


def _half_up(v: float) -> int:
    return math.floor(v + 0.5)


def grid_overlay(
    base: BaseModel,
    spec: DeviceSpec,
    pitch_mm: float = DEFAULT_GRID_PITCH_MM,
) -> GridOverlay:
    """Project the base model onto the rear device's screen.

    Only depth-stacked bases are displayable this way: the screen and the
    placement share a plane.  Landscape orientation swaps the screen axes.
    Raises if the camera target lands off-screen.
    """
    if base.layout.stacking != "depth-stacked":
        raise GuidanceError("grid overlay requires a depth-stacked base model")
    check_range("grid pitch", pitch_mm, "positive", GuidanceError)
    d = spec.pixel_density
    if base.layout.orientation == "landscape":
        screen = (spec.screen_height_px, spec.screen_width_px)
    else:
        screen = (spec.screen_width_px, spec.screen_height_px)

    tx = base.camera_b_target[0] * d
    ty = base.camera_b_target[1] * d
    if not (math.isfinite(tx) and math.isfinite(ty)):
        raise GuidanceError(
            f"{spec.model_id}: pixel_density {d} puts the target marker at "
            f"({tx}, {ty}) px, beyond any screen"
        )
    if not (0 <= _half_up(tx) < screen[0] and 0 <= _half_up(ty) < screen[1]):
        raise GuidanceError(
            f"target marker ({tx:.1f}, {ty:.1f}) px is off the "
            f"{screen[0]} x {screen[1]} screen"
        )

    bx0 = max(base.box_b.x * d, 0.0)
    by0 = max(base.box_b.y * d, 0.0)
    bx1 = min(base.box_b.right * d, float(screen[0]))
    by1 = min(base.box_b.bottom * d, float(screen[1]))
    box = (bx0, by0, max(bx1 - bx0, 0.0), max(by1 - by0, 0.0))

    step = pitch_mm * d
    if step < 1.0:
        raise GuidanceError(
            f"grid pitch {pitch_mm} mm is under one pixel on {spec.model_id} ({d} px/mm)"
        )
    verticals = []
    i = 0
    while i * step < screen[0]:
        verticals.append(i * step)
        i += 1
    horizontals = []
    i = 0
    while i * step < screen[1]:
        horizontals.append(i * step)
        i += 1

    return GridOverlay(
        screen_px=screen,
        vertical_lines=tuple(verticals),
        horizontal_lines=tuple(horizontals),
        target_marker=(tx, ty),
        box_marker=box,
        pixel_density=d,
        pitch_mm=pitch_mm,
        orientation=base.layout.orientation,
    )


def check_alignment(
    a: SensorReading,
    b: SensorReading,
    mag_tolerance: float = DEFAULT_MAG_TOLERANCE_UT,
    gyro_tolerance: float = DEFAULT_GYRO_TOLERANCE_DPS,
) -> AlignmentStatus:
    """Judge whether two devices read as aligned.

    Aligned means every magnetometer axis delta is within mag_tolerance and
    no tilt is detected.  Tilt on an axis means one device's gyro rate on
    that axis is active (beyond gyro_tolerance) while the two devices'
    rates disagree by more than gyro_tolerance - i.e. one device is turning
    and the other is not following.
    """
    # a nan tolerance would pass every delta
    check_range("mag_tolerance", mag_tolerance, "non-negative", GuidanceError)
    check_range("gyro_tolerance", gyro_tolerance, "non-negative", GuidanceError)
    deltas = tuple(bb - aa for aa, bb in zip(a.magnetometer, b.magnetometer))
    offending = tuple(
        axis for axis, delta in zip(_AXES, deltas) if abs(delta) > mag_tolerance
    )
    tilt_axis = None
    for axis, ga, gb in zip(_AXES, a.gyroscope, b.gyroscope):
        active = abs(ga) > gyro_tolerance or abs(gb) > gyro_tolerance
        if active and abs(ga - gb) > gyro_tolerance:
            tilt_axis = axis
            break
    return AlignmentStatus(
        aligned=not offending and tilt_axis is None,
        axis_deltas=deltas,
        tilt_detected=tilt_axis is not None,
        tilt_axis=tilt_axis,
        offending_axes=offending,
    )


def instructions(status: AlignmentStatus) -> list[str]:
    """Deterministic guidance text: axis correctives in x,y,z order, then tilt."""
    if status.aligned:
        return ["aligned"]
    out = []
    for axis, delta in zip(_AXES, status.axis_deltas):
        if axis in status.offending_axes:
            sign = "+" if delta > 0 else "-"
            out.append(f"move second device {sign}{axis} ({delta:+.1f} uT)")
    if status.tilt_detected:
        out.append(f"reduce tilt about {status.tilt_axis}")
    return out


def _reading_from_dict(doc: dict) -> SensorReading:
    try:
        mag = json_array("magnetometer", doc["magnetometer"], 3)
        gyro = json_array("gyroscope", doc["gyroscope"], 3)
        values = dict(
            magnetometer=(float(mag[0]), float(mag[1]), float(mag[2])),
            gyroscope=(float(gyro[0]), float(gyro[1]), float(gyro[2])),
            timestamp_ms=float(doc.get("timestamp_ms", 0.0)),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GuidanceError(f"malformed sensor reading: {exc}") from exc
    return SensorReading(**values)  # checks itself; its GuidanceError is not rewrapped


def load_reading_pairs(path: str) -> list[tuple[SensorReading, SensorReading]]:
    """Read a fixture file: JSON array of {"a": reading, "b": reading} pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise GuidanceError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise GuidanceError(f"malformed readings file: {exc}") from exc
        except RecursionError as exc:
            raise GuidanceError("malformed readings file: nested too deeply") from exc
    if not isinstance(doc, list) or not doc:
        raise GuidanceError("readings file must be a non-empty JSON array")
    pairs = []
    for entry in doc:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise GuidanceError("each entry needs 'a' and 'b' readings")
        pairs.append((_reading_from_dict(entry["a"]), _reading_from_dict(entry["b"])))
    return pairs


def overlay_to_dict(overlay: GridOverlay) -> dict:
    # the density and pitch are the caller's own numbers and print unrounded
    return round_floats(asdict(overlay), 3) | {
        "pixel_density": overlay.pixel_density,
        "pitch_mm": overlay.pitch_mm,
        "target_marker_px": list(overlay.marker_px()),
    }


def overlay_to_svg(overlay: GridOverlay) -> str:
    """Debug rendering of the overlay in pixel units."""
    w, h = overlay.screen_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'  <rect x="0" y="0" width="{w}" height="{h}" fill="none" stroke="#000"/>',
    ]
    for x in overlay.vertical_lines:
        lines.append(
            f'  <line x1="{x:.3f}" y1="0" x2="{x:.3f}" y2="{h}" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        )
    for y in overlay.horizontal_lines:
        lines.append(
            f'  <line x1="0" y1="{y:.3f}" x2="{w}" y2="{y:.3f}" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        )
    bx, by, bw, bh = overlay.box_marker
    lines.append(
        f'  <rect x="{bx:.3f}" y="{by:.3f}" width="{bw:.3f}" height="{bh:.3f}" '
        f'fill="none" stroke="#0066cc" stroke-width="2"/>'
    )
    tx, ty = overlay.target_marker
    lines.append(
        f'  <circle cx="{tx:.3f}" cy="{ty:.3f}" r="6" fill="none" '
        f'stroke="#cc0000" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
