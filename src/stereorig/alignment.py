"""Placement solver: position device B relative to device A so the back
cameras sit exactly one inter-pupillary distance apart.

All geometry lives in a shared 2D rig plane in millimetres.  Device A's
body occupies the rectangle (0, 0, width, length) in its chosen
orientation; device B's body is translated along the layout axis (the
cross axis is fixed by levelling the two cameras) until the camera
separation equals the requested ipd.  Rotation 0 is always attempted
first; the caller-given rotation_b is a fallback for layouts that are
infeasible unrotated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import DEFAULT_IPD_MM, check_range, dump_json, round_floats
from .registry import DeviceSpec

AXES = ("horizontal", "vertical")
STACKINGS = ("coplanar", "depth-stacked")
ORIENTATIONS = ("portrait", "landscape")
ROTATIONS = (0, 90, 180, 270)
_PLACEMENT_TOL_MM = 0.01


class InfeasibleLayoutError(ValueError):
    """No translation of box_b achieves the ipd without a constraint violation."""

    def __init__(self, message: str, min_separation: float):
        super().__init__(message)
        self.min_separation = min_separation


@dataclass(frozen=True)
class Rect:
    x: float
    y: float
    width: float
    height: float

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height

    def overlaps(self, other: "Rect") -> bool:
        # open-interval test: shared edges do not count as overlap
        return (
            self.x < other.right
            and other.x < self.right
            and self.y < other.bottom
            and other.y < self.bottom
        )

    def contains_point(self, x: float, y: float) -> bool:
        # strict interior; points on the boundary are outside
        return self.x < x < self.right and self.y < y < self.bottom

    def union(self, other: "Rect") -> "Rect":
        """The smallest rectangle holding both."""
        x, y = min(self.x, other.x), min(self.y, other.y)
        return Rect(x, y, max(self.right, other.right) - x, max(self.bottom, other.bottom) - y)


@dataclass(frozen=True)
class LayoutConfig:
    axis: str = "vertical"
    stacking: str = "coplanar"
    orientation: str = "portrait"
    rotation_b: int = 0

    def __post_init__(self):
        choices = (("axis", AXES), ("stacking", STACKINGS), ("orientation", ORIENTATIONS),
                   ("rotation_b", ROTATIONS))
        for name, allowed in choices:
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class BaseModel:
    """Solved placement: where device B's body and camera must go.

    camera_b_offset is device B's camera position measured from box_b's
    top-left corner after rotation_applied; axis_gap is the clear distance
    between the two bodies along the layout axis (negative means the
    bodies' axis intervals overlap, which depth stacking permits).
    """

    camera_a: tuple[float, float]
    camera_b_target: tuple[float, float]
    box_b: Rect
    body_a: Rect
    camera_b_offset: tuple[float, float]
    layout: LayoutConfig
    ipd: float
    rotation_applied: int
    device_a: str
    device_b: str
    axis_gap: float


def oriented_footprint(spec: DeviceSpec, orientation: str) -> tuple[float, float, float, float]:
    """(width, length, cam_x, cam_y) of the body in the rig plane."""
    w, l = spec.body_width, spec.body_length
    cx, cy = spec.camera_center
    if orientation == "landscape":
        return rotate_footprint(w, l, cx, cy, 90)
    return (w, l, cx, cy)


def rotate_footprint(
    w: float, l: float, cx: float, cy: float, degrees: int
) -> tuple[float, float, float, float]:
    """Rotate a body rectangle (and a point inside it) clockwise in-plane."""
    if degrees == 0:
        return (w, l, cx, cy)
    if degrees == 90:
        return (l, w, l - cy, cx)
    if degrees == 180:
        return (w, l, w - cx, l - cy)
    if degrees == 270:
        return (l, w, cy, w - cx)
    raise ValueError(f"rotation must be one of {ROTATIONS}, got {degrees!r}")


def _interval_gap(a0: float, a1: float, b0: float, b1: float) -> float:
    """Clear distance between intervals [a0,a1] and [b0,b1]; negative if they overlap."""
    return max(b0 - a1, a0 - b1)


def compute_base_model(
    a: DeviceSpec,
    b: DeviceSpec,
    layout: LayoutConfig,
    ipd: float = DEFAULT_IPD_MM,
) -> BaseModel:
    """Solve device B's placement for the given layout.

    The solve is closed-form: the cross-axis offset levels the cameras and
    the axis offset is camera_a_axis +/- ipd.  Both signs are tried; among
    feasible placements the winner minimizes (rig bounding-box area, axis
    gap), preferring rotation 0 over the fallback rotation and the positive
    axis side on exact ties.  Raises InfeasibleLayoutError carrying the
    minimum achievable separation when no placement works.
    """
    check_range("ipd", ipd, "length")

    wa, la, cax, cay = oriented_footprint(a, layout.orientation)
    body_a = Rect(0.0, 0.0, wa, la)
    size_a, cam_a = (wa, la), (cax, cay)
    k = AXES.index(layout.axis)  # the coordinate the layout axis runs along: 0 is x, 1 is y

    rotations = [0]
    if layout.rotation_b != 0:
        rotations.append(layout.rotation_b)

    min_separations: list[float] = []
    for rot in rotations:
        wb, lb, cbx, cby = rotate_footprint(*oriented_footprint(b, layout.orientation), rot)
        size_b, cam_b = (wb, lb), (cbx, cby)
        candidates = []
        for side in (1, -1):
            t = [cam_a[0] - cam_b[0], cam_a[1] - cam_b[1]]
            t[k] = cam_a[k] + side * ipd - cam_b[k]
            box = Rect(t[0], t[1], wb, lb)
            if layout.stacking == "coplanar":
                feasible = not body_a.overlaps(box)
            else:
                feasible = not box.contains_point(cax, cay)
            if not feasible:
                continue
            gap = _interval_gap(0.0, size_a[k], t[k], t[k] + size_b[k])
            rig = body_a.union(box)
            rank = (rig.width * rig.height, gap, 0 if side == 1 else 1)
            candidates.append((rank, box, (t[0] + cbx, t[1] + cby), gap))
        if candidates:
            _, box, cam_target, gap = min(candidates, key=lambda c: c[0])
            return BaseModel(
                camera_a=cam_a,
                camera_b_target=cam_target,
                box_b=box,
                body_a=body_a,
                camera_b_offset=cam_b,
                layout=layout,
                ipd=ipd,
                rotation_applied=rot,
                device_a=a.model_id,
                device_b=b.model_id,
                axis_gap=gap,
            )

        # record the closest the cameras can get under this rotation
        if layout.stacking == "coplanar":
            min_separations.append((size_a[k] - cam_a[k]) + cam_b[k])
            min_separations.append(cam_a[k] + (size_b[k] - cam_b[k]))
        else:
            min_separations.append(min(cam_b[k], size_b[k] - cam_b[k]))

    min_sep = min(min_separations)
    raise InfeasibleLayoutError(
        f"no placement of {b.model_id} reaches ipd {ipd} mm in a "
        f"{layout.axis} {layout.stacking} layout; minimum achievable "
        f"separation is {min_sep:.1f} mm",
        min_separation=min_sep,
    )


def camera_separation(model: BaseModel) -> float:
    ax, ay = model.camera_a
    bx, by = model.camera_b_target
    return math.hypot(bx - ax, by - ay)


def validate_placement(model: BaseModel) -> list[str]:
    """Independent invariant check; returns one message per violation."""
    tolerance = _PLACEMENT_TOL_MM
    violations = []
    sep = camera_separation(model)
    if abs(sep - model.ipd) > tolerance:
        violations.append(f"ipd: separation {sep:.3f} mm != {model.ipd:.3f} mm")

    ox, oy = model.camera_b_offset
    ex = model.box_b.x + ox
    ey = model.box_b.y + oy
    bx, by = model.camera_b_target
    if abs(ex - bx) > tolerance or abs(ey - by) > tolerance:
        violations.append(
            f"camera_offset: box_b corner + offset gives ({ex:.3f}, {ey:.3f}), "
            f"target is ({bx:.3f}, {by:.3f})"
        )
    if not (-tolerance <= ox <= model.box_b.width + tolerance) or not (
        -tolerance <= oy <= model.box_b.height + tolerance
    ):
        violations.append(f"camera_offset: ({ox:.3f}, {oy:.3f}) outside box_b dimensions")

    if model.layout.stacking == "coplanar":
        overlap_x = min(model.body_a.right, model.box_b.right) - max(
            model.body_a.x, model.box_b.x
        )
        overlap_y = min(model.body_a.bottom, model.box_b.bottom) - max(
            model.body_a.y, model.box_b.y
        )
        if overlap_x > tolerance and overlap_y > tolerance:
            violations.append(
                f"overlap: bodies intersect by {overlap_x:.3f} x {overlap_y:.3f} mm"
            )
    else:
        cx, cy = model.camera_a
        box = model.box_b
        if (
            box.x + tolerance < cx < box.right - tolerance
            and box.y + tolerance < cy < box.bottom - tolerance
        ):
            violations.append(
                f"occlusion: camera_a ({cx:.3f}, {cy:.3f}) sits inside box_b"
            )
    return violations


def model_to_dict(model: BaseModel) -> dict:
    return round_floats(asdict(model), 3)


def model_to_json(model: BaseModel) -> str:
    return dump_json(model_to_dict(model))
