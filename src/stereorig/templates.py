"""Printable 2D templates for the three rig styles.

Every layout is a flat sheet of tagged pieces (cut outlines, fold lines,
velcro zones, camera apertures) in millimetres.  Fold geometry is recorded
in the layout metadata so the assembled rig can be checked numerically:
`assembled_aperture_centers` walks the fold lines and returns where each
camera aperture ends up in 3D space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from . import (DEFAULT_CARDBOARD_MM, DEFAULT_IPD_MM, DEFAULT_STRAP_WIDTH_MM, DEFAULT_VELCRO_MM,
               check_range)
from .alignment import BaseModel, validate_placement
from .registry import DeviceSpec

PIECE_KINDS = ("cut", "fold", "velcro", "aperture")

# quantities the strap drawings leave free
_MARGIN_MM = 10.0
_APERTURE_RADIUS_MM = 8.0
_SLOT_LENGTH_MM = 40.0
_PIECE_GAP_MM = 8.0
_PANEL_BORDER_MM = 10.0
_MIRROR_TILT_DEG = 45.0


class TemplateError(ValueError):
    """Raised when a layout cannot be realized or a piece is malformed."""


@dataclass(frozen=True)
class Materials:
    """What the rig is made of, in mm; every layout checks these through one record."""

    velcro: float = DEFAULT_VELCRO_MM
    cardboard: float = DEFAULT_CARDBOARD_MM
    strap_width: float = DEFAULT_STRAP_WIDTH_MM
    fillet: float = 0.0

    def __post_init__(self):
        check_range("velcro length", self.velcro, "length", TemplateError)
        check_range("cardboard thickness", self.cardboard, "length", TemplateError)
        check_range("strap width", self.strap_width, "length", TemplateError)
        check_range("fillet radius", self.fillet, "non-negative length", TemplateError)


@dataclass(frozen=True)
class StrapSet:
    long_strap_length: float
    short_strap_length: float
    strap4_width: float


@dataclass(frozen=True)
class Piece:
    piece_id: str
    kind: str
    shape: str  # "rect" | "segments" | "circle"
    rect: tuple[float, float, float, float] | None = None
    points: tuple[tuple[float, float], ...] = ()
    center: tuple[float, float] | None = None
    radius: float = 0.0
    corner_radius: float = 0.0
    panel: str = ""

    def bbox(self) -> tuple[float, float, float, float]:
        if self.shape == "rect":
            return self.rect
        if self.shape == "circle":
            cx, cy = self.center
            return (cx - self.radius, cy - self.radius, 2 * self.radius, 2 * self.radius)
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        return (min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))


@dataclass(frozen=True)
class TemplateLayout:
    pieces: tuple[Piece, ...]
    sheet_bounds: tuple[float, float, float, float]
    metadata: dict = field(default_factory=dict)


def strap_lengths(spec: DeviceSpec, velcro_mm: float, cardboard_mm: float) -> StrapSet:
    """Strap dimensions from the device body and material thicknesses.

    Long straps wrap: velcro + one thickness rise (body + cardboard) + the
    body width + the far thickness.  Short straps stop after the rise.  The
    central strap is a band exactly one body-thickness wide.
    """
    Materials(velcro_mm, cardboard_mm)  # raises on a bad length
    h = spec.body_thickness
    w = spec.body_width
    return StrapSet(
        long_strap_length=velcro_mm + (h + cardboard_mm) + w + h,
        short_strap_length=velcro_mm + (h + cardboard_mm),
        strap4_width=h,
    )


def _aperture(piece_id: str, center: tuple[float, float], panel: str = "") -> Piece:
    return Piece(piece_id, "aperture", "circle", center=center, radius=_APERTURE_RADIUS_MM,
                 panel=panel)


def _strap_pieces(
    name: str,
    x: float,
    y: float,
    length: float,
    width: float,
    velcro_mm: float,
    fold_xs: Iterable[float],
) -> list[Piece]:
    pieces = [Piece(name, "cut", "rect", rect=(x, y, length, width))]
    if velcro_mm > 0:
        pieces.append(
            Piece(f"{name}_velcro", "velcro", "rect", rect=(x, y, velcro_mm, width))
        )
    for i, fx in enumerate(fold_xs, start=1):
        pieces.append(
            Piece(
                f"{name}_fold_{i}",
                "fold",
                "segments",
                points=((x + fx, y), (x + fx, y + width)),
            )
        )
    return pieces


def two_phone_layout(
    spec: DeviceSpec,
    base: BaseModel,
    materials: Materials = Materials(),
) -> TemplateLayout:
    """Flat holder for two identical phones held coplanar, plus its straps.

    The backing panel carries both body seats and the two camera apertures
    at the solved base-model positions; five straps print below it.  The
    assembled rig is flat, so the recorded fold set is empty and aperture
    separation can be read straight off the sheet.
    """
    if base.device_a != base.device_b or spec.model_id != base.device_a:
        raise TemplateError(
            f"heterogeneous devices unsupported: holder needs two of one model, "
            f"got {base.device_a!r} and {base.device_b!r} for {spec.model_id!r}"
        )
    if base.layout.stacking != "coplanar":
        raise TemplateError("two-phone holder requires a coplanar base model")
    problems = validate_placement(base)
    if problems:
        raise TemplateError("base model invalid: " + "; ".join(problems))

    velcro_mm, cardboard_mm = materials.velcro, materials.cardboard
    strap_width = materials.strap_width
    straps = strap_lengths(spec, velcro_mm, cardboard_mm)
    w = spec.body_width

    rig = base.body_a.union(base.box_b)
    border = _PANEL_BORDER_MM
    panel_w = rig.width + 2 * border
    panel_h = rig.height + 2 * border
    sx = _MARGIN_MM + border - rig.x
    sy = _MARGIN_MM + border - rig.y

    pieces: list[Piece] = [
        Piece(
            "panel",
            "cut",
            "rect",
            rect=(_MARGIN_MM, _MARGIN_MM, panel_w, panel_h),
            corner_radius=materials.fillet,
        ),
        Piece(
            "seat_a",
            "fold",
            "rect",
            rect=(base.body_a.x + sx, base.body_a.y + sy, base.body_a.width, base.body_a.height),
        ),
        Piece(
            "seat_b",
            "fold",
            "rect",
            rect=(base.box_b.x + sx, base.box_b.y + sy, base.box_b.width, base.box_b.height),
        ),
        _aperture("aperture_a", (base.camera_a[0] + sx, base.camera_a[1] + sy)),
        _aperture("aperture_b", (base.camera_b_target[0] + sx, base.camera_b_target[1] + sy)),
    ]

    long_folds = (velcro_mm, straps.short_strap_length, straps.short_strap_length + w)
    short_folds = (velcro_mm,)
    strap_rows = []
    y = _MARGIN_MM + panel_h + _PIECE_GAP_MM
    strap_defs = [
        ("strap_1", straps.long_strap_length, strap_width, velcro_mm, long_folds),
        ("strap_2", straps.short_strap_length, strap_width, velcro_mm, short_folds),
        ("strap_3", straps.long_strap_length, strap_width, velcro_mm, long_folds),
        ("strap_4", w, straps.strap4_width, 0.0, ()),
        ("strap_5", straps.long_strap_length, strap_width, velcro_mm, long_folds),
    ]
    for name, length, width, v, folds in strap_defs:
        pieces.extend(_strap_pieces(name, _MARGIN_MM, y, length, width, v, folds))
        strap_rows.append({"name": name, "y": y, "length": length, "width": width})
        y += width + _PIECE_GAP_MM

    sheet_w = 2 * _MARGIN_MM + max(panel_w, straps.long_strap_length)
    sheet_h = y - _PIECE_GAP_MM + _MARGIN_MM
    metadata = {
        "rig": "two-phone",
        "devices": [base.device_a, base.device_b],
        "ipd": base.ipd,
        "folds": [],
        "fold_panel": "",
        "params": {
            "velcro_mm": velcro_mm,
            "cardboard_mm": cardboard_mm,
            "strap_width": strap_width,
            "margin": _MARGIN_MM,
            "aperture_radius": _APERTURE_RADIUS_MM,
            "fillet_radius": materials.fillet,
            "panel_border": border,
        },
        "straps": {
            "long": straps.long_strap_length,
            "short": straps.short_strap_length,
            "strap4_width": straps.strap4_width,
            "rows": strap_rows,
        },
        "base": {
            "layout": [base.layout.axis, base.layout.stacking, base.layout.orientation],
            "rotation_applied": base.rotation_applied,
            "axis_gap": base.axis_gap,
        },
    }
    return TemplateLayout(tuple(pieces), (0.0, 0.0, sheet_w, sheet_h), metadata)


def three_phone_layout(spec: DeviceSpec, ipd: float = DEFAULT_IPD_MM) -> TemplateLayout:
    """Strip of three panels folding into a triangular prism.

    Each phone mounts flush against its panel's leading edge, so every
    camera sits the same in-panel offset c from the panel's left fold.
    Folding the strip by the 120 degree exterior angle places the cameras
    on an equilateral triangle; the side length equals the ipd when the
    panel width p solves p^2 - 3*p*c + 3*c^2 = ipd^2, i.e.
    p = (3c + ipd * sqrt(4 - 3*(c/ipd)^2)) / 2.
    """
    check_range("ipd", ipd, "length")
    c = spec.camera_center[0]
    w = spec.body_width
    l = spec.body_length
    # scaled by the ipd, so that a huge r (a tiny ipd) makes r * r inf, where
    # r ** 2 would raise, and so disc < 0
    r = c / ipd
    disc = 4.0 - 3.0 * r * r
    if disc < 0:
        raise TemplateError(
            f"camera offset {c:.1f} mm is too large for a camera triangle of "
            f"ipd {ipd} mm; no panel width exists"
        )
    p = (3.0 * c + ipd * math.sqrt(disc)) / 2.0
    if p < w:
        raise TemplateError(
            f"derived panel width {p:.1f} mm for ipd {ipd} mm is smaller than "
            f"the device width {w:.1f} mm; panels would collide"
        )

    ox, oy = _MARGIN_MM, _MARGIN_MM
    pieces: list[Piece] = [
        Piece("strip", "cut", "rect", rect=(ox, oy, 3.0 * p, l), panel="strip"),
    ]
    for i in range(1, 3):
        pieces.append(
            Piece(
                f"fold_{i}",
                "fold",
                "segments",
                points=((ox + i * p, oy), (ox + i * p, oy + l)),
                panel="strip",
            )
        )
    for i in range(3):
        pieces.append(
            Piece(
                f"seat_{i}",
                "fold",
                "rect",
                rect=(ox + i * p, oy, w, l),
                panel="strip",
            )
        )
    for i in range(3):
        pieces.append(_aperture(f"aperture_{i}", (ox + i * p + c, oy + spec.camera_center[1]),
                                "strip"))

    metadata = {
        "rig": "three-phone",
        "devices": [spec.model_id] * 3,
        "ipd": ipd,
        "panel_width": p,
        "strip_origin": [ox, oy],
        "fold_panel": "strip",
        "folds": [
            {"x": p, "angle_deg": 120.0},
            {"x": 2.0 * p, "angle_deg": 120.0},
        ],
        "params": {"margin": _MARGIN_MM, "aperture_radius": _APERTURE_RADIUS_MM},
    }
    sheet = (0.0, 0.0, 3.0 * p + 2 * _MARGIN_MM, l + 2 * _MARGIN_MM)
    return TemplateLayout(tuple(pieces), sheet, metadata)


def mirror_rig_layout(
    spec: DeviceSpec, ipd: float = DEFAULT_IPD_MM, materials: Materials = Materials()
) -> TemplateLayout:
    """Periscope mount: one phone cradle and two 45-degree mirror slots.

    The near slot (blue, double-sided mirror) sits on the camera's optical
    axis; the far slot (red, single-sided) is one ipd away along +x.  Both
    slots are drawn as 45-degree cut segments through the mount plate.
    """
    check_range("ipd", ipd, "length")
    w, l = spec.body_width, spec.body_length
    cx, cy = spec.camera_center
    near = (_MARGIN_MM + cx, _MARGIN_MM + cy)
    far = (near[0] + ipd, near[1])

    half = _SLOT_LENGTH_MM / 2.0
    dx = half * math.cos(math.radians(_MIRROR_TILT_DEG))
    dy = half * math.sin(math.radians(_MIRROR_TILT_DEG))

    plate_w = max(_MARGIN_MM + w, far[0] + dx + _MARGIN_MM) + _MARGIN_MM
    plate_h = max(_MARGIN_MM + l, far[1] + dy + _MARGIN_MM) + _MARGIN_MM

    pieces = (
        Piece("plate", "cut", "rect", rect=(0.0, 0.0, plate_w, plate_h)),
        Piece(
            "cradle",
            "fold",
            "rect",
            rect=(_MARGIN_MM, _MARGIN_MM, w, l),
            corner_radius=materials.fillet,
        ),
        *(Piece(name, "cut", "segments", points=((x - dx, y - dy), (x + dx, y + dy)))
          for name, (x, y) in (("slot_blue", near), ("slot_red", far))),
        _aperture("aperture", near),
    )
    metadata = {
        "rig": "mirror",
        "devices": [spec.model_id],
        "ipd": ipd,
        "folds": [],
        "fold_panel": "",
        "mirror": {
            "mirror_a_center": list(near),
            "mirror_b_center": list(far),
            "tilt_deg": _MIRROR_TILT_DEG,
            "separation": ipd,
            "color_a": "blue",
            "color_b": "red",
            "near_slot": "slot_blue",
            "double_sided": "slot_blue",
        },
        "params": {
            "margin": _MARGIN_MM,
            "slot_length": _SLOT_LENGTH_MM,
            "aperture_radius": _APERTURE_RADIUS_MM,
            "fillet_radius": materials.fillet,
        },
    }
    return TemplateLayout(pieces, (0.0, 0.0, plate_w, plate_h), metadata)


def fold_point(
    x: float,
    folds: list[dict],
) -> tuple[float, float]:
    """Map a distance x along the flat strip to its folded plan position.

    Walks the strip segment by segment; at each fold line the heading turns
    by the fold's exterior angle.  Coordinates are in the plan of the
    folded prism, with the strip's own start at the origin heading +x.
    """
    heading = 0.0
    px = py = 0.0
    cursor = 0.0
    for fold in sorted(folds, key=lambda f: f["x"]):
        fx = float(fold["x"])
        if x <= fx:
            break
        px += (fx - cursor) * math.cos(heading)
        py += (fx - cursor) * math.sin(heading)
        cursor = fx
        heading += math.radians(float(fold["angle_deg"]))
    px += (x - cursor) * math.cos(heading)
    py += (x - cursor) * math.sin(heading)
    return (px, py)


def assembled_aperture_centers(layout: TemplateLayout) -> list[tuple[float, float, float]]:
    """3D positions of the camera apertures after assembly.

    Pieces on the fold panel are folded about the recorded fold lines; the
    sheet's y coordinate becomes height along the prism axis.  Pieces off
    the fold panel (flat rigs) keep their sheet position at height 0.
    """
    folds = layout.metadata.get("folds", [])
    fold_panel = layout.metadata.get("fold_panel", "")
    origin = layout.metadata.get("strip_origin", [0.0, 0.0])
    out = []
    for piece in layout.pieces:
        if piece.kind != "aperture":
            continue
        cx, cy = piece.center
        if folds and piece.panel == fold_panel:
            px, py = fold_point(cx - origin[0], folds)
            out.append((px, py, cy - origin[1]))
        else:
            out.append((cx, cy, 0.0))
    return out


def aperture_separations(layout: TemplateLayout) -> list[float]:
    pts = assembled_aperture_centers(layout)
    seps = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            seps.append(math.dist(pts[i], pts[j]))
    return seps
