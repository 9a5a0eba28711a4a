"""Device catalog: load phone specs from JSON and negotiate shared capture settings.

A catalog document is a JSON array of device objects.  All lengths are in
millimetres, the camera center is measured from the top-left corner of the
back face in portrait orientation, and capability fields are unordered sets.
Unknown keys inside an optional ``metadata`` object are accepted and ignored
so vendors can annotate entries without breaking older readers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

from . import check_range, json_array


class RegistryError(ValueError):
    """Raised for malformed catalog documents or invariant violations."""


@dataclass(frozen=True)
class DeviceSpec:
    model_id: str
    body_width: float
    body_length: float
    body_thickness: float
    camera_center: tuple[float, float]
    screen_width_px: int
    screen_height_px: int
    pixel_density: float
    resolutions: frozenset[tuple[int, int]]
    frame_rates: frozenset[float]
    focus_modes: frozenset[str]
    capture_modes: frozenset[str]

    def __post_init__(self):
        if not self.model_id:
            raise RegistryError("model_id must be a non-empty string")
        for name in ("body_width", "body_length", "body_thickness", "screen_width_px",
                     "screen_height_px", "pixel_density"):
            check_range(f"{self.model_id}: {name}", getattr(self, name), "positive", RegistryError)
        cx, cy = self.camera_center
        if not (0 <= cx <= self.body_width and 0 <= cy <= self.body_length):
            raise RegistryError(
                f"{self.model_id}: camera_center ({cx}, {cy}) lies outside the "
                f"{self.body_width} x {self.body_length} body"
            )
        sizes = [n for size in self.resolutions for n in size]
        for name, values in (("resolutions", sizes), ("frame_rates", self.frame_rates)):
            if not values:
                raise RegistryError(f"{self.model_id}: {name} must be non-empty")
            for value in values:
                check_range(f"{self.model_id}: {name}", value, "positive", RegistryError)


@dataclass(frozen=True)
class CapabilityProfile:
    """Settings both devices of a rig can run simultaneously."""

    resolution: tuple[int, int]
    frame_rate: float
    focus_modes: frozenset[str] = field(default_factory=frozenset)
    capture_modes: frozenset[str] = field(default_factory=frozenset)


_REQUIRED_FIELDS = tuple(f.name for f in fields(DeviceSpec))
_SET_FIELDS = ("resolutions", "frame_rates", "focus_modes", "capture_modes")


def _spec_from_dict(entry: dict) -> DeviceSpec:
    if not isinstance(entry, dict):
        raise RegistryError(f"device entry must be an object, got {type(entry).__name__}")
    missing = [name for name in _REQUIRED_FIELDS if name not in entry]
    if missing:
        raise RegistryError(f"device entry missing required fields: {', '.join(missing)}")
    try:
        cam = json_array("camera_center", entry["camera_center"], 2)
        arrays = {name: json_array(name, entry[name]) for name in _SET_FIELDS}
        sizes = [json_array("each resolution", size, 2) for size in arrays["resolutions"]]
        values = dict(
            model_id=str(entry["model_id"]),
            body_width=float(entry["body_width"]),
            body_length=float(entry["body_length"]),
            body_thickness=float(entry["body_thickness"]),
            camera_center=(float(cam[0]), float(cam[1])),
            screen_width_px=int(entry["screen_width_px"]),
            screen_height_px=int(entry["screen_height_px"]),
            pixel_density=float(entry["pixel_density"]),
            resolutions=frozenset((int(w), int(h)) for w, h in sizes),
            frame_rates=frozenset(float(f) for f in arrays["frame_rates"]),
            focus_modes=frozenset(str(m) for m in arrays["focus_modes"]),
            capture_modes=frozenset(str(m) for m in arrays["capture_modes"]),
        )
    except (TypeError, ValueError, OverflowError, IndexError, KeyError) as exc:
        raise RegistryError(f"malformed device entry: {exc}") from exc
    return DeviceSpec(**values)  # checks itself; its RegistryError is not rewrapped


def parse_device_specs(text: str) -> list[DeviceSpec]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"malformed catalog document: {exc}") from exc
    except RecursionError as exc:
        raise RegistryError("malformed catalog document: nested too deeply") from exc
    if not isinstance(doc, list):
        raise RegistryError("catalog document must be a JSON array of device objects")
    specs = [_spec_from_dict(entry) for entry in doc]
    seen: set[str] = set()
    for spec in specs:
        if spec.model_id in seen:
            raise RegistryError(f"duplicate model_id: {spec.model_id}")
        seen.add(spec.model_id)
    return specs


def load_registry(path: str) -> list[DeviceSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise RegistryError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_device_specs(text)


def _spec_to_dict(spec: DeviceSpec) -> dict:
    doc = asdict(spec)
    return doc | {name: sorted(doc[name]) for name in _SET_FIELDS}


def serialize_device_specs(specs: Iterable[DeviceSpec]) -> str:
    return json.dumps([_spec_to_dict(s) for s in specs], indent=2, sort_keys=True) + "\n"


def lookup(specs: Sequence[DeviceSpec], model_id: str) -> DeviceSpec:
    for spec in specs:
        if spec.model_id == model_id:
            return spec
    known = ", ".join(sorted(s.model_id for s in specs)) or "(none)"
    raise RegistryError(f"unknown model_id {model_id!r}; catalog has: {known}")


def _resolution_rank(res: tuple[int, int]) -> tuple[int, int]:
    w, h = res
    return (w * h, w)


def negotiate(a: DeviceSpec, b: DeviceSpec) -> CapabilityProfile:
    """Pick the best capture settings both devices support.

    Frame rate is the highest rate common to both; when the sets are
    disjoint, the lower of the two per-device maxima is used.  Resolution is
    ranked by pixel count (width breaks ties) under the same rule.  Mode
    sets simply intersect and may come out empty.
    """
    common_fps = a.frame_rates & b.frame_rates
    if common_fps:
        fps = max(common_fps)
    else:
        fps = min(max(a.frame_rates), max(b.frame_rates))

    common_res = a.resolutions & b.resolutions
    if common_res:
        res = max(common_res, key=_resolution_rank)
    else:
        res = min(
            max(a.resolutions, key=_resolution_rank),
            max(b.resolutions, key=_resolution_rank),
            key=_resolution_rank,
        )

    return CapabilityProfile(
        resolution=res,
        frame_rate=fps,
        focus_modes=a.focus_modes & b.focus_modes,
        capture_modes=a.capture_modes & b.capture_modes,
    )
