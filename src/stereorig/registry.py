"""Device catalog: load phone specs from JSON and negotiate shared capture settings.

A catalog document is a JSON array of device objects.  All lengths are in
millimetres, the camera center is measured from the top-left corner of the
back face in portrait orientation, and capability fields are unordered sets.
Unknown keys inside an optional ``metadata`` object are accepted and ignored
so vendors can annotate entries without breaking older readers; any other key
that is not a field is refused. `json_record`, which reads each entry by the
annotations of `DeviceSpec`, reads `guidance`'s sensor readings too.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Iterable, Sequence, get_type_hints

from . import check_range, dump_json, parse_json, read_text


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
            kind = "pixels" if name.endswith("_px") else "positive"
            check_range(f"{self.model_id}: {name}", getattr(self, name), kind, RegistryError)
        cx, cy = self.camera_center
        if not (0 <= cx <= self.body_width and 0 <= cy <= self.body_length):
            raise RegistryError(
                f"{self.model_id}: camera_center ({cx}, {cy}) lies outside the "
                f"{self.body_width} x {self.body_length} body"
            )
        sizes = [n for size in self.resolutions for n in size]
        for name, kind, values in (("resolutions", "pixels", sizes),
                                   ("frame_rates", "rate", self.frame_rates)):
            if not values:
                raise RegistryError(f"{self.model_id}: {name} must be non-empty")
            for value in values:
                check_range(f"{self.model_id}: {name}", value, kind, RegistryError)


@dataclass(frozen=True)
class CapabilityProfile:
    """Settings both devices of a rig can run simultaneously."""

    resolution: tuple[int, int]
    frame_rate: float
    focus_modes: frozenset[str] = field(default_factory=frozenset)
    capture_modes: frozenset[str] = field(default_factory=frozenset)


def json_field(name: str, value, hint):
    """JSON `value` read as the annotated type `hint`; else a ValueError naming `name`.

    `hint` is str, int, float, a fixed-length tuple of them or a frozenset, whose items
    are named 'each of <name>'. No bool is a number, 720.0 is an integer but 720.9 is
    not, and no string or object is an array.
    """
    kind = getattr(hint, "__origin__", hint)
    if kind in (tuple, frozenset):
        length = len(hint.__args__) if kind is tuple else None
        if not isinstance(value, list) or length not in (None, len(value)):
            want = "an array" if length is None else f"an array of {length} items"
            got = f"{len(value)} items" if isinstance(value, list) else type(value).__name__
            raise ValueError(f"{name} must be {want}, got {got}")
        if kind is tuple:
            return tuple(json_field(name, v, t) for v, t in zip(value, hint.__args__))
        return frozenset(json_field(f"each of {name}", v, hint.__args__[0]) for v in value)
    if isinstance(value, bool) or not isinstance(value, str if kind is str else (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        got = value if isinstance(value, float) else type(value).__name__
        word = {str: "string", int: "integer", float: "number"}[kind]
        raise ValueError(f"{name} must be a JSON {word}, got {got}")
    return kind(value)


# each dataclass json_record has read: its field annotations and its fields without a default
_RECORDS: dict[type, tuple[dict, list[str]]] = {}


def json_record(cls, doc, what: str, error: type, ignore: tuple[str, ...] = ()):
    """A `cls` dataclass read from the JSON object `doc`, each field by its annotation.

    A field with a default may be absent, and a key that is neither a field nor in
    `ignore` is refused. Raises `error` naming `what`; the errors of `cls`'s own
    checks are not rewrapped.
    """
    if cls not in _RECORDS:
        _RECORDS[cls] = get_type_hints(cls), [
            f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
    hints, required = _RECORDS[cls]
    if not isinstance(doc, dict):
        raise error(f"{what} must be an object, got {type(doc).__name__}")
    missing = [name for name in required if name not in doc]
    if missing:
        raise error(f"{what} missing required fields: {', '.join(missing)}")
    unknown = sorted(doc.keys() - hints.keys() - set(ignore))
    if unknown:
        raise error(f"{what} has unknown fields: {', '.join(unknown)}")
    try:
        values = {name: json_field(name, doc[name], hint)
                  for name, hint in hints.items() if name in doc}
    except (ValueError, OverflowError) as exc:
        raise error(f"malformed {what}: {exc}") from exc
    return cls(**values)


def _spec_from_dict(entry) -> DeviceSpec:
    return json_record(DeviceSpec, entry, "device entry", RegistryError, ignore=("metadata",))


def parse_device_specs(text: str) -> list[DeviceSpec]:
    doc = parse_json(text, "catalog document", RegistryError)
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
    return parse_device_specs(read_text(path, RegistryError))


def _spec_to_dict(spec: DeviceSpec) -> dict:
    doc = asdict(spec)
    return doc | {name: sorted(v) for name, v in doc.items() if isinstance(v, frozenset)}


def serialize_device_specs(specs: Iterable[DeviceSpec]) -> str:
    return dump_json([_spec_to_dict(s) for s in specs])


def lookup(specs: Sequence[DeviceSpec], model_id: str) -> DeviceSpec:
    for spec in specs:
        if spec.model_id == model_id:
            return spec
    known = ", ".join(sorted(s.model_id for s in specs)) or "(none)"
    raise RegistryError(f"unknown model_id {model_id!r}; catalog has: {known}")


def _resolution_rank(res: tuple[int, int]) -> tuple[int, int]:
    w, h = res
    return (w * h, w)


def _best_shared(a: frozenset, b: frozenset, key=None):
    """The best value of both sets by `key`; when they share none, the lower of their bests."""
    common = a & b
    if common:
        return max(common, key=key)
    return min(max(a, key=key), max(b, key=key), key=key)


def negotiate(a: DeviceSpec, b: DeviceSpec) -> CapabilityProfile:
    """Pick the best capture settings both devices support.

    Frame rate is the highest rate common to both; when the sets are
    disjoint, the lower of the two per-device maxima is used.  Resolution is
    ranked by pixel count (width breaks ties) under the same rule.  Mode
    sets simply intersect and may come out empty.
    """
    return CapabilityProfile(
        resolution=_best_shared(a.resolutions, b.resolutions, key=_resolution_rank),
        frame_rate=_best_shared(a.frame_rates, b.frame_rates),
        focus_modes=a.focus_modes & b.focus_modes,
        capture_modes=a.capture_modes & b.capture_modes,
    )
