"""SVG rendering and parsing for template layouts.

Output is SVG 1.1 with millimetre user units (viewBox == sheet bounds).
Layer identity travels in the class attribute: cut, fold, velcro,
aperture.  Coordinates are written with exactly three decimals and the
layout metadata is embedded as canonical JSON, so render -> parse ->
render is byte-identical and parsing recovers geometry to 0.001 mm.
"""

from __future__ import annotations

import json
import re

from . import check_range, parse_json, round_floats
from .templates import PIECE_KINDS, Piece, TemplateLayout, TemplateError

_STYLE = """\
    .cut { fill: none; stroke: #000000; stroke-width: 0.3; }
    .fold { fill: none; stroke: #0066cc; stroke-width: 0.3; stroke-dasharray: 3 2; }
    .velcro { fill: url(#hatch); stroke: #666666; stroke-width: 0.2; }
    .aperture { fill: none; stroke: #cc0000; stroke-width: 0.3; }"""

_HATCH = """\
    <pattern id="hatch" patternUnits="userSpaceOnUse" width="3" height="3">
      <path d="M 0,3 L 3,0" stroke="#666666" stroke-width="0.4"/>
    </pattern>"""


def _escape(text: str) -> str:
    """Escape `&` (first), `<` and `>`: `xml.sax.saxutils.escape` with no extra entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    r = round(v, 3)
    if r == 0:
        r = 0.0  # never emit -0.000
    return f"{r:.3f}"


def _canonical_metadata(metadata: dict) -> str:
    try:  # allow_nan=False: NaN and Infinity are no JSON
        return json.dumps(round_floats(metadata, 6), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise TemplateError(f"metadata cannot be written as JSON: {exc}") from exc


def _check_finite(piece: Piece) -> None:
    """Refuse a piece whose bbox, corner radius or any point is not finite, naming the piece."""
    names = ("bbox x", "bbox y", "bbox width", "bbox height", "corner_radius")
    numbers = [*zip(names, (*piece.bbox(), piece.corner_radius))]
    # a NaN point can hide from the bbox: min() and max() skip it when it comes later
    numbers += [(f"point {i}", c) for i, point in enumerate(piece.points) for c in point]
    for name, value in numbers:
        check_range(f"piece {piece.piece_id!r} {name}", value, "finite", TemplateError)


def _check_bounds(piece: Piece, sheet: tuple[float, float, float, float]) -> None:
    x, y, w, h = piece.bbox()
    sx, sy, sw, sh = sheet
    eps = 1e-6
    if x < sx - eps or y < sy - eps or x + w > sx + sw + eps or y + h > sy + sh + eps:
        raise TemplateError(
            f"piece {piece.piece_id!r} extends outside sheet bounds "
            f"({x:.3f}, {y:.3f}, {w:.3f}, {h:.3f} vs sheet {sw:.3f} x {sh:.3f})"
        )


# each piece shape: its SVG element and, per Piece field, the attributes that hold it
# (several for a tuple); `points` is written as path data
_SHAPES = {
    "rect": ("rect", {"rect": ("x", "y", "width", "height"), "corner_radius": ("rx",)}),
    "circle": ("circle", {"center": ("cx", "cy"), "radius": ("r",)}),
    "segments": ("path", {"points": ("d",)}),
}
_SHAPE_OF = {element: shape for shape, (element, _) in _SHAPES.items()}
_OPTIONAL = ("rx",)  # written only when it rounds above 0, and read as 0 when absent


def _piece_to_svg(piece: Piece) -> str:
    if piece.shape not in _SHAPES:
        raise TemplateError(f"piece {piece.piece_id!r} has unknown shape {piece.shape!r}")
    element, fields = _SHAPES[piece.shape]
    panel = f' data-panel="{_escape(piece.panel)}"' if piece.panel else ""
    text = f'    <{element} id="{_escape(piece.piece_id)}" class="{piece.kind}"{panel}'
    for field, names in fields.items():
        value = getattr(piece, field)
        if field == "points":
            values = [" ".join(f"{'L' if i else 'M'} {_fmt(x)},{_fmt(y)}"
                               for i, (x, y) in enumerate(value))]
        elif names[0] in _OPTIONAL and not round(value, 3) > 0:
            continue
        else:
            values = [_fmt(v) for v in (value if len(names) > 1 else (value,))]
        text += "".join(f' {name}="{v}"' for name, v in zip(names, values))
    return text + "/>"


def render_svg(layout: TemplateLayout) -> str:
    """The layout as SVG text.

    An unknown piece kind, a non-finite number (in the sheet bounds, a
    piece's bbox, corner radius or points, or the metadata) or a piece
    outside the sheet is a `TemplateError`, raised before any text is made.
    """
    sx, sy, sw, sh = layout.sheet_bounds
    for piece in layout.pieces:
        if piece.kind not in PIECE_KINDS:
            raise TemplateError(
                f"piece {piece.piece_id!r} has unknown kind {piece.kind!r}"
            )
        _check_finite(piece)
    for name, value in zip(("x", "y", "width", "height"), layout.sheet_bounds):
        check_range(f"sheet {name}", value, "finite", TemplateError)
    for piece in layout.pieces:
        _check_bounds(piece, layout.sheet_bounds)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(sw)}mm" '
        f'height="{_fmt(sh)}mm" viewBox="{_fmt(sx)} {_fmt(sy)} {_fmt(sw)} {_fmt(sh)}">',
        "  <defs>",
        _HATCH,
        "  </defs>",
        "  <style>",
        _STYLE,
        "  </style>",
        f"  <metadata>{_escape(_canonical_metadata(layout.metadata))}</metadata>",
        '  <g id="pieces">',
    ]
    lines.extend(_piece_to_svg(p) for p in layout.pieces)
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_PATH_RE = re.compile(r"[ML]\s+(-?\d+\.\d+),(-?\d+\.\d+)")


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _number(value: str | None, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):  # TypeError: the attribute is missing
        raise TemplateError(f"{what} must be a number, got {value!r}") from None
    check_range(what, number, "finite", TemplateError)
    return number


def parse_svg(text: str) -> TemplateLayout:
    """Inverse of render_svg for documents this module emitted.

    A document it cannot read back, such as one with a missing, malformed
    or non-finite number or metadata that is no JSON object, is a
    `TemplateError`.
    """
    import xml.etree.ElementTree as ET  # only parsing needs it

    try:
        root = ET.fromstring(text)
    except (ET.ParseError, UnicodeEncodeError) as exc:  # the latter: a lone surrogate
        raise TemplateError(f"not parseable as SVG: {exc}") from exc
    if _local_name(root.tag) != "svg":
        raise TemplateError(f"root element is {root.tag!r}, expected svg")

    view = root.get("viewBox")
    if not view:
        raise TemplateError("missing viewBox")
    if len(view.split()) != 4:
        raise TemplateError(f"viewBox must hold 4 numbers, got {view!r}")
    sx, sy, sw, sh = (_number(v, "each viewBox value") for v in view.split())

    metadata: dict = {}
    pieces: list[Piece] = []
    for el in root.iter():
        name = _local_name(el.tag)
        if name == "metadata" and el.text:
            # ElementTree has already undone the XML escaping in .text
            metadata = parse_json(el.text, "metadata", TemplateError)
            if not isinstance(metadata, dict):
                raise TemplateError(f"metadata must be a JSON object, got {el.text!r}")
            continue
        cls = el.get("class", "")
        if cls not in PIECE_KINDS or name not in _SHAPE_OF:
            continue
        piece_id = el.get("id", "")
        shape = _SHAPE_OF[name]
        values = {}
        for field, attrs in _SHAPES[shape][1].items():
            if field == "points":
                values[field] = tuple((float(mx), float(my))
                                      for mx, my in _PATH_RE.findall(el.get(attrs[0], "")))
                if len(values[field]) < 2:
                    raise TemplateError(f"path {piece_id!r} has fewer than 2 points")
                continue
            numbers = tuple(_number(el.get(a, "0" if a in _OPTIONAL else None),
                                    f"{name} {piece_id!r} {a}") for a in attrs)
            values[field] = numbers if len(attrs) > 1 else numbers[0]
        pieces.append(Piece(piece_id, cls, shape, panel=el.get("data-panel", ""), **values))
    return TemplateLayout(tuple(pieces), (sx, sy, sw, sh), metadata)
