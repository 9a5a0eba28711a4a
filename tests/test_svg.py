from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bytefuzz import mangled_bytes
from oracles import xml_escape_oracle
from stereorig.alignment import LayoutConfig, compute_base_model
from stereorig.svgio import _escape, parse_svg, render_svg
from stereorig.templates import (
    Materials,
    Piece,
    TemplateError,
    TemplateLayout,
    mirror_rig_layout,
    three_phone_layout,
    two_phone_layout,
)

from profiles import examples

GOLDEN = Path(__file__).parent / "golden" / "j7_two_phone.svg"
VERT180 = LayoutConfig(axis="vertical", stacking="coplanar", rotation_b=180)


@pytest.fixture(scope="module")
def all_layouts(j7):
    base = compute_base_model(j7, j7, VERT180)
    return {
        "two": two_phone_layout(j7, base),
        "three": three_phone_layout(j7),
        "mirror": mirror_rig_layout(j7),
    }


class TestRender:
    def test_mm_user_units_and_viewbox(self, all_layouts):
        layout = all_layouts["two"]
        text = render_svg(layout)
        sx, sy, sw, sh = layout.sheet_bounds
        assert f'width="{sw:.3f}mm"' in text
        assert f'height="{sh:.3f}mm"' in text
        assert f'viewBox="{sx:.3f} {sy:.3f} {sw:.3f} {sh:.3f}"' in text

    def test_layer_classes_present(self, all_layouts):
        text = render_svg(all_layouts["two"])
        for cls in ("cut", "fold", "velcro", "aperture"):
            assert f'class="{cls}"' in text

    def test_strap_width_is_emitted_verbatim(self, all_layouts):
        # the 116 mm strap appears as a 116.000-wide rect in user units
        text = render_svg(all_layouts["two"])
        assert 'width="116.000"' in text

    def test_three_decimal_fixed_point(self, all_layouts):
        text = render_svg(all_layouts["three"])
        pieces_markup = text.split('<g id="pieces">', 1)[1]
        numbers = re.findall(r'(?:x|y|width|height|cx|cy|r)="([-0-9.]+)"', pieces_markup)
        assert numbers
        for number in numbers:
            assert re.fullmatch(r"-?\d+\.\d{3}", number), number

    def test_no_negative_zero(self, all_layouts):
        for layout in all_layouts.values():
            assert "-0.000" not in render_svg(layout)

    def test_out_of_bounds_piece_rejected(self):
        layout = TemplateLayout(
            pieces=(Piece("p", "cut", "rect", rect=(-5.0, 0.0, 10.0, 10.0)),),
            sheet_bounds=(0.0, 0.0, 100.0, 100.0),
            metadata={"rig": "test", "folds": [], "fold_panel": ""},
        )
        with pytest.raises(TemplateError, match="outside sheet bounds"):
            render_svg(layout)

    @pytest.mark.parametrize("piece, message", [
        (Piece("p", "cut", "rect", rect=(math.inf, 0.0, 1.0, 1.0)),
         "piece 'p' bbox x must be finite, got inf"),
        (Piece("p", "cut", "rect", rect=(0.0, 0.0, math.nan, 1.0)),
         "piece 'p' bbox width must be finite, got nan"),
        (Piece("p", "cut", "rect", rect=(0.0, 0.0, 1.0, 1.0), corner_radius=math.inf),
         "piece 'p' corner_radius must be finite, got inf"),
        (Piece("c", "aperture", "circle", center=(5.0, math.nan), radius=1.0),
         "piece 'c' bbox y must be finite, got nan"),
        (Piece("c", "aperture", "circle", center=(5.0, 5.0), radius=math.inf),
         "piece 'c' bbox x must be finite, got -inf"),
        # min() and max() of [1.0, nan] are 1.0, so the bbox alone misses this one
        (Piece("f", "fold", "segments", points=((1.0, 1.0), (math.nan, 2.0))),
         "piece 'f' point 1 must be finite, got nan"),
        # finite points whose bbox width overflows
        (Piece("f", "fold", "segments", points=((-1e308, 0.0), (1e308, 0.0))),
         "piece 'f' bbox width must be finite, got inf"),
    ])
    def test_non_finite_number_in_a_piece_rejected(self, piece, message):
        layout = TemplateLayout((piece,), (0.0, 0.0, 10.0, 10.0), {"rig": "test"})
        with pytest.raises(TemplateError, match=f"^{re.escape(message)}$"):
            render_svg(layout)

    @pytest.mark.parametrize("sheet, metadata, message", [
        ((0.0, 0.0, math.inf, 10.0), {}, "sheet width must be finite, got inf"),
        ((math.nan, 0.0, 10.0, 10.0), {}, "sheet x must be finite, got nan"),
        ((0.0, 0.0, 10.0, 10.0), {"ipd": math.inf}, "metadata cannot be written as JSON"),
        ((0.0, 0.0, 10.0, 10.0), {"folds": [{"x": math.nan}]},
         "metadata cannot be written as JSON"),
    ])
    def test_non_finite_sheet_or_metadata_rejected(self, sheet, metadata, message):
        piece = Piece("p", "cut", "rect", rect=(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(TemplateError, match=f"^{re.escape(message)}"):
            render_svg(TemplateLayout((piece,), sheet, metadata))

    def test_ipd_too_big_for_the_layout_rejected(self, j7):
        # a finite ipd whose panel width would overflow: the IPD bound refuses it before a
        # layout is made
        with pytest.raises(ValueError, match=r"^ipd must be at most 1e\+09 mm, got 1e\+308$"):
            three_phone_layout(j7, ipd=1e308)

    def test_unknown_layer_kind_rejected(self):
        layout = TemplateLayout(
            pieces=(Piece("p", "glue", "rect", rect=(0.0, 0.0, 1.0, 1.0)),),
            sheet_bounds=(0.0, 0.0, 10.0, 10.0),
            metadata={"rig": "test", "folds": [], "fold_panel": ""},
        )
        with pytest.raises(TemplateError):
            render_svg(layout)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["two", "three", "mirror"])
    def test_render_parse_render_byte_identical(self, all_layouts, name):
        first = render_svg(all_layouts[name])
        second = render_svg(parse_svg(first))
        assert second == first

    @pytest.mark.parametrize("fillet", [1e-4, 5e-324])
    def test_fillet_that_prints_as_zero_is_left_out(self, j7, fillet):
        # rx="0.000" was written, which read back as no fillet and then rendered without rx
        layout = mirror_rig_layout(j7, materials=Materials(fillet=fillet))
        first = render_svg(layout)
        assert " rx=" not in first
        assert render_svg(parse_svg(first)) == first

    @pytest.mark.parametrize("name", ["two", "three", "mirror"])
    def test_parse_recovers_geometry_to_a_micron(self, all_layouts, name):
        layout = all_layouts[name]
        back = parse_svg(render_svg(layout))
        assert len(back.pieces) == len(layout.pieces)
        for orig, rec in zip(layout.pieces, back.pieces):
            assert rec.piece_id == orig.piece_id
            assert rec.kind == orig.kind
            assert rec.shape == orig.shape
            assert rec.panel == orig.panel
            for a, b in zip(_coords(orig), _coords(rec)):
                assert abs(a - b) <= 0.001

    def test_metadata_survives(self, all_layouts):
        layout = all_layouts["three"]
        back = parse_svg(render_svg(layout))
        assert back.metadata["rig"] == "three-phone"
        assert back.metadata["fold_panel"] == "strip"
        assert [f["angle_deg"] for f in back.metadata["folds"]] == [120.0, 120.0]
        # metadata floats are canonicalized to 6 decimals at render time
        assert back.metadata["panel_width"] == pytest.approx(
            layout.metadata["panel_width"], abs=1e-6
        )

    def test_sheet_bounds_recovered_from_viewbox(self, all_layouts):
        layout = all_layouts["mirror"]
        back = parse_svg(render_svg(layout))
        for a, b in zip(back.sheet_bounds, layout.sheet_bounds):
            assert abs(a - b) <= 0.001


class TestGolden:
    def test_j7_two_phone_matches_frozen_file(self, all_layouts):
        assert GOLDEN.exists(), "golden file missing; generate it once and freeze"
        assert render_svg(all_layouts["two"]) == GOLDEN.read_text(encoding="utf-8")


def _coords(piece: Piece) -> list[float]:
    out = []
    if piece.rect is not None:
        out.extend(piece.rect)
    if piece.points is not None:
        for x, y in piece.points:
            out.extend((x, y))
    if piece.center is not None:
        out.extend(piece.center)
    if piece.radius is not None:
        out.append(piece.radius)
    if piece.corner_radius:
        out.append(piece.corner_radius)
    return out


@given(st.text(alphabet="&<>;amplgt#\"'x\n") | st.text())
@example("&amp;&lt;&gt;")
@example("<&>")
def test_escape_matches_saxutils(text):
    assert _escape(text) == xml_escape_oracle(text)


def test_escaped_metadata_round_trips():
    layout = TemplateLayout(
        pieces=(Piece("p", "cut", "rect", rect=(0.0, 0.0, 1.0, 1.0)),),
        sheet_bounds=(0.0, 0.0, 10.0, 10.0),
        metadata={
            "rig": "test",
            "folds": [],
            "fold_panel": "",
            "note": 'angle < 90 & "quoted" > 0',
        },
    )
    text = render_svg(layout)
    back = parse_svg(text)
    assert back.metadata["note"] == 'angle < 90 & "quoted" > 0'
    assert render_svg(back) == text


def test_circle_geometry_preserved(j7):
    layout = mirror_rig_layout(j7)
    back = parse_svg(render_svg(layout))
    orig = next(p for p in layout.pieces if p.shape == "circle")
    rec = next(p for p in back.pieces if p.shape == "circle")
    assert rec.radius == pytest.approx(orig.radius, abs=0.001)
    assert math.dist(rec.center, orig.center) <= 0.0015


_SVG_GOLDENS = sorted(GOLDEN.parent.glob("j7_*.svg"))


class TestMangledSvg:
    """A document `parse_svg` cannot read back is a `TemplateError`, never another exception."""

    @pytest.mark.parametrize("name, edit, message", [
        ("j7_two_phone.svg", ('x="10.000" ', ""), "rect 'panel' x must be a number, got None"),
        ("j7_two_phone.svg", ("0.000 0.000 136.000 517.000", "0 0 136"),
         "viewBox must hold 4 numbers"),
        ("j7_two_phone.svg", ("0.000 0.000 136.000 517.000", "0 0 10 x"),
         "each viewBox value must be a number"),
        ("j7_two_phone.svg", ('width="98.000"', 'width="9 8"'),
         "rect 'panel' width must be a number, got '9 8'"),
        ("j7_mirror.svg", (' r="8.000"', ""), "circle 'aperture' r must be a number, got None"),
        ("j7_mirror.svg", ('cx="49.000"', 'cx="nan"'), "circle 'aperture' cx must be finite, got nan"),
        ("j7_two_phone.svg", ('width="98.000"', 'width="1e999"'),
         "rect 'panel' width must be finite, got inf"),
        ("j7_two_phone.svg", ("0.000 0.000 136.000", "0 -inf 136"),
         "each viewBox value must be finite, got -inf"),
        ("j7_two_phone.svg", ("<metadata>{", "<metadata>{{"),
         "malformed metadata: Expecting property name"),
        ("j7_two_phone.svg", ("<metadata>{", "<metadata>" + "[" * 100_000),
         "malformed metadata: nested too deeply"),
        ("j7_two_phone.svg", ("<metadata>{", "<metadata>\ud800{"),
         "not parseable as SVG: 'utf-8' codec can't encode"),
    ])
    def test_malformed_golden(self, name, edit, message):
        text = (GOLDEN.parent / name).read_text(encoding="utf-8")
        assert edit[0] in text
        with pytest.raises(TemplateError, match=f"^{re.escape(message)}"):
            parse_svg(text.replace(edit[0], edit[1], 1))

    def test_metadata_that_is_no_object(self):
        with pytest.raises(TemplateError, match=r"^metadata must be a JSON object, got '\[1\]'$"):
            parse_svg('<svg viewBox="0 0 1 1"><metadata>[1]</metadata></svg>')

    @settings(max_examples=examples(300), deadline=None)
    @given(data=st.sampled_from(_SVG_GOLDENS).flatmap(
        lambda path: mangled_bytes(path.read_bytes(), noise=False)))
    def test_mangled_golden_parses_or_raises_template_error(self, data):
        try:
            layout = parse_svg(data.decode("utf-8", "replace"))
        except TemplateError:
            return
        assert len(layout.sheet_bounds) == 4
