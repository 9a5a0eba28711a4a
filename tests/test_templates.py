from __future__ import annotations

import dataclasses
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereorig.alignment import (
    AXES,
    MAX_LENGTH_MM,
    ORIENTATIONS,
    ROTATIONS,
    InfeasibleLayoutError,
    LayoutConfig,
    Rect,
    compute_base_model,
)
from stereorig.svgio import parse_svg, render_svg
from stereorig.templates import (
    Materials,
    TemplateError,
    aperture_separations,
    assembled_aperture_centers,
    fold_point,
    mirror_rig_layout,
    strap_lengths,
    three_phone_layout,
    two_phone_layout,
)

from oracles import (
    cut_intersections,
    fold_positions_oracle,
    random_spec,
    strap_oracle,
)
from profiles import examples

VERT180 = LayoutConfig(axis="vertical", stacking="coplanar", rotation_b=180)


@pytest.fixture(scope="module")
def two_layout(j7):
    base = compute_base_model(j7, j7, VERT180)
    return two_phone_layout(j7, base, Materials(velcro=20.0, cardboard=2.0))


@pytest.fixture(scope="module")
def three_layout(j7):
    return three_phone_layout(j7)


@pytest.fixture(scope="module")
def mirror_layout(j7):
    return mirror_rig_layout(j7)


def _inside_sheet(layout) -> bool:
    sx, sy, sw, sh = layout.sheet_bounds
    eps = 1e-6
    for piece in layout.pieces:
        x, y, w, h = piece.bbox()
        if x < sx - eps or y < sy - eps or x + w > sx + sw + eps or y + h > sy + sh + eps:
            return False
    return True


class TestStrapLengths:
    def test_reference_values(self, j7):
        s = strap_lengths(j7, 20.0, 2.0)
        assert s.long_strap_length == 116.0   # 20 + (8+2) + 78 + 8
        assert s.short_strap_length == 30.0   # 20 + (8+2)
        assert s.strap4_width == 8.0          # H, never 2H
        assert s.strap4_width != 2 * j7.body_thickness

    def test_exact_no_rounding(self, j7):
        odd = dataclasses.replace(j7, body_thickness=7.77, body_width=81.13)
        s = strap_lengths(odd, 19.9, 2.3)
        assert s.long_strap_length == 19.9 + (7.77 + 2.3) + 81.13 + 7.77
        assert s.short_strap_length == 19.9 + (7.77 + 2.3)

    def test_thousand_random_tuples_match_oracle(self, j7):
        rng = random.Random(555)
        for _ in range(1000):
            v = rng.uniform(5.0, 40.0)
            h = rng.uniform(4.0, 15.0)
            m = rng.uniform(0.5, 5.0)
            w = rng.uniform(55.0, 95.0)
            spec = dataclasses.replace(j7, body_thickness=h, body_width=w)
            s = strap_lengths(spec, v, m)
            long_o, short_o, w4_o = strap_oracle(v, h, m, w)
            assert s.long_strap_length == long_o
            assert s.short_strap_length == short_o
            assert s.strap4_width == w4_o

    @pytest.mark.parametrize("v,m", [(0.0, 2.0), (-1.0, 2.0), (20.0, 0.0), (20.0, -0.5)])
    def test_nonpositive_inputs_rejected(self, j7, v, m):
        with pytest.raises(TemplateError):
            strap_lengths(j7, v, m)

    @pytest.mark.parametrize("v, m, message", [
        (math.nan, 2.0, "velcro length must be positive and finite, got nan"),
        (math.inf, 2.0, "velcro length must be positive and finite, got inf"),
        (20.0, math.inf, "cardboard thickness must be positive and finite, got inf"),
    ])
    def test_non_finite_inputs_rejected(self, j7, v, m, message):
        with pytest.raises(TemplateError, match=f"^{message}$"):
            strap_lengths(j7, v, m)


_BAD_WIDTHS = [math.nan, math.inf, -math.inf, -5.0, 0.0]
_BAD_FILLETS = [math.nan, math.inf, -math.inf, -5.0]
# each `Materials` field and the name its messages give it, in the order it is checked
_LENGTH_NAMES = {"velcro": "velcro length", "cardboard": "cardboard thickness",
                 "strap_width": "strap width", "fillet": "fillet radius"}


class TestMaterialChecks:
    """Strap widths and fillet radii are lengths: finite, the width also positive, and
    like every `Materials` length at most MAX_LENGTH_MM.

    `Materials` checks them when built, so no layout can draw a bad one.
    """

    @pytest.fixture(scope="class")
    def base(self, j7):
        return compute_base_model(j7, j7, VERT180)

    @pytest.mark.parametrize("width", _BAD_WIDTHS)
    def test_bad_strap_width_rejected(self, j7, base, width):
        with pytest.raises(TemplateError, match=f"^strap width must be positive and finite, got {width}$"):
            Materials(strap_width=width)

    @pytest.mark.parametrize("radius", _BAD_FILLETS)
    def test_bad_fillet_rejected_in_both_layouts_that_draw_one(self, j7, base, radius):
        message = f"^fillet radius must be finite and non-negative, got {radius}$"
        with pytest.raises(TemplateError, match=message):
            Materials(fillet=radius)

    @pytest.mark.parametrize("field, name", _LENGTH_NAMES.items())
    def test_each_length_is_at_most_the_bound(self, field, name):
        Materials(**{field: MAX_LENGTH_MM})
        above = math.nextafter(MAX_LENGTH_MM, math.inf)
        message = f"{name} must be at most 1e+09 mm, got {above}"
        with pytest.raises(TemplateError, match=f"^{re.escape(message)}$"):
            Materials(**{field: above})

    def test_zero_fillet_and_small_positive_values_accepted(self, j7, base):
        small = Materials(velcro=1e-3, cardboard=1e-3, strap_width=1e-3, fillet=0.0)
        two_phone_layout(j7, base, small)
        mirror_rig_layout(j7, materials=small)


class TestTwoPhoneLayout:

    def test_strap_dimensions(self, two_layout, j7):
        layout = two_layout
        by_id = {p.piece_id: p for p in layout.pieces}
        for name in ("strap_1", "strap_3", "strap_5"):
            assert by_id[name].rect[2] == 116.0
        assert by_id["strap_2"].rect[2] == 30.0
        # strap 4 wraps nothing: a W x H pad
        assert by_id["strap_4"].rect[2] == j7.body_width
        assert by_id["strap_4"].rect[3] == j7.body_thickness

    def test_velcro_zones_have_length_v(self, two_layout):
        layout = two_layout
        velcro = [p for p in layout.pieces if p.kind == "velcro"]
        assert velcro, "expected velcro zones"
        for p in velcro:
            assert p.rect[2] == 20.0

    def test_aperture_separation_is_ipd(self, two_layout):
        layout = two_layout
        seps = aperture_separations(layout)
        assert len(seps) == 1
        assert seps[0] == pytest.approx(65.0, abs=0.01)

    def test_assembled_centers_match_sheet_for_flat_rig(self, two_layout):
        layout = two_layout
        centers = assembled_aperture_centers(layout)
        apertures = [p for p in layout.pieces if p.kind == "aperture"]
        assert len(centers) == len(apertures) == 2
        for (px, py, pz), piece in zip(centers, apertures):
            assert (px, py) == piece.center
            assert pz == 0.0

    def test_deterministic(self, j7):
        base = compute_base_model(j7, j7, VERT180)
        one = two_phone_layout(j7, base)
        two = two_phone_layout(j7, base)
        assert one == two
        assert render_svg(one) == render_svg(two)

    def test_heterogeneous_rejected(self, j7, a5):
        base = compute_base_model(j7, a5, VERT180)
        with pytest.raises(TemplateError, match="heterogeneous devices unsupported"):
            two_phone_layout(j7, base)

    def test_depth_stacked_rejected(self, j7):
        base = compute_base_model(
            j7, j7, LayoutConfig(axis="vertical", stacking="depth-stacked")
        )
        with pytest.raises(TemplateError, match="coplanar"):
            two_phone_layout(j7, base)

    def test_tampered_base_rejected(self, j7):
        base = compute_base_model(j7, j7, VERT180)
        bad = dataclasses.replace(
            base,
            camera_b_target=(base.camera_b_target[0], base.camera_b_target[1] - 9.0),
        )
        with pytest.raises(TemplateError, match="base model invalid"):
            two_phone_layout(j7, bad)

    def test_sheet_bounded_and_cuts_disjoint(self, two_layout):
        layout = two_layout
        assert _inside_sheet(layout)
        assert cut_intersections(layout) == []

    def test_metadata_records_parameters(self, two_layout):
        layout = two_layout
        md = layout.metadata
        assert md["rig"] == "two-phone"
        assert md["params"]["velcro_mm"] == 20.0
        assert md["params"]["cardboard_mm"] == 2.0
        assert md["folds"] == []
        assert len(md["straps"]["rows"]) == 5
        assert md["straps"]["long"] == 116.0
        assert md["straps"]["short"] == 30.0


class TestThreePhoneLayout:

    def test_panel_width_formula(self, three_layout, j7):
        layout = three_layout
        c = j7.camera_center[0]
        p_expected = (3.0 * c + math.sqrt(4.0 * 65.0**2 - 3.0 * c * c)) / 2.0
        assert layout.metadata["panel_width"] == pytest.approx(p_expected, abs=1e-12)

    def test_strip_is_three_panels(self, three_layout):
        layout = three_layout
        strip = next(p for p in layout.pieces if p.piece_id == "strip")
        p = layout.metadata["panel_width"]
        assert strip.rect[2] == pytest.approx(3.0 * p, abs=1e-12)

    def test_folded_cameras_equilateral(self, three_layout):
        layout = three_layout
        seps = aperture_separations(layout)
        assert len(seps) == 3
        for s in seps:
            assert s == pytest.approx(65.0, abs=1e-6)
        # all three sides mutually equal within 1e-6
        assert max(seps) - min(seps) < 1e-6

    def test_folded_interior_angles_are_60_degrees(self, three_layout):
        layout = three_layout
        pts = assembled_aperture_centers(layout)
        flat = [(x, y) for x, y, _ in pts]
        for i in range(3):
            a = flat[i]
            b = flat[(i + 1) % 3]
            c = flat[(i + 2) % 3]
            v1 = (b[0] - a[0], b[1] - a[1])
            v2 = (c[0] - a[0], c[1] - a[1])
            cosang = (v1[0] * v2[0] + v1[1] * v2[1]) / (
                math.hypot(*v1) * math.hypot(*v2)
            )
            assert math.degrees(math.acos(cosang)) == pytest.approx(60.0, abs=1e-6)

    def test_fold_walk_matches_complex_plane_oracle(self, three_layout, j7):
        layout = three_layout
        p = layout.metadata["panel_width"]
        ox, oy = layout.metadata["strip_origin"]
        folds = layout.metadata["folds"]
        cx, cy = j7.camera_center
        points = [(i * p + cx, cy) for i in range(3)]
        oracle = fold_positions_oracle(points, [(f["x"], f["angle_deg"]) for f in folds])
        package = assembled_aperture_centers(layout)
        for (gx, gy, gz), (ex, ey, ez) in zip(package, oracle):
            assert (gx, gy, gz) == pytest.approx((ex, ey, ez), abs=1e-9)

    def test_strip_closes_after_three_panels(self, three_layout):
        layout = three_layout
        p = layout.metadata["panel_width"]
        folds = layout.metadata["folds"]
        end = fold_point(3.0 * p, folds + [{"x": 3.0 * p, "angle_deg": 120.0}])
        assert end == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_fold_lines_at_p_and_2p(self, three_layout):
        layout = three_layout
        p = layout.metadata["panel_width"]
        folds = layout.metadata["folds"]
        assert [f["x"] for f in folds] == pytest.approx([p, 2.0 * p])
        assert all(f["angle_deg"] == 120.0 for f in folds)

    def test_camera_offset_too_large_rejected(self, j7):
        mutant = dataclasses.replace(j7, camera_center=(76.0, 10.0))
        with pytest.raises(TemplateError, match="too large"):
            three_phone_layout(mutant)

    def test_panel_smaller_than_body_rejected(self, j7):
        with pytest.raises(TemplateError, match="smaller than the device width"):
            three_phone_layout(j7, ipd=35.0)

    def test_sheet_bounded_and_cuts_disjoint(self, three_layout):
        layout = three_layout
        assert _inside_sheet(layout)
        assert cut_intersections(layout) == []

    def test_deterministic(self, j7):
        assert three_phone_layout(j7) == three_phone_layout(j7)
        assert render_svg(three_phone_layout(j7)) == render_svg(three_phone_layout(j7))


@pytest.mark.parametrize("layout_fn", [three_phone_layout, mirror_rig_layout])
@pytest.mark.parametrize("ipd", [math.nan, math.inf, -math.inf, 0.0, -65.0])
def test_bad_ipd_rejected_like_the_base_model(j7, layout_fn, ipd):
    with pytest.raises(ValueError) as want:
        compute_base_model(j7, j7, VERT180, ipd=ipd)
    with pytest.raises(ValueError) as got:
        layout_fn(j7, ipd=ipd)
    assert str(got.value) == str(want.value)


class TestMirrorRigLayout:

    def test_slot_separation_is_ipd(self, mirror_layout):
        layout = mirror_layout
        md = layout.metadata["mirror"]
        ax, ay = md["mirror_a_center"]
        bx, by = md["mirror_b_center"]
        assert math.hypot(bx - ax, by - ay) == pytest.approx(65.0, abs=1e-9)

    def test_both_slots_tilt_45(self, mirror_layout):
        layout = mirror_layout
        assert layout.metadata["mirror"]["tilt_deg"] == 45.0

    def test_blue_near_red_far(self, mirror_layout):
        layout = mirror_layout
        md = layout.metadata["mirror"]
        assert md["near_slot"] == "slot_blue"
        assert md["double_sided"] == "slot_blue"
        assert md["color_a"] == "blue"
        assert md["color_b"] == "red"

    def test_near_slot_on_camera_axis(self, mirror_layout, j7):
        layout = mirror_layout
        md = layout.metadata["mirror"]
        near = md["mirror_a_center"]
        cradle = next(p for p in layout.pieces if p.piece_id == "cradle")
        cam = (
            cradle.rect[0] + j7.camera_center[0],
            cradle.rect[1] + j7.camera_center[1],
        )
        assert tuple(near) == pytest.approx(cam, abs=1e-9)
        aperture = next(p for p in layout.pieces if p.kind == "aperture")
        assert aperture.center == pytest.approx(cam, abs=1e-9)

    def test_sheet_bounded(self, mirror_layout):
        layout = mirror_layout
        assert _inside_sheet(layout)

    def test_deterministic(self, j7):
        assert mirror_rig_layout(j7) == mirror_rig_layout(j7)

    def test_plate_takes_a_body_wider_than_the_far_slot_reaches(self, j7):
        # the far slot reaches 10 + 39 + 65 + 14.1 mm; this body is 300 mm wide
        wide = dataclasses.replace(j7, body_width=300.0)
        layout = mirror_rig_layout(wide)
        plate = next(p for p in layout.pieces if p.piece_id == "plate")
        assert plate.rect == (0.0, 0.0, 10.0 + 300.0 + 10.0, 10.0 + 152.0 + 10.0)
        assert _inside_sheet(layout)


class TestRandomCorpus:
    def test_two_and_three_phone_hold_ipd(self):
        rng = random.Random(31337)
        for i in range(30):
            spec = random_spec(rng, f"corpus-{i}")
            base = compute_base_model(spec, spec, VERT180)
            two = two_phone_layout(spec, base)
            for sep in aperture_separations(two):
                assert sep == pytest.approx(65.0, abs=0.01)
            assert _inside_sheet(two)
            assert cut_intersections(two) == []

            three = three_phone_layout(spec)
            seps = aperture_separations(three)
            assert len(seps) == 3
            for sep in seps:
                assert sep == pytest.approx(65.0, abs=0.01)
            assert max(seps) - min(seps) < 1e-6
            assert _inside_sheet(three)
            assert cut_intersections(three) == []


def test_fold_point_between_folds_is_linear():
    folds = [{"x": 10.0, "angle_deg": 90.0}]
    assert fold_point(5.0, folds) == pytest.approx((5.0, 0.0))
    assert fold_point(10.0, folds) == pytest.approx((10.0, 0.0))
    x, y = fold_point(14.0, folds)
    assert (x, y) == pytest.approx((10.0, 4.0), abs=1e-12)


# IPDs log-uniform over [1e-3, 1e300] mm or, as often, over the accepted [1e-3, 1e9] mm, and
# `Materials` keyword arguments, each length within its range and, one time in eight, above
# the accepted 1e9 mm
_IPDS = st.one_of(st.floats(-3.0, 9.0), st.floats(-3.0, 300.0)).map(lambda e: 10.0 ** e)


def _lengths(exclude_min: bool):
    accepted = st.floats(min_value=0.0, max_value=MAX_LENGTH_MM, exclude_min=exclude_min)
    too_long = st.floats(min_value=MAX_LENGTH_MM, exclude_min=True, allow_infinity=False)
    return st.one_of(*[accepted] * 7, too_long)


_MATERIALS = st.fixed_dictionaries({"velcro": _lengths(True), "cardboard": _lengths(True),
                                    "strap_width": _lengths(True), "fillet": _lengths(False)})
_SPECS = st.randoms(use_true_random=False).map(lambda rng: random_spec(rng, "drawn"))


def _holds_or_refuses(make, ipd, separations, materials=None, refusal="") -> None:
    """`make()` builds `Materials(**materials)`, if given, before its layout.

    Above MAX_LENGTH_MM, the first material length or else the IPD makes `make()` the
    ValueError naming it.  At or below it, `make()` is an InfeasibleLayoutError, a
    TemplateError whose message holds `refusal`, or a layout that renders, lies on its
    sheet, reads back byte-identically, and whose `separations(layout)` are each one IPD
    within a relative 1e-9."""
    lengths = [(name, (materials or {}).get(field, 0.0)) for field, name in _LENGTH_NAMES.items()]
    too_long = [(name, value) for name, value in [*lengths, ("ipd", ipd)] if value > MAX_LENGTH_MM]
    if too_long:
        message = "{} must be at most 1e+09 mm, got {}".format(*too_long[0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
        return
    try:
        layout = make()
        svg = render_svg(layout)
    except TemplateError as exc:
        assert refusal in str(exc)
        return
    except InfeasibleLayoutError:
        return
    assert _inside_sheet(layout)
    assert render_svg(parse_svg(svg)) == svg
    seps = separations(layout)
    assert seps and all(math.isclose(sep, ipd, rel_tol=1e-9) for sep in seps), (seps, ipd)


class TestLayoutProperties:
    @settings(max_examples=examples(60), deadline=None)
    @given(spec=_SPECS, ipd=_IPDS, axis=st.sampled_from(AXES),
           orientation=st.sampled_from(ORIENTATIONS), rotation=st.sampled_from(ROTATIONS),
           materials=_MATERIALS)
    # at this scale a float's step (32 mm) swallows the 10 mm panel border, so the IPD
    # bound refuses it
    @example(spec=random_spec(random.Random(24), "drawn"), ipd=2.2227101183392326e17,
             axis="vertical", orientation="landscape", rotation=90,
             materials=dict(strap_width=0.001))
    def test_two_phone(self, spec, ipd, axis, orientation, rotation, materials):
        def make():
            built = Materials(**materials)
            config = LayoutConfig(axis, "coplanar", orientation, rotation)
            base = compute_base_model(spec, spec, config, ipd)
            return two_phone_layout(spec, base, built)

        _holds_or_refuses(make, ipd, aperture_separations, materials)

    @settings(max_examples=examples(60), deadline=None)
    @given(spec=_SPECS, ipd=_IPDS)
    # too small for any camera offset: the refusal names the IPD, unrounded
    @example(spec=random_spec(random.Random(3), "drawn"), ipd=1.5)
    @example(spec=random_spec(random.Random(3), "drawn"), ipd=5e-324)
    def test_three_phone(self, spec, ipd):
        # the three sides of the assembled prism
        _holds_or_refuses(lambda: three_phone_layout(spec, ipd), ipd, aperture_separations,
                          refusal=f"ipd {ipd} mm")

    @settings(max_examples=examples(60), deadline=None)
    @given(spec=_SPECS, ipd=_IPDS, materials=_MATERIALS)
    def test_mirror_rig(self, spec, ipd, materials):
        def separation(layout):
            mirror = layout.metadata["mirror"]
            return [math.dist(mirror["mirror_a_center"], mirror["mirror_b_center"])]

        _holds_or_refuses(lambda: mirror_rig_layout(spec, ipd, Materials(**materials)), ipd,
                          separation, materials)
