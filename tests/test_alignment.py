from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig import DEFAULT_IPD_MM
from stereorig.alignment import (
    AXES,
    ORIENTATIONS,
    ROTATIONS,
    STACKINGS,
    BaseModel,
    InfeasibleLayoutError,
    LayoutConfig,
    Rect,
    camera_separation,
    compute_base_model,
    model_to_dict,
    model_to_json,
    oriented_footprint,
    rotate_footprint,
    validate_placement,
)

from oracles import (
    footprint_oracle,
    model_dict_oracle,
    random_spec,
    scan_min_separation,
    scan_placement,
)
from profiles import examples

VERT180 = LayoutConfig(axis="vertical", stacking="coplanar", rotation_b=180)
DEPTH = LayoutConfig(axis="vertical", stacking="depth-stacked", rotation_b=0)


class TestLayoutConfig:
    def test_defaults(self):
        cfg = LayoutConfig()
        assert (cfg.axis, cfg.stacking, cfg.orientation, cfg.rotation_b) == (
            "vertical",
            "coplanar",
            "portrait",
            0,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"axis": "diagonal"},
            {"stacking": "floating"},
            {"orientation": "upside-down"},
            {"rotation_b": 45},
        ],
    )
    def test_rejects_bad_enum(self, kwargs):
        with pytest.raises(ValueError):
            LayoutConfig(**kwargs)


class TestFootprints:
    def test_oriented_landscape_swaps(self, j7):
        w, l, cx, cy = oriented_footprint(j7, "landscape")
        assert (w, l) == (152.0, 78.0)

    def test_rotation_matches_corner_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            w = rng.uniform(50, 90)
            l = rng.uniform(100, 180)
            cx = rng.uniform(0, w)
            cy = rng.uniform(0, l)
            for deg in (0, 90, 180, 270):
                got = rotate_footprint(w, l, cx, cy, deg)
                want = footprint_oracle(w, l, cx, cy, deg)
                assert got == pytest.approx(want, abs=1e-9)

    def test_four_rotations_compose_to_identity(self):
        state = (78.0, 152.0, 39.0, 10.0)
        for _ in range(4):
            state = rotate_footprint(*state, 90)
        assert state == pytest.approx((78.0, 152.0, 39.0, 10.0))


class TestComputeBaseModel:
    def test_identical_coplanar_horizontal_is_infeasible(self, j7):
        layout = LayoutConfig(axis="horizontal", stacking="coplanar", rotation_b=0)
        with pytest.raises(InfeasibleLayoutError) as exc:
            compute_base_model(j7, j7, layout)
        assert exc.value.min_separation == pytest.approx(78.0, abs=1e-9)
        assert "78.0" in str(exc.value)
        # the brute-force scan agrees nothing is feasible
        assert scan_placement(j7, j7, layout, 65.0) is None
        assert scan_min_separation(j7, j7, layout, 65.0) == pytest.approx(78.0, abs=0.05)

    def test_identical_coplanar_vertical_flipped(self, j7):
        model = compute_base_model(j7, j7, VERT180)
        assert model.rotation_applied == 180
        assert model.axis_gap == pytest.approx(45.0, abs=1e-9)
        assert camera_separation(model) == pytest.approx(65.0, abs=1e-9)
        # camera 10 mm from the shared edge on both sides: 10 + 45 + 10
        assert model.box_b == Rect(0.0, -197.0, 78.0, 152.0)
        assert validate_placement(model) == []

    def test_depth_stacked_pure_offset(self, j7):
        model = compute_base_model(j7, j7, DEPTH)
        assert model.camera_b_target == pytest.approx((39.0, 75.0))
        dx = model.camera_b_target[0] - model.camera_a[0]
        dy = model.camera_b_target[1] - model.camera_a[1]
        assert (dx, dy) == pytest.approx((0.0, 65.0))
        assert camera_separation(model) == 65.0
        assert model.box_b.y - model.body_a.y == pytest.approx(65.0)
        assert validate_placement(model) == []

    def test_rotation_zero_tried_first(self, j7):
        # depth stacking is feasible at 0 deg, so the 180 fallback must not fire
        layout = LayoutConfig(axis="vertical", stacking="depth-stacked", rotation_b=180)
        model = compute_base_model(j7, j7, layout)
        assert model.rotation_applied == 0

    def test_deterministic_bit_for_bit(self, j7, a5):
        m1 = compute_base_model(j7, a5, VERT180)
        m2 = compute_base_model(j7, a5, VERT180)
        assert m1 == m2
        assert model_to_json(m1) == model_to_json(m2)

    def test_ipd_scaling(self, j7):
        for k in (0.5, 1.0, 1.5, 2.0):
            ipd = k * DEFAULT_IPD_MM
            model = compute_base_model(j7, j7, VERT180, ipd=ipd)
            assert camera_separation(model) == pytest.approx(ipd, abs=0.01)
            assert validate_placement(model) == []

    def test_nonpositive_ipd_rejected(self, j7):
        with pytest.raises(ValueError):
            compute_base_model(j7, j7, VERT180, ipd=0.0)

    @pytest.mark.parametrize("ipd, message", [
        (float("nan"), "ipd must be positive and finite, got nan"),
        (float("-inf"), "ipd must be positive and finite, got -inf"),
        (float("inf"), "ipd must be positive and finite, got inf"),
    ])
    def test_non_finite_ipd_rejected(self, j7, ipd, message):
        with pytest.raises(ValueError, match=message):
            compute_base_model(j7, j7, VERT180, ipd=ipd)

    def test_mixed_devices_feasible(self, j7, a5):
        model = compute_base_model(j7, a5, VERT180)
        assert camera_separation(model) == pytest.approx(65.0, abs=0.01)
        assert validate_placement(model) == []
        assert model.device_a == "J7-fixture"
        assert model.device_b == "A5-fixture"

    def test_landscape_layouts_solve(self, j7, a5):
        layout = LayoutConfig(
            axis="horizontal",
            stacking="coplanar",
            orientation="landscape",
            rotation_b=180,
        )
        model = compute_base_model(j7, a5, layout)
        assert camera_separation(model) == pytest.approx(65.0, abs=0.01)
        assert validate_placement(model) == []

    def test_scan_confirms_feasibility_and_optimality(self, j7, a5):
        rng = random.Random(99)
        layouts = [
            VERT180,
            DEPTH,
            LayoutConfig(axis="horizontal", stacking="depth-stacked"),
            LayoutConfig(
                axis="horizontal", stacking="coplanar", orientation="landscape",
                rotation_b=180,
            ),
        ]
        for i in range(10):
            a = random_spec(rng, f"sa-{i}")
            b = random_spec(rng, f"sb-{i}")
            for layout in layouts:
                try:
                    model = compute_base_model(a, b, layout)
                except InfeasibleLayoutError as exc:
                    assert scan_placement(a, b, layout, 65.0) is None
                    assert exc.value.min_separation > 65.0
                    continue
                hit = scan_placement(a, b, layout, 65.0)
                assert hit is not None
                assert hit["rotation"] == model.rotation_applied
                solved_area = _bbox_area(model)
                # scan resolution 0.1 mm on a linear extent: allow its slack
                slack = 0.2 * hit["cross_extent"] + 1e-6
                assert solved_area <= hit["area"] + slack

    def test_narrow_body_feasible_side_by_side(self, compact):
        # cameras 32 mm from each facing edge: 32 + gap + 32 = 65 works
        layout = LayoutConfig(axis="horizontal", stacking="coplanar", rotation_b=0)
        model = compute_base_model(compact, compact, layout)
        assert model.axis_gap == pytest.approx(1.0, abs=1e-9)
        assert camera_separation(model) == pytest.approx(65.0, abs=1e-9)
        assert validate_placement(model) == []

    def test_infeasible_scan_agreement(self, j7, compact):
        # 39 mm + 32 mm camera-to-edge spans force at least 71 mm apart
        layout = LayoutConfig(axis="horizontal", stacking="coplanar", rotation_b=0)
        with pytest.raises(InfeasibleLayoutError) as exc:
            compute_base_model(j7, compact, layout)
        assert exc.value.min_separation == pytest.approx(71.0, abs=1e-9)
        assert exc.value.min_separation == pytest.approx(
            scan_min_separation(j7, compact, layout, 65.0), abs=0.05
        )
        assert scan_placement(j7, compact, layout, 65.0) is None


def _bbox_area(model: BaseModel) -> float:
    a, b = model.body_a, model.box_b
    w = max(a.right, b.right) - min(a.x, b.x)
    h = max(a.bottom, b.bottom) - min(a.y, b.y)
    return w * h


class TestCameraSeparation:
    def _hand_model(self, cam_a, cam_b):
        return BaseModel(
            camera_a=cam_a,
            camera_b_target=cam_b,
            box_b=Rect(0, 0, 10, 10),
            body_a=Rect(0, 0, 10, 10),
            camera_b_offset=(0.0, 0.0),
            layout=DEPTH,
            ipd=65.0,
            rotation_applied=0,
            device_a="x",
            device_b="y",
            axis_gap=0.0,
        )

    def test_coincident_points(self):
        assert camera_separation(self._hand_model((0, 0), (0, 0))) == 0.0

    def test_three_four_five(self):
        assert camera_separation(self._hand_model((1, 1), (4, 5))) == 5.0

    def test_matches_hypot(self, j7, a5):
        model = compute_base_model(j7, a5, DEPTH)
        ax, ay = model.camera_a
        bx, by = model.camera_b_target
        assert camera_separation(model) == math.hypot(bx - ax, by - ay)


class TestValidatePlacement:
    def test_valid_model_is_clean(self, j7, a5):
        model = compute_base_model(j7, a5, VERT180)
        assert validate_placement(model) == []

    def test_separation_70_flags_ipd_only(self, j7):
        model = compute_base_model(j7, j7, VERT180)
        shifted = dataclasses.replace(
            model,
            camera_b_target=(
                model.camera_b_target[0],
                model.camera_b_target[1] - 5.0,
            ),
            box_b=dataclasses.replace(model.box_b, y=model.box_b.y - 5.0),
        )
        assert camera_separation(shifted) == pytest.approx(70.0)
        violations = validate_placement(shifted)
        assert len(violations) == 1
        assert violations[0].startswith("ipd:")
        assert "70.000" in violations[0] and "65.000" in violations[0]

    def test_occlusion_detected(self, j7):
        model = compute_base_model(j7, j7, DEPTH)
        occluding = dataclasses.replace(
            model,
            box_b=Rect(0.0, 0.0, j7.body_width, j7.body_length),
        )
        violations = validate_placement(occluding)
        assert any(v.startswith("occlusion:") for v in violations)

    def test_coplanar_overlap_detected(self, j7):
        model = compute_base_model(j7, j7, VERT180)
        overlapping = dataclasses.replace(
            model,
            box_b=dataclasses.replace(model.box_b, y=model.body_a.y - 1.0),
            camera_b_target=(
                model.box_b.x + model.camera_b_offset[0],
                model.body_a.y - 1.0 + model.camera_b_offset[1],
            ),
        )
        violations = validate_placement(overlapping)
        assert any(v.startswith("overlap:") for v in violations)

    def test_offset_mismatch_detected(self, j7):
        model = compute_base_model(j7, j7, VERT180)
        broken = dataclasses.replace(model, camera_b_offset=(0.0, 0.0))
        violations = validate_placement(broken)
        assert any(v.startswith("camera_offset:") for v in violations)


class TestSerialization:
    def test_round_trip(self, j7, a5):
        model = compute_base_model(j7, a5, VERT180)
        doc = model_to_dict(model)
        assert json.loads(model_to_json(model)) == doc
        # the rounded cameras keep the separation to within 0.002 mm
        ax, ay = doc["camera_a"]
        bx, by = doc["camera_b_target"]
        assert math.hypot(bx - ax, by - ay) == pytest.approx(camera_separation(model), abs=0.002)

    def test_json_is_stable_and_rounded(self, j7):
        text = model_to_json(compute_base_model(j7, j7, DEPTH))
        assert text.endswith("\n")
        assert text == model_to_json(compute_base_model(j7, j7, DEPTH))
        doc = model_to_dict(compute_base_model(j7, j7, DEPTH))
        assert doc["ipd"] == 65.0
        assert doc["camera_b_target"] == [39.0, 75.0]

    @settings(max_examples=examples(40), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ipd=st.floats(20.0, 120.0))
    def test_dict_matches_field_by_field_oracle(self, seed, ipd):
        rng = random.Random(seed)
        a, b = random_spec(rng, "dev-a"), random_spec(rng, "dev-b")
        for axis, stacking, orientation, rot in itertools.product(
            AXES, STACKINGS, ORIENTATIONS, ROTATIONS
        ):
            layout = LayoutConfig(axis, stacking, orientation, rot)
            try:
                model = compute_base_model(a, b, layout, ipd)
            except InfeasibleLayoutError:
                continue
            doc, want = model_to_dict(model), model_dict_oracle(model)
            assert doc == want
            # equal dicts may still differ in JSON: 1 == 1.0, but "1" != "1.0"
            assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_json_refuses_non_finite_numbers(self, j7):
        model = dataclasses.replace(compute_base_model(j7, j7, DEPTH), axis_gap=math.inf)
        with pytest.raises(ValueError, match="not JSON compliant"):
            model_to_json(model)


class TestRect:
    def test_overlap_is_open(self):
        a = Rect(0, 0, 10, 10)
        assert not a.overlaps(Rect(10, 0, 5, 5))  # edge contact is not overlap
        assert a.overlaps(Rect(9.99, 0, 5, 5))

    def test_contains_point_strict(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(5, 5)
        assert not r.contains_point(0, 5)
        assert not r.contains_point(10, 5)
