from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from stereorig.alignment import LayoutConfig, compute_base_model
from stereorig.guidance import (
    AlignmentStatus,
    GuidanceError,
    SensorReading,
    check_alignment,
    grid_overlay,
    instructions,
    load_reading_pairs,
    overlay_to_dict,
    overlay_to_svg,
)

from jsonfuzz import READINGS, assert_read_as_written, mangled
from profiles import examples

DEPTH = LayoutConfig(axis="vertical", stacking="depth-stacked")


def _reading(mag=(0.0, 0.0, 0.0), gyro=(0.0, 0.0, 0.0), ts=0.0):
    return SensorReading(magnetometer=mag, gyroscope=gyro, timestamp_ms=ts)


@pytest.fixture(scope="module")
def depth_base(j7):
    return compute_base_model(j7, j7, DEPTH)


class TestGridOverlay:
    def test_marker_scaling_reference(self, j7, depth_base):
        # camera target at (39, 8) mm on a 10 px/mm screen lands at (390, 80)
        shifted = dataclasses.replace(
            depth_base,
            camera_b_target=(39.0, 8.0),
            box_b=dataclasses.replace(depth_base.box_b, y=depth_base.box_b.y - 67.0),
        )
        overlay = grid_overlay(shifted, j7)
        assert overlay.target_marker == (390.0, 80.0)
        assert overlay.marker_px() == (390, 80)

    def test_gridline_progression(self, j7, depth_base):
        wide = dataclasses.replace(j7, screen_width_px=780)
        overlay = grid_overlay(depth_base, wide)
        assert overlay.vertical_lines == tuple(float(v) for v in range(0, 701, 100))

    def test_doubling_density_doubles_everything(self, j7, depth_base):
        d1 = grid_overlay(depth_base, j7)
        d2 = grid_overlay(
            depth_base,
            dataclasses.replace(
                j7,
                pixel_density=2 * j7.pixel_density,
                screen_width_px=2 * j7.screen_width_px,
                screen_height_px=2 * j7.screen_height_px,
            ),
        )
        assert d2.target_marker == (2 * d1.target_marker[0], 2 * d1.target_marker[1])
        assert d2.vertical_lines == tuple(2 * v for v in d1.vertical_lines)
        assert d2.horizontal_lines == tuple(2 * v for v in d1.horizontal_lines)
        assert d2.box_marker == tuple(2 * v for v in d1.box_marker)

    def test_linearity_against_independent_scaler(self, j7, depth_base):
        rng = random.Random(8)
        for _ in range(50):
            d = rng.uniform(4.0, 20.0)
            spec = dataclasses.replace(
                j7,
                pixel_density=d,
                screen_width_px=int(math.ceil(78 * d)) + 1,
                screen_height_px=int(math.ceil(152 * d)) + 1,
            )
            overlay = grid_overlay(depth_base, spec)
            tx_mm, ty_mm = depth_base.camera_b_target
            assert overlay.target_marker == (tx_mm * d, ty_mm * d)

    def test_marker_rounds_half_up(self, j7, depth_base):
        spec = dataclasses.replace(j7, pixel_density=10.05)
        overlay = grid_overlay(depth_base, spec)
        tx, ty = overlay.target_marker
        assert overlay.marker_px() == (math.floor(tx + 0.5), math.floor(ty + 0.5))

    def test_landscape_swaps_screen_axes(self, j7):
        layout = LayoutConfig(
            axis="horizontal", stacking="depth-stacked", orientation="landscape"
        )
        base = compute_base_model(j7, j7, layout)
        overlay = grid_overlay(base, j7)
        assert overlay.screen_px == (j7.screen_height_px, j7.screen_width_px)
        assert overlay.orientation == "landscape"

    def test_coplanar_base_rejected(self, j7):
        base = compute_base_model(
            j7, j7, LayoutConfig(axis="vertical", stacking="coplanar", rotation_b=180)
        )
        with pytest.raises(GuidanceError, match="depth-stacked"):
            grid_overlay(base, j7)

    def test_off_screen_target_rejected(self, j7, depth_base):
        tiny = dataclasses.replace(j7, screen_height_px=700)  # target at 750 px
        with pytest.raises(GuidanceError, match="off the"):
            grid_overlay(depth_base, tiny)

    @pytest.mark.parametrize("density", [1e308, sys.float_info.max])
    def test_overflowing_pixel_density_rejected(self, j7, depth_base, density):
        huge = dataclasses.replace(j7, pixel_density=density)  # finite, target overflows
        with pytest.raises(GuidanceError, match=r"^J7-fixture: pixel_density .* beyond any"):
            grid_overlay(depth_base, huge)

    def test_nonpositive_pitch_rejected(self, j7, depth_base):
        with pytest.raises(GuidanceError, match="pitch"):
            grid_overlay(depth_base, j7, pitch_mm=0.0)

    @pytest.mark.parametrize("pitch", [math.nan, math.inf, -math.inf])
    def test_non_finite_pitch_rejected_by_name(self, j7, depth_base, pitch):
        message = rf"^grid pitch must be positive and finite, got {pitch}$"
        with pytest.raises(GuidanceError, match=message):
            grid_overlay(depth_base, j7, pitch_mm=pitch)

    def test_pitch_under_one_pixel_rejected(self, j7, depth_base):
        # J7-fixture has 10 px/mm: 0.1 mm is exactly one pixel, the finest grid
        overlay = grid_overlay(depth_base, j7, pitch_mm=0.1)
        assert overlay.vertical_lines[:3] == (0.0, 1.0, 2.0)
        assert len(overlay.vertical_lines) == 720
        below = math.nextafter(0.1, 0.0)
        with pytest.raises(GuidanceError, match=rf"^grid pitch {below} mm is under one pixel"):
            grid_overlay(depth_base, j7, pitch_mm=below)
        message = r"^grid pitch 0\.001 mm is under one pixel on J7-fixture \(10\.0 px/mm\)$"
        with pytest.raises(GuidanceError, match=message):
            grid_overlay(depth_base, j7, pitch_mm=0.001)

    def test_pitch_not_under_the_screen_rejected(self, j7, depth_base):
        # 72 mm on 10 px/mm spans the 720 px short side: one line on it, and none
        # at all for a pitch of 1e308 mm, whose step is inf
        below = math.nextafter(72.0, 0.0)
        overlay = grid_overlay(depth_base, j7, pitch_mm=below)
        assert overlay.vertical_lines == (0.0, below * 10.0)
        for pitch in (72.0, 1e17, 1e308):
            message = (rf"^grid pitch {re.escape(str(pitch))} mm is not under the shorter "
                       rf"side of the 720 x 1480 px screen on J7-fixture \(10\.0 px/mm\)$")
            with pytest.raises(GuidanceError, match=message):
                grid_overlay(depth_base, j7, pitch_mm=pitch)

    def test_box_marker_clamped_to_screen(self, j7, depth_base):
        overlay = grid_overlay(depth_base, j7)
        x, y, w, h = overlay.box_marker
        assert x >= 0 and y >= 0
        assert x + w <= overlay.screen_px[0]
        assert y + h <= overlay.screen_px[1]

    def test_all_lines_within_screen(self, j7, depth_base):
        overlay = grid_overlay(depth_base, j7)
        assert all(0 <= v < overlay.screen_px[0] for v in overlay.vertical_lines)
        assert all(0 <= h < overlay.screen_px[1] for h in overlay.horizontal_lines)

    def test_overlay_serialization(self, j7, depth_base):
        doc = overlay_to_dict(grid_overlay(depth_base, j7))
        parsed = json.loads(json.dumps(doc))
        assert parsed["screen_px"] == [720, 1480]
        assert parsed["target_marker"] == [390.0, 750.0]
        svg = overlay_to_svg(grid_overlay(depth_base, j7))
        assert svg.startswith("<svg")


class TestCheckAlignment:
    def test_identical_readings_align(self):
        status = check_alignment(_reading(), _reading())
        assert status.aligned
        assert status.axis_deltas == (0.0, 0.0, 0.0)
        assert not status.tilt_detected
        assert status.offending_axes == ()

    def test_z_delta_beyond_tolerance(self):
        status = check_alignment(
            _reading(mag=(1.0, 2.0, 3.0)),
            _reading(mag=(1.0, 2.0, 15.0)),
            mag_tolerance=5.0,
        )
        assert not status.aligned
        assert status.axis_deltas == (0.0, 0.0, 12.0)
        assert status.offending_axes == ("z",)

    def test_delta_equal_to_tolerance_is_fine(self):
        status = check_alignment(
            _reading(), _reading(mag=(5.0, 0.0, 0.0)), mag_tolerance=5.0
        )
        assert status.aligned

    def test_tilt_reference_case(self):
        status = check_alignment(
            _reading(gyro=(0.0, 0.0, 0.0)),
            _reading(gyro=(0.0, 9.0, 0.0)),
            gyro_tolerance=2.0,
        )
        assert status.tilt_detected
        assert status.tilt_axis == "y"
        assert not status.aligned

    def test_matched_rotation_is_not_tilt(self):
        # both devices turning together: no differential tilt
        status = check_alignment(
            _reading(gyro=(0.0, 9.0, 0.0)),
            _reading(gyro=(0.0, 9.5, 0.0)),
            gyro_tolerance=2.0,
        )
        assert not status.tilt_detected
        assert status.aligned

    def test_first_tilt_axis_reported(self):
        status = check_alignment(
            _reading(), _reading(gyro=(8.0, 9.0, 0.0)), gyro_tolerance=2.0
        )
        assert status.tilt_axis == "x"

    def test_antisymmetry(self):
        rng = random.Random(4)
        for _ in range(100):
            a = _reading(
                mag=tuple(rng.uniform(-40, 40) for _ in range(3)),
                gyro=tuple(rng.uniform(-5, 5) for _ in range(3)),
            )
            b = _reading(
                mag=tuple(rng.uniform(-40, 40) for _ in range(3)),
                gyro=tuple(rng.uniform(-5, 5) for _ in range(3)),
            )
            fwd = check_alignment(a, b)
            rev = check_alignment(b, a)
            assert rev.axis_deltas == tuple(-d for d in fwd.axis_deltas)
            assert fwd.aligned == rev.aligned
            assert fwd.tilt_detected == rev.tilt_detected

    def test_monotone_in_tolerance(self):
        rng = random.Random(5)
        for _ in range(100):
            a = _reading(mag=tuple(rng.uniform(-40, 40) for _ in range(3)))
            b = _reading(mag=tuple(rng.uniform(-40, 40) for _ in range(3)))
            t = rng.uniform(0.1, 30.0)
            if check_alignment(a, b, mag_tolerance=t).aligned:
                for factor in (1.5, 2.0, 10.0):
                    assert check_alignment(a, b, mag_tolerance=t * factor).aligned

    def test_nonfinite_reading_rejected(self):
        with pytest.raises(GuidanceError, match="finite"):
            check_alignment(_reading(mag=(float("nan"), 0.0, 0.0)), _reading())

    @pytest.mark.parametrize("field", ["magnetometer", "gyroscope", "timestamp_ms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_is_refused_by_field(self, field, value):
        fields = {"magnetometer": (0.0, 0.0, 0.0), "gyroscope": (0.0, 0.0, 0.0),
                  "timestamp_ms": 0.0}
        fields[field] = value if field == "timestamp_ms" else (0.0, value, 0.0)
        with pytest.raises(GuidanceError, match=rf"^{field} must be finite, got {value}$"):
            SensorReading(**fields)

    @pytest.mark.parametrize("name", ["mag_tolerance", "gyro_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_tolerance_rejected(self, name, value):
        # a nan tolerance passed every delta: readings 50 uT apart read as aligned
        a, b = _reading(), _reading(mag=(50.0, 0.0, 0.0), gyro=(90.0, 0.0, 0.0))
        with pytest.raises(GuidanceError, match=f"{name} must be finite and non-negative"):
            check_alignment(a, b, **{name: value})

    def test_zero_tolerance_accepted(self):
        assert check_alignment(_reading(), _reading(), mag_tolerance=0.0, gyro_tolerance=0.0).aligned


class TestInstructions:
    def test_aligned_says_aligned(self):
        assert instructions(check_alignment(_reading(), _reading())) == ["aligned"]

    def test_single_axis_corrective(self):
        status = check_alignment(
            _reading(), _reading(mag=(0.0, 0.0, 12.0)), mag_tolerance=5.0
        )
        out = instructions(status)
        assert len(out) == 1
        assert out[0] == "move second device +z (+12.0 uT)"

    def test_negative_delta_sign(self):
        status = check_alignment(
            _reading(mag=(0.0, 20.0, 0.0)), _reading(), mag_tolerance=5.0
        )
        assert instructions(status) == ["move second device -y (-20.0 uT)"]

    def test_every_violation_subset_counts_and_orders(self):
        for axes in itertools.chain.from_iterable(
            itertools.combinations((0, 1, 2), k) for k in range(4)
        ):
            for tilt in (False, True):
                mag = [0.0, 0.0, 0.0]
                for ax in axes:
                    mag[ax] = 12.0
                gyro = (0.0, 0.0, 9.0) if tilt else (0.0, 0.0, 0.0)
                status = check_alignment(
                    _reading(),
                    _reading(mag=tuple(mag), gyro=gyro),
                    mag_tolerance=5.0,
                    gyro_tolerance=2.0,
                )
                out = instructions(status)
                if not axes and not tilt:
                    assert out == ["aligned"]
                    continue
                assert len(out) == len(axes) + (1 if tilt else 0)
                # axis correctives first, in x,y,z order; tilt always last
                axis_order = [ln[20] for ln in out if ln.startswith("move")]
                assert axis_order == [("x", "y", "z")[ax] for ax in axes]
                if tilt:
                    assert out[-1] == "reduce tilt about z"

    def test_corrective_free_iff_aligned(self):
        status = AlignmentStatus(
            aligned=True,
            axis_deltas=(0.0, 0.0, 0.0),
            tilt_detected=False,
            tilt_axis=None,
        )
        assert instructions(status) == ["aligned"]


class TestReadingFixtures:
    def test_load_pairs(self, tmp_path):
        doc = [
            {
                "a": {"magnetometer": [1, 2, 3], "gyroscope": [0, 0, 0]},
                "b": {"magnetometer": [1, 2, 3], "gyroscope": [0, 0, 0],
                      "timestamp_ms": 12.5},
            }
        ]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        pairs = load_reading_pairs(str(path))
        assert len(pairs) == 1
        assert pairs[0][0].magnetometer == (1.0, 2.0, 3.0)
        assert pairs[0][1].timestamp_ms == 12.5

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("[]")
        with pytest.raises(GuidanceError, match="non-empty"):
            load_reading_pairs(str(path))

    @pytest.mark.parametrize("field, value, got", [
        ("magnetometer", "123", "str"),
        ("magnetometer", [1, 2, 3, 4], "4 items"),
        ("gyroscope", [0, 0], "2 items"),
    ])
    def test_vector_must_be_an_array_of_three(self, tmp_path, field, value, got):
        # "123" was read as (1, 2, 3) and a fourth component dropped
        reading = {"magnetometer": [1, 2, 3], "gyroscope": [0, 0, 0], field: value}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"a": reading, "b": reading}]))
        with pytest.raises(GuidanceError, match=f"{field} must be an array of 3 items, got {got}"):
            load_reading_pairs(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("magnetometer", [True, 0, 0], "magnetometer must be a JSON number, got bool"),
        ("gyroscope", [0, None, 0], "gyroscope must be a JSON number, got NoneType"),
        ("timestamp_ms", False, "timestamp_ms must be a JSON number, got bool"),
        ("timestamp_ms", "12", "timestamp_ms must be a JSON number, got str"),
        ("magnetometer", [10**400, 0, 0], "int too large to convert to float"),
    ])
    def test_reading_value_of_the_wrong_json_type_is_refused(self, tmp_path, field, value,
                                                             message):
        # float() read a true as 1.0, and a huge integer escaped as an OverflowError
        reading = {"magnetometer": [1, 2, 3], "gyroscope": [0, 0, 0], field: value}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"a": reading, "b": reading}]))
        with pytest.raises(GuidanceError, match=f"malformed sensor reading: {message}$"):
            load_reading_pairs(str(path))

    @pytest.mark.parametrize("reading, message", [
        ({"magnetometer": [1, 2, 3], "gyroscope": [0, 0, 0], "timestamp": 5},
         "sensor reading has unknown fields: timestamp"),
        ({"magnetometer": [1, 2, 3], "gyroscope": [0, 0, 0], "gyro": [], "Mag": 1},
         "sensor reading has unknown fields: Mag, gyro"),
        ([1, 2, 3], "sensor reading must be an object, got list"),
        ({"magnetometer": [1, 2, 3]}, "sensor reading missing required fields: gyroscope"),
    ])
    def test_reading_that_is_no_record_of_its_fields_is_refused(self, tmp_path, reading, message):
        # "timestamp" was dropped without a word and timestamp_ms read as 0.0
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"a": reading, "b": reading}]))
        with pytest.raises(GuidanceError, match=f"^{message}$"):
            load_reading_pairs(str(path))

    def test_integer_beyond_the_parser_limit_is_a_guidance_error(self, tmp_path):
        # json.load raises a plain ValueError for an integer of over 4,300 digits
        path = tmp_path / "pairs.json"
        path.write_text('[{"a": {"magnetometer": [' + "7" * 5000 + ', 0, 0]}}]')
        with pytest.raises(GuidanceError, match="^malformed readings file: Exceeds the limit"):
            load_reading_pairs(str(path))

    def test_readme_example_loads(self, tmp_path):
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = text.split("### align-check", 1)[1]
        path = tmp_path / "readings.json"
        path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        pairs = load_reading_pairs(str(path))
        assert [check_alignment(a, b).aligned for a, b in pairs] == [True, False]
        assert pairs[0][1].timestamp_ms == 1003.0 and pairs[1][0].timestamp_ms == 0.0

    @settings(max_examples=examples(150), deadline=None)
    @given(text=mangled(READINGS))
    def test_mangled_readings_load_typed_or_raise_guidance_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mangled_readings.json"
        path.write_text(text)
        try:
            pairs = load_reading_pairs(str(path))
        except GuidanceError:
            return
        for (a, b), entry in zip(pairs, json.loads(text), strict=True):
            assert_read_as_written(a, entry["a"])
            assert_read_as_written(b, entry["b"])

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_bytes(b'[{"a": "\xff"}]')
        with pytest.raises(GuidanceError, match=f"{re.escape(str(path))}: not UTF-8 text"):
            load_reading_pairs(str(path))

    def test_missing_b_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"a": {"magnetometer": [0, 0, 0], "gyroscope": [0, 0, 0]}}]))
        with pytest.raises(GuidanceError, match="'a' and 'b'"):
            load_reading_pairs(str(path))
