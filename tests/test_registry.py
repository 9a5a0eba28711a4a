from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig.registry import (
    CapabilityProfile,
    DeviceSpec,
    RegistryError,
    load_registry,
    lookup,
    negotiate,
    parse_device_specs,
    serialize_device_specs,
)

from jsonfuzz import CATALOG, assert_read_as_written, mangled
from oracles import (
    negotiate_oracle,
    random_spec,
    serialized_specs_oracle,
    validate_spec_dict,
)
from profiles import examples


_TINY = 5e-324  # the smallest positive float


def _one_device(**overrides) -> str:
    entry = {
        "model_id": "unit-fixture",
        "body_width": 78.0,
        "body_length": 152.0,
        "body_thickness": 8.0,
        "camera_center": [39.0, 10.0],
        "screen_width_px": 720,
        "screen_height_px": 1480,
        "pixel_density": 10.0,
        "resolutions": [[1280, 720]],
        "frame_rates": [30],
        "focus_modes": ["auto"],
        "capture_modes": ["video"],
    }
    entry.update(overrides)
    return json.dumps([entry])


class TestParse:
    def test_single_device_round(self):
        specs = parse_device_specs(_one_device())
        assert len(specs) == 1
        s = specs[0]
        assert (s.body_width, s.body_length, s.body_thickness) == (78.0, 152.0, 8.0)
        assert s.camera_center == (39.0, 10.0)
        # cross-check against the raw-dict validator
        assert validate_spec_dict(json.loads(_one_device())[0]) == []

    def test_empty_list(self):
        assert parse_device_specs("[]") == []

    def test_camera_outside_body_errors(self):
        with pytest.raises(RegistryError, match="outside"):
            parse_device_specs(_one_device(camera_center=[90.0, 10.0]))

    def test_camera_below_body_errors(self):
        with pytest.raises(RegistryError, match="outside"):
            parse_device_specs(_one_device(camera_center=[39.0, 160.0]))

    @pytest.mark.parametrize("slot", [0, 1])
    def test_camera_center_coordinate_is_a_non_negative_length(self, slot):
        center = [39.0, 10.0]
        center[slot] = -1.0
        message = "unit-fixture: camera_center must be finite and non-negative, got -1.0"
        with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
            parse_device_specs(_one_device(camera_center=center))
        center[slot] = 0.0
        assert parse_device_specs(_one_device(camera_center=center))[0].camera_center == tuple(center)

    def test_negative_width_errors(self):
        with pytest.raises(RegistryError, match="positive"):
            parse_device_specs(_one_device(body_width=-1.0))

    @pytest.mark.parametrize("field, slot", [
        ("body_width", None), ("body_length", None), ("body_thickness", None),
        ("pixel_density", None), ("camera_center", 0), ("camera_center", 1),
        ("frame_rates", 0),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_names_model_and_field(self, field, slot, value):
        entry = json.loads(_one_device())[0]
        if slot is None:
            entry[field] = value
        else:
            entry[field][slot] = value
        with pytest.raises(RegistryError) as err:
            # json.dumps writes NaN / Infinity / -Infinity, which json.loads reads back
            parse_device_specs(json.dumps([entry]))
        assert str(err.value).startswith("unit-fixture: ")
        assert field in str(err.value)

    @pytest.mark.parametrize("field, bound, unit", [
        ("screen_width_px", 100000, "px"), ("screen_height_px", 100000, "px"),
        ("resolutions", 100000, "px"), ("frame_rates", 1000, "fps"),
        ("body_width", 10**9, "mm"), ("body_length", 10**9, "mm"), ("body_thickness", 10**9, "mm"),
        ("pixel_density", 1000, "px/mm"),
    ])
    def test_pixels_and_rates_past_their_bound_name_model_and_field(self, field, bound, unit):
        # a catalog screen 10**12 px wide ran grid-overlay out of memory, a frame rate of
        # 1e305 fps made simulate-sync count 1e302 ticks until it was killed, a body
        # 1e300 mm wide wrote an SVG width of 300 digits, and a pixel density of 1e308
        # put grid-overlay's target marker at an infinite pixel
        def one_device(value):
            wrapped = {"resolutions": [[1280, value]], "frame_rates": [value]}
            return _one_device(**{field: wrapped.get(field, value)})
        parse_device_specs(one_device(bound))
        for past in (bound + 1, 10**12):
            read = past if field.endswith(("_px", "resolutions")) else float(past)
            message = f"unit-fixture: {field} must be at most {bound:g} {unit}, got {read}"
            with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
                parse_device_specs(one_device(past))

    @pytest.mark.parametrize("entry", [{"screen_width_px": math.inf},
                                       {"resolutions": [[1280, -math.inf]]}])
    def test_infinite_integer_field_is_a_registry_error(self, entry):
        # int(inf) raises OverflowError, which used to escape as a traceback
        with pytest.raises(RegistryError, match="malformed device entry"):
            parse_device_specs(_one_device(**entry))

    @pytest.mark.parametrize("entry, message", [
        ({"focus_modes": "auto"}, "focus_modes must be an array, got str"),
        ({"capture_modes": {"video": 1}}, "capture_modes must be an array, got dict"),
        ({"frame_rates": "35"}, "frame_rates must be an array, got str"),
        ({"camera_center": "12"}, "camera_center must be an array of 2 items, got str"),
        ({"camera_center": [1, 2, 3]}, "camera_center must be an array of 2 items, got 3 items"),
        ({"resolutions": ["12"]}, "each of resolutions must be an array of 2 items, got str"),
        ({"resolutions": [[1280, 720, 3]]},
         "each of resolutions must be an array of 2 items, got 3"),
    ])
    def test_array_field_must_be_an_array_of_its_length(self, entry, message):
        # a string was read character by character, a long list cut short
        with pytest.raises(RegistryError, match=f"malformed device entry: {message}"):
            parse_device_specs(_one_device(**entry))

    @pytest.mark.parametrize("entry, message", [
        ({"model_id": None}, "model_id must be a JSON string, got NoneType"),
        ({"screen_width_px": 720.9}, "screen_width_px must be a JSON integer, got 720.9"),
        ({"screen_height_px": True}, "screen_height_px must be a JSON integer, got bool"),
        ({"focus_modes": [1, None]}, "each of focus_modes must be a JSON string, got int"),
        ({"capture_modes": ["video", None]},
         "each of capture_modes must be a JSON string, got NoneType"),
        ({"frame_rates": [True]}, "each of frame_rates must be a JSON number, got bool"),
        ({"camera_center": [39.0, "10"]}, "camera_center must be a JSON number, got str"),
        ({"resolutions": [[1280.5, 720]]},
         "each of resolutions must be a JSON integer, got 1280.5"),
        ({"body_width": "78"}, "body_width must be a JSON number, got str"),
    ])
    def test_scalar_of_the_wrong_json_type_is_refused(self, entry, message):
        # str(), int() and float() read these as 'None', 720, 1, {'1', 'None'}
        with pytest.raises(RegistryError, match=f"malformed device entry: {message}$"):
            parse_device_specs(_one_device(**entry))

    @pytest.mark.parametrize("extra, message", [
        ({"colour": "red"}, "device entry has unknown fields: colour"),
        ({"zoom": 2, "Colour": None, "cam": [1, 2]},
         "device entry has unknown fields: Colour, cam, zoom"),
    ])
    def test_unknown_key_is_refused_in_sorted_order(self, extra, message):
        # a misspelt field was dropped without a word
        with pytest.raises(RegistryError, match=f"^{message}$"):
            parse_device_specs(_one_device(**extra))

    def test_entry_that_is_no_object_is_refused(self):
        with pytest.raises(RegistryError, match="^device entry must be an object, got list$"):
            parse_device_specs("[[1, 2]]")

    def test_missing_fields_are_named_in_field_order(self):
        entry = json.loads(_one_device())[0]
        del entry["pixel_density"], entry["model_id"]
        with pytest.raises(RegistryError,
                           match="^device entry missing required fields: model_id, pixel_density$"):
            parse_device_specs(json.dumps([entry]))

    def test_integer_beyond_the_parser_limit_is_a_registry_error(self):
        # json.loads raises a plain ValueError for an integer of over 4,300 digits
        text = _one_device().replace('"screen_width_px": 720', '"screen_width_px": ' + "7" * 5000)
        with pytest.raises(RegistryError, match="^malformed catalog document: Exceeds the limit"):
            parse_device_specs(text)

    def test_readme_schema_example_loads(self):
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = text.split("## Device spec schema", 1)[1]
        (spec,) = parse_device_specs(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert spec.model_id == "J7-fixture" and spec.resolutions == {(1280, 720), (1920, 1080)}
        assert spec.capture_modes == {"video", "mono"}

    @settings(max_examples=examples(150), deadline=None)
    @given(text=mangled(CATALOG))
    def test_mangled_catalog_loads_typed_or_raises_registry_error(self, text):
        try:
            specs = parse_device_specs(text)
        except RegistryError:
            return
        for spec, entry in zip(specs, json.loads(text), strict=True):
            assert_read_as_written(spec, entry)

    def test_shipped_catalog_reads_its_numbers_as_before(self, registry):
        j7 = lookup(registry, "J7-fixture")
        assert (j7.screen_width_px, j7.screen_height_px) == (720, 1480)
        assert type(j7.screen_width_px) is int
        assert j7.frame_rates == {24.0, 30.0} and j7.resolutions == {(1280, 720), (1920, 1080)}
        assert all(type(v) is float for v in (*j7.frame_rates, *j7.camera_center, j7.body_width))

    def test_non_utf8_catalog_names_the_file(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_bytes(b'[{"model_id": "\xff"}]')
        with pytest.raises(RegistryError, match=f"{re.escape(str(path))}: not UTF-8 text"):
            load_registry(str(path))

    def test_empty_frame_rates_errors(self):
        with pytest.raises(RegistryError, match="non-empty"):
            parse_device_specs(_one_device(frame_rates=[]))

    def test_empty_resolutions_errors(self):
        with pytest.raises(RegistryError, match="non-empty"):
            parse_device_specs(_one_device(resolutions=[]))

    def test_missing_field_errors(self):
        entry = json.loads(_one_device())[0]
        del entry["pixel_density"]
        with pytest.raises(RegistryError, match="pixel_density"):
            parse_device_specs(json.dumps([entry]))

    def test_duplicate_model_id_errors(self):
        entry = json.loads(_one_device())[0]
        with pytest.raises(RegistryError, match="duplicate"):
            parse_device_specs(json.dumps([entry, entry]))

    def test_malformed_json_errors(self):
        with pytest.raises(RegistryError, match="malformed"):
            parse_device_specs("{not json")

    def test_non_array_document_errors(self):
        with pytest.raises(RegistryError, match="array"):
            parse_device_specs('{"model_id": "x"}')

    def test_metadata_key_ignored(self):
        specs = parse_device_specs(_one_device(metadata={"notes": "anything"}))
        assert specs[0].model_id == "unit-fixture"

    def test_packaged_catalog_passes_independent_validator(self, registry):
        for spec in registry:
            raw = json.loads(serialize_device_specs([spec]))[0]
            assert validate_spec_dict(raw) == []

    def test_round_trip_identity(self, registry):
        text = serialize_device_specs(registry)
        again = parse_device_specs(text)
        assert again == registry
        assert serialize_device_specs(again) == text


    def test_packaged_catalog_serializes_like_the_oracle(self, registry):
        assert serialize_device_specs(registry) == serialized_specs_oracle(registry)

    @settings(max_examples=examples(50), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 8))
    def test_random_catalogs_serialize_like_the_oracle(self, seed, count):
        rng = random.Random(seed)
        specs = [random_spec(rng, f"dev-{i}") for i in range(count)]
        assert serialize_device_specs(specs) == serialized_specs_oracle(specs)


# every field whose annotation holds a number, read from the dataclass itself
_NUMERIC_FIELDS = [f.name for f in dataclasses.fields(DeviceSpec)
                   if re.search(r"\b(int|float)\b", str(f.type))]


def _with_number(current, value, slot: int):
    """`current` with one number replaced by `value`; a set keeps one entry."""
    if isinstance(current, (int, float)):
        return value
    if isinstance(current, tuple):
        return tuple(value if i == slot else v for i, v in enumerate(current))
    return frozenset({_with_number(min(current), value, slot)})


class TestSpecSelfCheck:
    """A `DeviceSpec` made in code is held to the same rules as one read from JSON."""

    def test_numeric_fields_are_found(self):
        assert _NUMERIC_FIELDS == [
            "body_width", "body_length", "body_thickness", "camera_center",
            "screen_width_px", "screen_height_px", "pixel_density", "resolutions",
            "frame_rates",
        ]

    @pytest.mark.parametrize("field, bad", [
        ("screen_width_px", math.nan), ("screen_height_px", math.inf),
        ("resolutions", frozenset({(math.inf, 1080)})),
        ("resolutions", frozenset({(1920, math.nan)})),
    ])
    def test_non_finite_screen_and_resolution_rejected(self, j7, field, bad):
        # `<= 0` is false for nan, so these were accepted before
        with pytest.raises(RegistryError, match=f"^J7-fixture: {field} must be positive"):
            dataclasses.replace(j7, **{field: bad})

    @pytest.mark.parametrize("field", ["body_width", "screen_width_px", "screen_height_px",
                                       "pixel_density", "resolutions", "frame_rates"])
    def test_integer_too_big_for_a_float_rejected(self, j7, field):
        # 0 < 10**400 < inf holds, but float() of it raises OverflowError, which
        # escaped later from grid_overlay as a traceback
        bad = _with_number(getattr(j7, field), 10**400, 0)
        with pytest.raises(RegistryError, match=f"^J7-fixture: {field} must be positive and fin"):
            dataclasses.replace(j7, **{field: bad})

    @settings(max_examples=examples(300), deadline=None)
    @given(
        field=st.sampled_from(_NUMERIC_FIELDS),
        slot=st.integers(0, 1),
        value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
        | st.floats(max_value=-_TINY),
    )
    def test_bad_number_names_model_and_field(self, j7, field, slot, value):
        bad = _with_number(getattr(j7, field), value, slot)
        with pytest.raises(RegistryError) as err:
            dataclasses.replace(j7, **{field: bad})
        assert str(err.value).startswith("J7-fixture: ")
        assert field in str(err.value)


class TestLookup:
    def test_known_id(self, registry):
        assert lookup(registry, "J7-fixture").body_width == 78.0

    def test_unknown_id_lists_catalog(self, registry):
        with pytest.raises(RegistryError, match="J7-fixture"):
            lookup(registry, "no-such-device")

    def test_order_independent(self, registry):
        for perm in itertools.permutations(registry):
            assert lookup(list(perm), "A5-fixture").model_id == "A5-fixture"


class TestNegotiate:
    def test_j7_a5_common_values(self, j7, a5):
        prof = negotiate(j7, a5)
        assert prof.frame_rate == 30.0
        assert prof.resolution == (1920, 1080)
        assert prof.focus_modes == frozenset({"auto"})
        assert prof.capture_modes == frozenset({"video"})

    def test_disjoint_sets_take_lower_of_maxima(self, j7):
        a = dataclasses.replace(
            j7, frame_rates=frozenset({30.0}), resolutions=frozenset({(1920, 1080)})
        )
        b = dataclasses.replace(
            j7, frame_rates=frozenset({60.0}), resolutions=frozenset({(3840, 2160)})
        )
        prof = negotiate(a, b)
        assert prof.frame_rate == 30.0
        assert prof.resolution == (1920, 1080)

    def test_common_maximum_wins(self, j7):
        a = dataclasses.replace(j7, frame_rates=frozenset({24.0, 30.0}))
        b = dataclasses.replace(j7, frame_rates=frozenset({30.0, 60.0}))
        assert negotiate(a, b).frame_rate == 30.0

    def test_self_negotiation_is_own_maxima(self, a5):
        prof = negotiate(a5, a5)
        assert prof.frame_rate == max(a5.frame_rates)
        assert prof.resolution == (3840, 2160)
        assert prof.focus_modes == a5.focus_modes
        assert prof.capture_modes == a5.capture_modes

    def test_mode_intersections_may_be_empty(self, j7):
        a = dataclasses.replace(j7, focus_modes=frozenset({"macro"}))
        b = dataclasses.replace(j7, focus_modes=frozenset({"infinity"}))
        prof = negotiate(a, b)
        assert prof.focus_modes == frozenset()

    def test_resolution_tie_broken_by_width(self, j7):
        wide = (2560, 810)   # same pixel count as (1920, 1080)
        tall = (1920, 1080)
        a = dataclasses.replace(j7, resolutions=frozenset({wide, tall}))
        prof = negotiate(a, a)
        assert prof.resolution == wide

    def test_random_pairs_match_brute_force(self, j7):
        rng = random.Random(2024)
        for i in range(300):
            a = random_spec(rng, f"ra-{i}")
            b = random_spec(rng, f"rb-{i}")
            prof = negotiate(a, b)
            fps, res = negotiate_oracle(a, b)
            assert prof.frame_rate == fps
            assert prof.resolution == res
            assert prof.focus_modes == a.focus_modes & b.focus_modes
            assert prof.capture_modes == a.capture_modes & b.capture_modes
            # commutativity + the membership invariant
            assert negotiate(b, a) == prof
            if prof.frame_rate in a.frame_rates and prof.frame_rate in b.frame_rates:
                pass
            else:
                assert not (a.frame_rates & b.frame_rates)

    @pytest.mark.parametrize("resolution, frame_rate, message", [
        # at 1e305 fps, run_frame_sync's tick count over a 1e10 ms duration overflowed
        ((1280, 720), 1e305, "frame_rate must be at most 1000 fps, got 1e+305"),
        ((1280, 720), 0.0, "frame_rate must be positive and finite, got 0.0"),
        ((1280, 720), math.nan, "frame_rate must be positive and finite, got nan"),
        ((100001, 720), 30.0, "resolution must be at most 100000 px, got 100001"),
        ((1280, 0), 30.0, "resolution must be positive and finite, got 0"),
    ], ids=["1e305-fps", "0-fps", "nan-fps", "100001-px", "0-px"])
    def test_profile_past_its_ranges_names_the_field(self, resolution, frame_rate, message):
        with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
            CapabilityProfile(resolution, frame_rate)

    def test_profile_is_a_plain_value(self):
        p = CapabilityProfile(resolution=(1, 1), frame_rate=1.0)
        assert p == CapabilityProfile(resolution=(1, 1), frame_rate=1.0)


def test_spec_is_immutable(j7):
    with pytest.raises(dataclasses.FrozenInstanceError):
        j7.body_width = 1.0


def test_random_specs_validate(j7):
    rng = random.Random(7)
    for i in range(100):
        spec = random_spec(rng, f"gen-{i}")
        assert isinstance(spec, DeviceSpec)
