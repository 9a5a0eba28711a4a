from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig import alignment, svgio
from stereorig.cli import build_parser, main
from stereorig.merge import load_stream, merge_pairs, pair_frames
from stereorig.ppmio import read_ppm, write_manifest, write_ppm

from oracles import sbs_oracle


def _write_stream(dirpath, name, times, fill):
    frames_dir = dirpath / name
    frames_dir.mkdir()
    entries = []
    for i, t in enumerate(times):
        p = frames_dir / f"{i}.ppm"
        write_ppm(str(p), np.full((4, 4, 3), fill, dtype=np.uint8))
        entries.append((t, str(p)))
    manifest = dirpath / f"{name}.txt"
    write_manifest(str(manifest), entries)
    return str(manifest)


class TestUsageErrors:
    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture",
                     "--sideways"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "base-model" in capsys.readouterr().out


GOLDEN_DIR = Path(__file__).parent / "golden"
HELP_DIR = GOLDEN_DIR / "help"
SUBCOMMANDS = ("base-model", "gen-template", "align-check", "grid-overlay",
               "simulate-sync", "merge")


class TestHelpText:
    """`--help` output and parser defaults, frozen: moving a default must not change it."""

    @pytest.mark.parametrize("command", ("",) + SUBCOMMANDS)
    def test_help_matches_frozen_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        assert main([command, "--help"] if command else ["--help"]) == 0
        want = (HELP_DIR / f"{command or 'stereorig'}.txt").read_text()
        assert capsys.readouterr().out == want

    # argparse's help shows no defaults, so they are pinned here
    DEFAULTS = {
        "base-model": ({"specs": None, "ipd": 65.0, "layout": "vertical", "stack": "coplanar",
                        "orientation": "portrait", "rotate_b": 180}, ["--a", "X", "--b", "Y"]),
        "gen-template": ({"specs": None, "ipd": 65.0, "velcro": 20.0, "cardboard": 2.0,
                          "strap_width": 20.0, "fillet": 0.0, "layout": "vertical",
                          "stack": "coplanar", "orientation": "portrait", "rotate_b": 180},
                         ["--mode", "two", "--device", "X", "-o", "f"]),
        "align-check": ({"mag_tol": 5.0, "gyro_tol": 2.0}, ["--readings", "r"]),
        "grid-overlay": ({"specs": None, "ipd": 65.0, "layout": "vertical",
                          "stack": "depth-stacked", "orientation": "portrait", "rotate_b": 180,
                          "pitch": 10.0, "svg": None}, ["--device", "X"]),
        "simulate-sync": ({"specs": None, "a": "J7-fixture", "b": "A5-fixture",
                           "latency": 10.0, "jitter": 0.0, "loss": 0.0, "seed": 0,
                           "capture": None, "duration": 0.0, "offset_a": 0.0,
                           "offset_b": 0.0}, []),
        "merge": ({"tol": 20.0}, ["--left", "l", "--right", "r", "--mode", "sbs", "-o", "d"]),
    }

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_parser_defaults(self, command):
        want, required = self.DEFAULTS[command]
        args = vars(build_parser().parse_args([command, *required]))
        assert {k: args[k] for k in want} == want
        assert [type(args[k]) for k in want] == [type(v) for v in want.values()]


class TestGoldenOutput:
    """Output frozen byte for byte: rig JSON and sync transcripts on stdout, and the SVGs."""

    J7 = ("--device", "J7-fixture")
    STDOUT = {
        "base_model_default.json": ["base-model", "--a", "J7-fixture", "--b", "J7-fixture"],
        "base_model_landscape_depth.json": [
            "base-model", "--a", "J7-fixture", "--b", "J7-fixture", "--layout", "horizontal",
            "--stack", "depth", "--orientation", "landscape", "--rotate-b", "90",
            "--ipd", "71.2345"],
        "grid_overlay_pitch.json": ["grid-overlay", *J7, "--pitch", "3.14159"],
        # the README example, and a lossy run that stops after pairing
        "simulate_sync_readme.txt": [
            "simulate-sync", "--a", "J7-fixture", "--b", "A5-fixture", "--latency", "10",
            "--jitter", "5", "--loss", "0.1", "--seed", "42", "--capture", "50",
            "--duration", "1000", "--offset-a", "3", "--offset-b", "-4"],
        "simulate_sync_pairing.txt": [
            "simulate-sync", "--latency", "10", "--jitter", "5", "--loss", "0.3", "--seed", "3"],
    }

    @pytest.mark.parametrize("name", sorted(STDOUT))
    def test_stdout_matches_frozen_file(self, capsys, name):
        assert main(self.STDOUT[name]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("mode, name", [("two", "j7_two_phone.svg"),
                                            ("three", "j7_three_phone.svg"),
                                            ("mirror", "j7_mirror.svg")])
    def test_template_matches_frozen_file(self, capsys, tmp_path, mode, name):
        out = tmp_path / "t.svg"
        assert main(["gen-template", "--mode", mode, *self.J7, "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestBaseModel:
    def test_success_prints_model_json(self, capsys, registry, j7):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture"])
        out = capsys.readouterr().out
        assert rc == 0
        parsed = json.loads(out)
        ax, ay = parsed["camera_a"]
        bx, by = parsed["camera_b_target"]
        assert ((bx - ax) ** 2 + (by - ay) ** 2) ** 0.5 == pytest.approx(65.0, abs=1e-6)

        # thin adapter: byte-identical to calling the module directly
        layout = alignment.LayoutConfig(axis="vertical", stacking="coplanar",
                                        rotation_b=180)
        model = alignment.compute_base_model(j7, j7, layout)
        assert out == alignment.model_to_json(model)

    def test_infeasible_reports_min_separation(self, capsys):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture",
                   "--layout", "horizontal", "--stack", "coplanar",
                   "--rotate-b", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "78.0" in captured.err

    def test_unknown_device_exits_1(self, capsys):
        rc = main(["base-model", "--a", "Nokia-3310", "--b", "J7-fixture"])
        assert rc == 1
        assert "Nokia-3310" in capsys.readouterr().err

    def test_custom_registry_file(self, capsys, tmp_path, registry):
        from stereorig.registry import serialize_device_specs
        custom = tmp_path / "devices.json"
        custom.write_text(serialize_device_specs(registry))
        rc = main(["base-model", "--specs", str(custom),
                   "--a", "J7-fixture", "--b", "A5-fixture"])
        assert rc == 0

    @pytest.mark.parametrize("ipd", ["inf", "nan"])
    def test_non_finite_ipd_exits_1_with_empty_stdout(self, capsys, ipd):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture", "--ipd", ipd])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"ipd must be positive and finite, got {ipd}" in captured.err

    def test_depth_stack_flag_alias(self, capsys):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture",
                   "--stack", "depth", "--rotate-b", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["layout"]["stacking"] == "depth-stacked"


class TestGenTemplate:
    @pytest.mark.parametrize("mode", ["two", "three", "mirror"])
    def test_writes_parseable_svg(self, capsys, tmp_path, mode):
        out = tmp_path / f"{mode}.svg"
        rc = main(["gen-template", "--mode", mode, "--device", "J7-fixture",
                   "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"wrote {out}" in captured.err
        text = out.read_text()
        assert text.startswith("<svg")
        layout = svgio.parse_svg(text)
        assert svgio.render_svg(layout) == text

    @pytest.mark.parametrize("mode", ["three", "mirror"])
    @pytest.mark.parametrize("ipd, message", [
        ("nan", "ipd must be positive and finite, got nan"),
        ("inf", "ipd must be positive and finite, got inf"),
        ("-inf", "ipd must be positive and finite, got -inf"),
    ])
    def test_non_finite_ipd_exits_1_without_output(self, capsys, tmp_path, mode, ipd, message):
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", mode, "--device", "J7-fixture",
                   f"--ipd={ipd}", "-o", str(out)])  # a separate `-inf` reads as an option
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, flag, message", [
        ("two", "--velcro=inf", "velcro length must be positive and finite, got inf"),
        ("two", "--velcro=nan", "velcro length must be positive and finite, got nan"),
        ("two", "--cardboard=inf", "cardboard thickness must be positive and finite, got inf"),
        ("two", "--strap-width=nan", "strap width must be positive and finite, got nan"),
        ("two", "--strap-width=inf", "strap width must be positive and finite, got inf"),
        ("two", "--strap-width=-5", "strap width must be positive and finite, got -5.0"),
        ("two", "--fillet=-inf", "fillet radius must be finite and non-negative, got -inf"),
        ("mirror", "--fillet=nan", "fillet radius must be finite and non-negative, got nan"),
        ("mirror", "--fillet=inf", "fillet radius must be finite and non-negative, got inf"),
        ("mirror", "--fillet=-5", "fillet radius must be finite and non-negative, got -5.0"),
        # modes that do not draw a quantity still check its flag
        ("three", "--velcro=inf", "velcro length must be positive and finite, got inf"),
        ("three", "--cardboard=nan", "cardboard thickness must be positive and finite, got nan"),
        ("three", "--strap-width=0", "strap width must be positive and finite, got 0.0"),
        ("three", "--fillet=nan", "fillet radius must be finite and non-negative, got nan"),
        ("mirror", "--velcro=-1", "velcro length must be positive and finite, got -1.0"),
        ("mirror", "--cardboard=inf", "cardboard thickness must be positive and finite, got inf"),
        ("mirror", "--strap-width=nan", "strap width must be positive and finite, got nan"),
    ])
    def test_bad_material_value_exits_1_without_output(self, capsys, tmp_path, mode, flag,
                                                       message):
        # all but --velcro=nan wrote an SVG with `infmm`, `rx="inf"` or nan sizes before, and
        # modes three and mirror wrote one for every flag they do not draw
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", mode, "--device", "J7-fixture", flag,
                   "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_infeasible_layout_exits_1(self, capsys, tmp_path):
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", "two", "--device", "J7-fixture",
                   "--layout", "horizontal", "--rotate-b", "0", "-o", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_repeat_run_is_byte_identical(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"r{i}.svg"
            assert main(["gen-template", "--mode", "two", "--device",
                         "J7-fixture", "-o", str(p)]) == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAlignCheck:
    def _fixture(self, tmp_path, pairs):
        p = tmp_path / "readings.json"
        p.write_text(json.dumps(pairs))
        return str(p)

    @staticmethod
    def _entry(mag_a, mag_b, ts=0.0):
        zero = [0.0, 0.0, 0.0]
        return {
            "a": {"magnetometer": mag_a, "gyroscope": zero, "timestamp_ms": ts},
            "b": {"magnetometer": mag_b, "gyroscope": zero, "timestamp_ms": ts},
        }

    def test_converging_run_exits_0(self, capsys, tmp_path):
        path = self._fixture(tmp_path, [
            self._entry([30.0, 0.0, -20.0], [30.0, 0.0, -8.0], 0),
            self._entry([30.0, 0.0, -20.0], [30.0, 0.0, -19.0], 100),
        ])
        rc = main(["align-check", "--readings", path])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("[0] misaligned: move second device")
        assert out[1] == "[1] aligned: aligned"

    def test_misaligned_final_pair_exits_1(self, capsys, tmp_path):
        path = self._fixture(tmp_path, [
            self._entry([30.0, 0.0, 0.0], [40.0, 0.0, 0.0]),
        ])
        rc = main(["align-check", "--readings", path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[0] misaligned:" in out
        assert "+x" in out

    def test_custom_tolerance_changes_verdict(self, capsys, tmp_path):
        path = self._fixture(tmp_path, [
            self._entry([30.0, 0.0, 0.0], [22.0, 0.0, 0.0]),
        ])
        assert main(["align-check", "--readings", path]) == 1
        assert main(["align-check", "--readings", path, "--mag-tol", "10"]) == 0

    def test_nan_tolerances_exit_1(self, capsys, tmp_path):
        # 50 uT and 90 deg/s apart: a nan tolerance used to report "aligned", exit 0
        entry = self._entry([30.0, 0.0, -20.0], [80.0, 0.0, -20.0])
        entry["b"]["gyroscope"] = [90.0, 0.0, 0.0]
        path = self._fixture(tmp_path, [entry])
        rc = main(["align-check", "--readings", path, "--mag-tol", "nan", "--gyro-tol", "nan"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: mag_tolerance must be finite and non-negative, got nan" in captured.err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        assert main(["align-check", "--readings", str(tmp_path / "nope.json")]) == 1


class TestGridOverlay:
    def test_prints_overlay_json(self, capsys):
        rc = main(["grid-overlay", "--device", "J7-fixture"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["screen_px"] == [720, 1480]
        assert data["target_marker"] == [390.0, 750.0]
        assert data["target_marker_px"] == [390, 750]

    def test_writes_debug_svg(self, capsys, tmp_path):
        svg = tmp_path / "grid.svg"
        rc = main(["grid-overlay", "--device", "J7-fixture", "--svg", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("flag, message", [
        ("--ipd", "ipd must be positive and finite, got inf"),
        ("--pitch", "grid pitch must be positive and finite, got inf"),
    ])
    def test_infinite_value_exits_1_with_empty_stdout(self, capsys, tmp_path, flag, message):
        svg = tmp_path / "grid.svg"
        rc = main(["grid-overlay", "--device", "J7-fixture", flag, "inf", "--svg", str(svg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert message in captured.err
        assert not svg.exists()

    def test_infinite_pixel_density_in_registry_exits_1(self, capsys, tmp_path, j7):
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7]))
        doc[0]["pixel_density"] = float("inf")
        specs = tmp_path / "devices.json"
        specs.write_text(json.dumps(doc))  # writes Infinity
        rc = main(["grid-overlay", "--specs", str(specs), "--device", "J7-fixture"])
        captured = capsys.readouterr()
        assert rc == 1  # an OverflowError traceback before
        assert captured.out == ""
        assert "error: J7-fixture: pixel_density must be positive and finite" in captured.err

    def test_huge_pixel_density_in_registry_exits_1(self, capsys, tmp_path, j7):
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7]))
        doc[0]["pixel_density"] = 1e308  # finite, but the target marker overflows
        specs = tmp_path / "devices.json"
        specs.write_text(json.dumps(doc))
        rc = main(["grid-overlay", "--specs", str(specs), "--device", "J7-fixture"])
        captured = capsys.readouterr()
        assert rc == 1  # an OverflowError traceback before
        assert captured.out == ""
        assert captured.err.startswith("error: J7-fixture: pixel_density 1e+308 ")
        assert "Traceback" not in captured.err

    def test_pitch_under_one_pixel_exits_1(self, capsys, tmp_path):
        # 0.001 mm on 10 px/mm printed 2.6 MB of grid lines; 1e-9 would ask for 1e11
        svg = tmp_path / "grid.svg"
        for pitch in ("0.001", "1e-9"):
            rc = main(["grid-overlay", "--device", "J7-fixture", "--pitch", pitch,
                       "--svg", str(svg)])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err == (
                f"error: grid pitch {float(pitch)} mm is under one pixel on J7-fixture "
                f"(10.0 px/mm)\n"
            )
            assert not svg.exists()
        assert main(["grid-overlay", "--device", "J7-fixture", "--pitch", "0.1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["vertical_lines"]) == 720

    def test_coplanar_stack_exits_1(self, capsys):
        rc = main(["grid-overlay", "--device", "J7-fixture", "--stack", "coplanar"])
        assert rc == 1
        assert "depth-stacked" in capsys.readouterr().err


class TestSimulateSync:
    def test_full_chain_lossless(self, capsys):
        rc = main(["simulate-sync", "--capture", "50", "--duration", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final: A=done B=done" in out
        assert "capture start skew: 0.000 ms" in out
        assert "pair_request" in out
        assert "frame_tick" in out

    def test_pairing_only_reaches_configured(self, capsys):
        rc = main(["simulate-sync"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final: A=configured B=configured" in out
        assert "capture start skew" not in out

    def test_total_loss_exits_1(self, capsys):
        rc = main(["simulate-sync", "--loss", "1.0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "final: A=failed B=failed" in out
        assert "give_up" in out

    def test_clock_offsets_reported_in_skew(self, capsys):
        rc = main(["simulate-sync", "--capture", "50",
                   "--offset-a", "3", "--offset-b", "-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "capture start skew: 7.000 ms" in out

    def test_same_seed_same_transcript(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["simulate-sync", "--jitter", "5", "--seed", "42",
                         "--capture", "60", "--duration", "500"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_invalid_loss_rate_exits_1(self, capsys):
        assert main(["simulate-sync", "--loss", "1.5"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--latency=nan"], "latency must be finite and non-negative, got nan"),
        (["--jitter=inf"], "jitter must be finite and non-negative, got inf"),
        (["--offset-a=nan"], "clock offsets must be finite"),
        (["--capture=50", "--offset-b=-inf"], "clock offsets must be finite"),
        (["--capture=nan"], "capture delay must be finite, got nan"),
        (["--capture=inf"], "capture delay must be finite, got inf"),
        (["--capture=50", "--duration=nan"], "duration must be finite, got nan"),
        (["--capture=50", "--duration=inf"], "duration must be finite, got inf"),
        # checked before pairing, though no stage would use them
        (["--duration=nan"], "duration must be finite, got nan"),
        (["--loss=1.0", "--capture=nan"], "capture delay must be finite, got nan"),
    ])
    def test_non_finite_value_exits_1_with_empty_stdout(self, capsys, flags, message):
        rc = main(["simulate-sync", *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    def test_ipd_is_a_usage_error(self, capsys):
        assert main(["simulate-sync", "--ipd", "60"]) == 2
        assert "unrecognized arguments: --ipd" in capsys.readouterr().err


class TestMerge:
    def test_anaglyph_pipeline_writes_frames(self, capsys, tmp_path):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "anaglyph", "--tol", "10", "-o", str(outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"paired 3 frames (dropped 0 left, 0 right) -> {outdir}" in out
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["anaglyph_0000.ppm", "anaglyph_0001.ppm",
                         "anaglyph_0002.ppm", "pairs.txt"]
        pixels = read_ppm(str(outdir / "anaglyph_0000.ppm"))
        assert (pixels == np.array([0, 0, 255], dtype=np.uint8)).all()

    def test_sbs_pipeline_doubles_width(self, capsys, tmp_path):
        left = _write_stream(tmp_path, "left", [0.0], 7)
        right = _write_stream(tmp_path, "right", [1.0], 9)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", "-o", str(outdir)])
        assert rc == 0
        assert read_ppm(str(outdir / "sbs_0000.ppm")).shape == (4, 8, 3)

    def test_drops_reported(self, capsys, tmp_path):
        left = _write_stream(tmp_path, "left", [0.0, 500.0], 1)
        right = _write_stream(tmp_path, "right", [2.0], 2)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", "--tol", "10", "-o", str(outdir)])
        assert rc == 0
        assert "paired 1 frames (dropped 1 left, 0 right)" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_1_without_output(self, capsys, tmp_path, tol):
        # a tolerance that every comparison passes paired these far-apart frames
        left = _write_stream(tmp_path, "left", [0.0, 1000.0], 1)
        right = _write_stream(tmp_path, "right", [500.0, 5000.0], 2)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", f"--tol={tol}", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: tolerance must be " in captured.err
        assert f"got {float(tol)}" in captured.err
        assert not outdir.exists()

    def test_missing_manifest_exits_1(self, capsys, tmp_path):
        rc = main(["merge", "--left", str(tmp_path / "no.txt"),
                   "--right", str(tmp_path / "no2.txt"),
                   "--mode", "sbs", "-o", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_timestamp_exits_1_without_output(self, capsys, tmp_path):
        for name, times in (("left", ("0.0", "nan")), ("right", ("0.0", "33.0"))):
            manifest = tmp_path / f"{name}.txt"
            _write_stream(tmp_path, name, [0.0, 33.0], 1)
            manifest.write_text("".join(f"{t} {name}/{i}.ppm\n" for i, t in enumerate(times)))
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", str(tmp_path / "left.txt"),
                   "--right", str(tmp_path / "right.txt"),
                   "--mode", "sbs", "--tol", "10", "-o", str(outdir)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("where", ["write", "replace"])
    def test_failed_manifest_write_leaves_no_pairs_txt(
            self, capsys, tmp_path, manifest_fault, where):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        outdir = tmp_path / "out"
        manifest_fault(where)
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "anaglyph", "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno")
        # neither pairs.txt nor its temporary file
        assert not list(outdir.glob("pairs.txt*"))

    # each case rewrites the last frame of a 3-pair stream, or adds a dropped one
    BAD_LAST_FRAME = {
        "other dimensions": ("right/2.ppm", b"P6\n5 4\n255\n" + b"\0" * 60, 1),
        "truncated raster": ("right/2.ppm", b"P6\n4 4\n255\n" + b"\0" * 47, 1),
        "bad magic": ("left/2.ppm", b"P5\n4 4\n255\n" + b"\0" * 16, 1),
        "dropped frame bad magic": ("left/3.ppm", b"P3\n4 4\n255\n", 1),
        "long comment": (
            "right/2.ppm",
            b"P6\n# " + b"c" * 100 + b"\n4 4\n255\n" + b"\0" * 48,
            0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LAST_FRAME))
    def test_bad_last_frame_leaves_no_output(self, capsys, tmp_path, case):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0, 500.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        rel, data, want_rc = self.BAD_LAST_FRAME[case]
        (tmp_path / rel).write_bytes(data)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "anaglyph", "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == want_rc
        if want_rc:
            assert "error:" in captured.err
            assert not outdir.exists()
        else:
            assert "paired 3 frames (dropped 1 left, 0 right)" in captured.out
            assert (read_ppm(str(outdir / "anaglyph_0002.ppm")) == [0, 0, 255]).all()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_streamed_frames_match_merge_pairs(self, capsys, tmp_path, mode):
        # three frame sizes, so the streaming buffers are replaced twice; the
        # 600-row frame has more sbs rows than one os.writev call may take
        rng = np.random.default_rng(41)
        sizes = [(4, 6), (4, 6), (3, 5), (3, 5), (3, 5), (600, 2)]
        manifests = {}
        for name, times in (("left", [0.0, 33.3, 66.7, 100.0, 133.3, 400.0]),
                            ("right", [2.0, 35.1, 64.9, 101.5, 300.0, 401.0])):
            (tmp_path / name).mkdir()
            entries = []
            for i, ((h, w), t) in enumerate(zip(sizes, times)):
                p = tmp_path / name / f"{i}.ppm"
                write_ppm(str(p), rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
                entries.append((t, str(p)))
            manifests[name] = str(tmp_path / f"{name}.txt")
            write_manifest(manifests[name], entries)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", manifests["left"], "--right", manifests["right"],
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        assert rc == 0
        assert "paired 5 frames (dropped 1 left, 1 right)" in capsys.readouterr().out

        result = pair_frames(load_stream(manifests["left"], "left"),
                             load_stream(manifests["right"], "right"), 10.0)
        frames = merge_pairs(result.pairs, mode)
        assert len(frames) == 5
        for i, frame in enumerate(frames):
            want = tmp_path / f"want_{i}.ppm"
            write_ppm(str(want), frame.pixels)
            assert (outdir / f"{mode}_{i:04d}.ppm").read_bytes() == want.read_bytes()


def _float_options() -> list[tuple[str, str]]:
    """(subcommand, option) for every float-typed option of the parser."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(
        (command, action.option_strings[-1])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type is float
    )


# every spelling reads as nan, inf or -inf through float()
_NON_FINITE = st.sampled_from(
    ["nan", "NaN", "-nan", "inf", "+inf", "Infinity", "1e999", "-inf", "-Infinity", "-1e999"]
)


class TestNonFiniteFlags:
    """Every float option, set to a non-finite value, fails the run and writes nothing."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        """A directory holding the inputs of a run of each subcommand that succeeds."""
        work = tmp_path_factory.mktemp("non_finite")
        _write_stream(work, "left", [0.0, 33.0], 1)
        _write_stream(work, "right", [2.0, 35.0], 2)
        zero = [0.0, 0.0, 0.0]
        (work / "readings.json").write_text(json.dumps(
            [{"a": {"magnetometer": zero, "gyroscope": zero},
              "b": {"magnetometer": zero, "gyroscope": zero}}]))
        return work

    @staticmethod
    def _runs(work: Path, out: Path, command: str) -> list[list[str]]:
        """Arguments of each run that reads its inputs from `work` and writes under `out`."""
        if command == "gen-template":  # every mode checks every material flag
            return [[command, "--mode", mode, "--device", "J7-fixture", "-o", str(out / "t.svg")]
                    for mode in ("two", "three", "mirror")]
        return [[command, *{
            "base-model": ["--a", "J7-fixture", "--b", "A5-fixture"],
            "align-check": ["--readings", str(work / "readings.json")],
            "grid-overlay": ["--device", "J7-fixture", "--svg", str(out / "grid.svg")],
            "simulate-sync": ["--capture", "50", "--duration", "100"],
            "merge": ["--left", str(work / "left.txt"), "--right", str(work / "right.txt"),
                      "--mode", "sbs", "-o", str(out / "out")],
        }[command]]]

    @pytest.mark.parametrize("command", sorted({c for c, _ in _float_options()}))
    def test_each_run_succeeds_with_its_defaults(self, work, tmp_path, command):
        for argv in self._runs(work, tmp_path, command):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert main(argv) == 0, argv

    @pytest.mark.parametrize("command, option", _float_options())
    @settings(max_examples=12, deadline=None)
    @given(value=_NON_FINITE)
    def test_non_finite_value_exits_1_with_no_output(self, work, command, option, value):
        before = sorted(os.listdir(work))
        for argv in self._runs(work, work, command):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([*argv, f"{option}={value}"])
            assert rc == 1, (argv, stderr.getvalue())
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("error: ")
            assert sorted(os.listdir(work)) == before


# a child that imports the CLI, runs one command and prints sys.modules as JSON
_MODULES_AT_EXIT = """\
import json, sys
from stereorig.cli import main
rc = main(sys.argv[1:])
print("\\nMODULES " + json.dumps(sorted(sys.modules)))
sys.exit(rc)
"""

_ONLY_MERGE_NEEDS = {"numpy"}
_NOTHING_NEEDS = {"xml.sax", "xml.sax.saxutils", "urllib.request", "http.client", "email"}


class TestImportFootprint:
    """Each subcommand loads its own modules and no others."""

    @pytest.fixture
    def modules_after(self, tmp_path, subprocess_env):
        def run(*argv: str, rc: int = 0) -> set[str]:
            res = subprocess.run([sys.executable, "-c", _MODULES_AT_EXIT, *argv],
                                 env=subprocess_env, cwd=tmp_path,
                                 capture_output=True, text=True)
            assert res.returncode == rc, res.stderr
            return set(json.loads(res.stdout.rsplit("\nMODULES ", 1)[1]))
        return run

    @staticmethod
    def _own(modules: set[str]) -> set[str]:
        return {m for m in modules if m.startswith("stereorig.")}

    def test_importing_the_cli_loads_no_submodule(self, modules_after):
        loaded = modules_after("--help")  # import, then build the parser
        assert self._own(loaded) == {"stereorig.cli"}
        assert not loaded & (_ONLY_MERGE_NEEDS | _NOTHING_NEEDS)

    def _merge(self, tmp_path, modules_after, mode: str) -> set[str]:
        left = _write_stream(tmp_path, "left", [0.0, 33.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0], 0)
        loaded = modules_after("merge", "--left", left, "--right", right,
                               "--mode", mode, "-o", str(tmp_path / "out"))
        assert (tmp_path / "out" / f"{mode}_0001.ppm").exists()
        assert not loaded & _NOTHING_NEEDS
        return loaded

    def test_merge_loads_only_the_merge_path(self, tmp_path, modules_after):
        # sbs only moves bytes: no kernel module and no numpy
        loaded = self._merge(tmp_path, modules_after, "sbs")
        assert self._own(loaded) == {"stereorig.cli", "stereorig.merge", "stereorig.ppmio"}
        assert not loaded & _ONLY_MERGE_NEEDS

    def test_anaglyph_merge_also_loads_the_kernels(self, tmp_path, modules_after):
        loaded = self._merge(tmp_path, modules_after, "anaglyph")
        assert self._own(loaded) == {
            "stereorig.cli", "stereorig.merge", "stereorig.ppmio", "stereorig._kernels"}
        assert "numpy" in loaded

    def test_sbs_merge_runs_without_numpy(self, tmp_path, subprocess_env):
        rng = np.random.default_rng(7)
        frames = {}
        for name, t in (("left", 0.0), ("right", 3.0)):
            (tmp_path / name).mkdir()
            frames[name] = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
            write_ppm(str(tmp_path / name / "0.ppm"), frames[name])
            write_manifest(str(tmp_path / f"{name}.txt"), [(t, str(tmp_path / name / "0.ppm"))])
        # a None entry makes every `import numpy` in the child raise ImportError
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from stereorig.cli import main; sys.exit(main(sys.argv[1:]))")
        res = subprocess.run(
            [sys.executable, "-c", code, "merge", "--left", "left.txt", "--right", "right.txt",
             "--mode", "sbs", "-o", "out"],
            env=subprocess_env, cwd=tmp_path, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        want = b"P6\n6 5\n255\n" + sbs_oracle(frames["left"], frames["right"]).tobytes()
        assert (tmp_path / "out" / "sbs_0000.ppm").read_bytes() == want

    RIG_COMMANDS = {
        "base-model": (["--a", "J7-fixture", "--b", "A5-fixture"],
                       {"registry", "data", "alignment"}),
        "gen-template": (["--mode", "two", "--device", "J7-fixture", "-o", "t.svg"],
                         {"registry", "data", "alignment", "templates", "svgio"}),
        "align-check": (["--readings", "readings.json"],
                        {"registry", "alignment", "guidance"}),
        "grid-overlay": (["--device", "J7-fixture", "--svg", "grid.svg"],
                         {"registry", "data", "alignment", "guidance"}),
        "simulate-sync": (["--capture", "50", "--duration", "100"],
                          {"registry", "data", "syncproto"}),
    }

    @pytest.mark.parametrize("command", sorted(RIG_COMMANDS))
    def test_rig_command_loads_only_its_modules(self, tmp_path, modules_after, command):
        (tmp_path / "readings.json").write_text(json.dumps([TestAlignCheck._entry(
            [30.0, 0.0, -20.0], [30.0, 0.0, -20.0])]))
        args, own = self.RIG_COMMANDS[command]
        loaded = modules_after(command, *args)
        assert self._own(loaded) == {"stereorig.cli"} | {f"stereorig.{m}" for m in own}
        assert not loaded & (_ONLY_MERGE_NEEDS | _NOTHING_NEEDS)
