"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 domain error (infeasible layout, misaligned
final reading, failed run), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

# Each _cmd_* imports the modules it uses, so a run compiles only those and
# only `merge --mode anaglyph` loads numpy; the parser needs only the package.
from . import (
    DEFAULT_CARDBOARD_MM,
    DEFAULT_GRID_PITCH_MM,
    DEFAULT_GYRO_TOLERANCE_DPS,
    DEFAULT_IPD_MM,
    DEFAULT_MAG_TOLERANCE_UT,
    DEFAULT_STRAP_WIDTH_MM,
    DEFAULT_VELCRO_MM,
)


def _devices(args, *models: str) -> list:
    """Look up each model in the --specs registry, or in the built-in one."""
    import importlib.resources

    from .registry import load_registry, lookup, parse_device_specs

    if args.specs:
        specs = load_registry(args.specs)
    else:
        data = importlib.resources.files("stereorig.data").joinpath("devices.json")
        specs = parse_device_specs(data.read_text(encoding="utf-8"))
    return [lookup(specs, model) for model in models]


def _layout_from_args(args):
    from .alignment import LayoutConfig

    stack = {"depth": "depth-stacked"}.get(args.stack, args.stack)
    return LayoutConfig(
        axis=args.layout,
        stacking=stack,
        orientation=args.orientation,
        rotation_b=args.rotate_b,
    )


def _add_layout_flags(p: argparse.ArgumentParser, default_stack: str) -> None:
    p.add_argument("--layout", choices=("horizontal", "vertical"), default="vertical")
    p.add_argument(
        "--stack",
        choices=("coplanar", "depth-stacked", "depth"),
        default=default_stack,
    )
    p.add_argument("--orientation", choices=("portrait", "landscape"), default="portrait")
    p.add_argument("--rotate-b", type=int, choices=(0, 90, 180, 270), default=180)


def _add_specs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--specs", metavar="FILE", help="device registry JSON (default: built-in)")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_specs(p)
    p.add_argument("--ipd", type=float, default=DEFAULT_IPD_MM, metavar="MM")


def _cmd_base_model(args) -> int:
    from . import alignment

    a, b = _devices(args, args.a, args.b)
    model = alignment.compute_base_model(a, b, _layout_from_args(args), ipd=args.ipd)
    sys.stdout.write(alignment.model_to_json(model))
    return 0


def _cmd_gen_template(args) -> int:
    from . import alignment, svgio, templates, write_text

    (spec,) = _devices(args, args.device)
    # every mode checks every material flag, also one it does not draw
    materials = templates.Materials(args.velcro, args.cardboard, args.strap_width, args.fillet)
    if args.mode == "two":
        base = alignment.compute_base_model(spec, spec, _layout_from_args(args), ipd=args.ipd)
        layout = templates.two_phone_layout(spec, base, materials)
    elif args.mode == "three":
        layout = templates.three_phone_layout(spec, ipd=args.ipd)
    else:
        layout = templates.mirror_rig_layout(spec, args.ipd, materials)
    write_text(args.output, svgio.render_svg(layout))
    sys.stderr.write(f"wrote {args.output}\n")
    return 0


def _cmd_align_check(args) -> int:
    from . import guidance

    pairs = guidance.load_reading_pairs(args.readings)
    status = None
    for i, (a, b) in enumerate(pairs):
        status = guidance.check_alignment(
            a, b, mag_tolerance=args.mag_tol, gyro_tolerance=args.gyro_tol
        )
        texts = guidance.instructions(status)
        tag = "aligned" if status.aligned else "misaligned"
        print(f"[{i}] {tag}: " + "; ".join(texts))
    return 0 if status is not None and status.aligned else 1


def _cmd_grid_overlay(args) -> int:
    from . import alignment, dump_json, guidance, write_text

    (spec,) = _devices(args, args.device)
    base = alignment.compute_base_model(spec, spec, _layout_from_args(args), ipd=args.ipd)
    overlay = guidance.grid_overlay(base, spec, pitch_mm=args.pitch)
    # both texts first, and the file before stdout, so that a failure prints nothing
    text = dump_json(guidance.overlay_to_dict(overlay))
    if args.svg:
        write_text(args.svg, guidance.overlay_to_svg(overlay))
        sys.stderr.write(f"wrote {args.svg}\n")
    sys.stdout.write(text)
    return 0


def _cmd_simulate_sync(args) -> int:
    from . import syncproto

    a, b = _devices(args, args.a, args.b)
    transport = syncproto.SimulatedTransport(
        base_latency=args.latency, jitter=args.jitter, loss_rate=args.loss
    )
    run = syncproto.run_session(
        a, b, transport, seed=args.seed, clock_offsets=(args.offset_a, args.offset_b),
        capture_delay=args.capture, duration=args.duration,
    )
    end = run.final
    sys.stdout.write(syncproto.transcript_text(run.transcript))
    print(f"final: A={end.state_a.phase.value} B={end.state_b.phase.value}")
    if run.capture and run.capture.skew is not None:
        print(f"capture start skew: {run.capture.skew:.3f} ms")
    return 1 if syncproto.Phase.FAILED in (end.state_a.phase, end.state_b.phase) else 0


def _cmd_merge(args) -> int:
    # MergeError and PpmError are ValueErrors, caught by main()
    from . import merge

    left = merge.scan_stream(args.left)
    right = merge.scan_stream(args.right)
    result = merge.pair_frames(left, right, args.tol)
    merge.write_merged(result.pairs, args.mode, args.output)
    print(
        f"paired {len(result.pairs)} frames "
        f"(dropped {len(result.dropped_left)} left, {len(result.dropped_right)} right) "
        f"-> {args.output}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """An `ArgumentParser` whose one-value options take a separate `-inf`, `-nan` or `-1e999`.

    argparse reads an argument that starts with `-` as an option unless it
    looks like `-1` or `-.5`, so `--tol -inf` would be a usage error while
    `--tol=-inf` reaches the range check, and `-o -inf` would name no file
    while `-o -1.5` names one.  A value that `float` reads, after an option
    that takes exactly one value, named in full or by a unique `--` prefix,
    is joined to it with `=`; every other argument is parsed as it was.
    """

    def __init__(self, *args, **kwargs):
        self.one_value = {}  # every option string of this parser: does it take exactly one value?
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.one_value.update(dict.fromkeys(action.option_strings, action.nargs is None))
        return action

    def _takes_one_value(self, arg: str) -> bool:
        names = [arg] if arg in self.one_value else [
            name for name in self.one_value if arg.startswith("--") and name.startswith(arg)]
        return len(names) == 1 and self.one_value[names[0]]

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        i = 0
        while i < len(args) - 1 and args[i] != "--":
            if self._takes_one_value(args[i]) and args[i + 1].startswith("-"):
                with contextlib.suppress(ValueError):
                    float(args[i + 1])
                    args[i : i + 2] = [f"{args[i]}={args[i + 1]}"]
            i += 1
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stereorig",
        description="Phone stereo-rig tools: placement, templates, guidance, sync, merge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("base-model", help="solve device B's placement and print it as JSON")
    _add_common(p)
    p.add_argument("--a", required=True, metavar="MODEL")
    p.add_argument("--b", required=True, metavar="MODEL")
    _add_layout_flags(p, default_stack="coplanar")
    p.set_defaults(func=_cmd_base_model)

    p = sub.add_parser("gen-template", help="write a printable SVG template")
    _add_common(p)
    p.add_argument("--mode", choices=("two", "three", "mirror"), required=True)
    p.add_argument("--device", required=True, metavar="MODEL")
    p.add_argument("--velcro", type=float, default=DEFAULT_VELCRO_MM, metavar="MM")
    p.add_argument("--cardboard", type=float, default=DEFAULT_CARDBOARD_MM, metavar="MM")
    p.add_argument("--strap-width", type=float, default=DEFAULT_STRAP_WIDTH_MM, metavar="MM")
    p.add_argument("--fillet", type=float, default=0.0, metavar="MM")
    _add_layout_flags(p, default_stack="coplanar")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_gen_template)

    p = sub.add_parser("align-check", help="judge sensor reading pairs from a fixture file")
    p.add_argument("--readings", required=True, metavar="FILE")
    p.add_argument("--mag-tol", type=float, default=DEFAULT_MAG_TOLERANCE_UT, metavar="UT")
    p.add_argument("--gyro-tol", type=float, default=DEFAULT_GYRO_TOLERANCE_DPS, metavar="DPS")
    p.set_defaults(func=_cmd_align_check)

    p = sub.add_parser("grid-overlay", help="project a depth-stacked base onto the screen")
    _add_common(p)
    p.add_argument("--device", required=True, metavar="MODEL")
    _add_layout_flags(p, default_stack="depth-stacked")
    p.add_argument("--pitch", type=float, default=DEFAULT_GRID_PITCH_MM, metavar="MM")
    p.add_argument("--svg", metavar="FILE", help="also write a debug SVG")
    p.set_defaults(func=_cmd_grid_overlay)

    p = sub.add_parser("simulate-sync", help="run the pairing/capture protocol simulation")
    _add_specs(p)
    p.add_argument("--a", default="J7-fixture", metavar="MODEL")
    p.add_argument("--b", default="A5-fixture", metavar="MODEL")
    p.add_argument("--latency", type=float, default=10.0, metavar="MS")
    p.add_argument("--jitter", type=float, default=0.0, metavar="MS")
    p.add_argument("--loss", type=float, default=0.0, metavar="P")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capture", type=float, metavar="MS", help="propose capture after this delay")
    p.add_argument("--duration", type=float, default=0.0, metavar="MS", help="frame-sync length")
    p.add_argument("--offset-a", type=float, default=0.0, metavar="MS")
    p.add_argument("--offset-b", type=float, default=0.0, metavar="MS")
    p.set_defaults(func=_cmd_simulate_sync)

    p = sub.add_parser("merge", help="pair two PPM streams and write merged frames")
    p.add_argument("--left", required=True, metavar="MANIFEST")
    p.add_argument("--right", required=True, metavar="MANIFEST")
    p.add_argument("--mode", choices=("sbs", "anaglyph"), required=True)
    p.add_argument("--tol", type=float, default=20.0, metavar="MS")
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_merge)

    return parser


# every domain error (RegistryError, TemplateError, MergeError, ...) subclasses ValueError
_DOMAIN_ERRORS = (OSError, ValueError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
