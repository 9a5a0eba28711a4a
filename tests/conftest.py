from __future__ import annotations

import errno
import os
import sys
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import profiles  # registers the hypothesis profiles and loads `tier1`
import stereorig
from stereorig.registry import lookup, parse_device_specs


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a child `python` that must import this stereorig.

    The directory holding the imported package goes first on PYTHONPATH as
    an absolute path, so the child finds the same package whatever its cwd;
    entries already on PYTHONPATH follow it.
    """
    pkg_root = str(Path(stereorig.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = pkg_root + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=path)


class _FullDisk:
    """A text file whose writes after the first fail with ENOSPC."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


@pytest.fixture
def manifest_fault(monkeypatch):
    """Call with "write" or "replace" to make `ppmio.write_manifest` fail there.

    "write" fails the second line written to a file that `ppmio` opens for
    writing; "replace" fails the `os.replace` that puts the finished file in
    place.
    """
    from stereorig import ppmio

    def inject(where: str) -> None:
        if where == "write":
            def open_full(file, mode="r", **kwargs):
                fh = open(file, mode, **kwargs)
                return _FullDisk(fh) if "w" in mode else fh
            monkeypatch.setattr(ppmio, "open", open_full, raising=False)
        else:
            def replace(src, dst):
                raise OSError(errno.EIO, "Input/output error")
            monkeypatch.setattr(ppmio.os, "replace", replace)

    return inject


@pytest.fixture(scope="session")
def registry():
    text = (
        resources.files("stereorig.data").joinpath("devices.json").read_text("utf-8")
    )
    return parse_device_specs(text)


@pytest.fixture(scope="session")
def j7(registry):
    return lookup(registry, "J7-fixture")


@pytest.fixture(scope="session")
def a5(registry):
    return lookup(registry, "A5-fixture")


@pytest.fixture(scope="session")
def compact(registry):
    return lookup(registry, "compact-fixture")


@pytest.fixture(scope="session")
def golden_path():
    return Path(__file__).parent / "golden" / "j7_two_phone.svg"
