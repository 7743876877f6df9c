"""Smoke test of ``python -m binshift`` run as a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import binshift

SRC = str(Path(binshift.__file__).resolve().parent.parent)


# Modules the CLI must not load: ``dataclasses`` pulls in ``inspect`` (and with
# it ``ast``, ``dis`` and ``tokenize``); with ``typing`` they add about 30 ms to
# every ``python -m binshift`` call.
HEAVY = ("typing", "dataclasses", "inspect")
# ``shutil`` and what it imports: argparse's stock help formatter imports it
# for the terminal width each time a parser or an argument is built.
SHUTIL = ("shutil", "zlib", "bz2", "lzma", "fnmatch")


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)  # the package needs nothing beyond the stdlib
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_module(*argv):
    return run_python("-m", "binshift", *argv)


def test_family_listing_exits_0():
    proc = run_module("family")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("fibonacci ")


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--family", "nosuch"),
        ("transform", "--family", "fibonacci", "-r", "100000", "-n", "1000"),
    ],
    ids=["unknown-family", "oversized-output"],
)
def test_input_errors_exit_2_without_traceback(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_no_heavy_modules():
    code = f"import binshift.cli, sys; print([m for m in {HEAVY!r} if m in sys.modules])"
    proc = run_python("-S", "-B", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def run_importtime(*argv):
    """The child's result and the names of the modules it imported."""
    proc = run_python("-S", "-B", "-X", "importtime", "-m", "binshift", *argv)
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "binshift.cli" in imported
    return proc, imported


def test_plain_family_call_imports_no_heavy_modules():
    # json and csv are imported only by the format that prints them, random
    # only by verify.
    proc, imported = run_importtime("family")
    assert proc.returncode == 0 and proc.stdout.startswith("fibonacci ")
    assert imported.isdisjoint({*HEAVY, *SHUTIL, "json", "csv", "random"})


@pytest.mark.parametrize(
    "argv, code",
    [
        (("transform", "--family", "pell", "-r=-1/2", "--format", "oeis"), 0),
        (("shift-poly", "1,-1,-1", "-r", "2", "--format", "json"), 0),
        (("table", "segments", "--format", "csv"), 0),
        (("verify", "semigroup", "--cases", "2", "-n", "3", "--format", "json"), 0),
        (("family", "--format", "csv"), 0),
        (("transform", "--help"), 0),
        (("transform", "--format", "bad"), 2),
    ],
    ids=["transform", "shift-poly", "table", "verify", "family", "help", "usage-error"],
)
def test_no_call_imports_shutil(argv, code):
    proc, imported = run_importtime(*argv)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    assert imported.isdisjoint({*HEAVY, *SHUTIL})
