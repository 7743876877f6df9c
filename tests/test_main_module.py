"""Smoke test of ``python -m binshift`` run as a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import binshift

SRC = str(Path(binshift.__file__).resolve().parent.parent)


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)  # the package needs nothing beyond the stdlib
    return subprocess.run(
        [sys.executable, "-m", "binshift", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


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
