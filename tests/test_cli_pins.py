"""Every pinned command-line output of tests/cli_pins.py, byte for byte, in
this process through cli.main.  CI runs the same table again from a bare
install, each command in a subprocess."""

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

import symbpow
from cli_pins import PINS, check_pins, digest, subprocess_runner, write_inputs
from symbpow.cli import main


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    write_inputs(directory)
    return directory


def run_in_process(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue().encode()


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pinned_output(pin, inputs, monkeypatch):
    monkeypatch.chdir(inputs)  # the pins name their files relative to it
    assert digest(pin, run_in_process) == pin.sha256


def test_dump_writes_the_pinned_bytes(inputs, monkeypatch, tmp_path, capsys):
    """`cli_pins.py --dump DIR` writes each pin's joined stdout to
    DIR/<pin name>: here one pin, in this process, whose file hashes to
    the table's digest."""
    pin = next(pin for pin in PINS if pin.name == "rot3.jsonl")
    monkeypatch.chdir(inputs)
    assert check_pins([pin], run_in_process, tmp_path / "dump") == 0
    dumped = (tmp_path / "dump" / pin.name).read_bytes()
    assert hashlib.sha256(dumped).hexdigest() == pin.sha256
    assert capsys.readouterr().out == f"ok  {pin.name}  {pin.sha256}\n"


def test_subprocess_runner_reads_a_relative_pythonpath(inputs, monkeypatch):
    """`PYTHONPATH=src python tests/cli_pins.py` at the root of a checkout
    runs each command in a temporary directory; the runner makes the
    relative entry absolute, so the child still imports the package."""
    src = Path(symbpow.__file__).resolve().parent.parent
    monkeypatch.chdir(src.parent)
    monkeypatch.setenv("PYTHONPATH", os.path.relpath(src))
    pin = next(pin for pin in PINS if pin.name == "x500-info.jsonl")
    assert digest(pin, subprocess_runner(inputs)) == pin.sha256
