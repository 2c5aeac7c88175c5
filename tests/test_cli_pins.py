"""Every pinned command-line output of tests/cli_pins.py, byte for byte, in
this process through cli.main.  CI runs the same table again from a bare
install, each command in a subprocess."""

import contextlib
import io

import pytest

from cli_pins import PINS, digest, write_inputs
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
