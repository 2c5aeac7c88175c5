import _blake2
import hashlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import symbpow
from symbpow.rng import SplitRng

from oracles import convex_weights


def test_reproducible():
    a = SplitRng(42, ("suite",))
    b = SplitRng(42, ("suite",))
    assert [a.randint(0, 99) for _ in range(20)] == [b.randint(0, 99) for _ in range(20)]


def test_child_streams_are_independent():
    root = SplitRng(7)
    left = root.child("left")
    right = root.child("right")
    seq_l = [left.randint(0, 9) for _ in range(50)]
    seq_r = [right.randint(0, 9) for _ in range(50)]
    assert seq_l != seq_r
    # deriving a child does not disturb the parent's own stream
    fresh = SplitRng(7)
    fresh.child("left")
    base = SplitRng(7)
    assert [fresh.randint(0, 9) for _ in range(5)] == \
        [base.randint(0, 9) for _ in range(5)]


def test_randint_bounds():
    rng = SplitRng(1)
    vals = [rng.randint(3, 5) for _ in range(200)]
    assert set(vals) == {3, 4, 5}


def test_subset_is_order_stable():
    rng = SplitRng(5)
    picked = rng.subset(range(10), 4)
    assert picked == sorted(picked)
    assert len(set(picked)) == 4


def test_convex_weights_sum_to_one():
    rng = SplitRng(3)
    for n in (1, 2, 5):
        w = convex_weights(rng, n)
        assert len(w) == n
        assert sum(w) == Fraction(1)
        assert all(x >= 0 for x in w)


def test_a_seed_that_is_not_an_int_is_refused():
    """SplitRng(1.5) once drew seed 1's stream without a word."""
    for seed in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            SplitRng(seed)


def test_the_scan_streams_are_pinned():
    """The first draws of the scan's root stream and of its first ideal's:
    a change to the tag that a draw hashes fails here by name, before any
    scan digest moves."""
    root = SplitRng(2026, ("scan",))
    child = root.child("ideal0")
    assert [root.randint(0, 10**9) for _ in range(8)] == [
        320326325, 697245523, 974022314, 961730208,
        297445196, 696275346, 489413923, 497697884]
    assert [child.randint(0, 10**9) for _ in range(8)] == [
        429599935, 161468826, 204056063, 533504624,
        157579336, 908064007, 25008869, 88359375]


def test_a_draw_loads_no_openssl():
    """A draw hashes with the interpreter's built-in BLAKE2b, which is the
    function hashlib hands out: hashlib never takes BLAKE2 from OpenSSL, but
    importing it maps libcrypto, +3.6 MB of peak RSS and about 3 ms.  -S
    keeps site (and any .pth file) from loading hashlib first.  Should a
    Python's hashlib.blake2b be another function, this fails beside the
    pinned draws above instead of every stream moving silently."""
    src = str(Path(symbpow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r})\n"
         "from symbpow import harness\n"
         "from symbpow.rng import SplitRng\n"
         "SplitRng(2026, ('scan',)).randint(0, 10**9)\n"
         "harness.scan(harness.ScanConfig(count=1))\n"
         "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert _blake2.blake2b is hashlib.blake2b


@pytest.mark.parametrize("path,labels", [
    (("a/b",), ()), (("a",), ("b/c",)), (("a",), ("/",)), ((), ("",)), (("", "a"), ())])
def test_a_label_that_would_draw_another_paths_stream_is_refused(path, labels):
    """The tag joins a path's labels with "/": ("a/b",) drew the stream of
    ("a", "b") and of ("a",).child("b"), and ("",) that of ()."""
    with pytest.raises(ValueError, match="stream label"):
        SplitRng(1, path).child(*labels)
