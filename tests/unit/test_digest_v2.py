"""Digest v2 encoder edge cases.

The binary encoding (``repro.sim.tracing._pack_value`` and friends) must
be total over everything a trace record can carry and reproducible across
processes and machines. These tests pin the corners where a naive encoder
goes wrong: float special values, non-ASCII text, unordered collections,
int64 overflow, and hash-seed independence.
"""

from __future__ import annotations

import math
import subprocess
import sys

from repro.sim.tracing import (
    DIGEST_VERSION,
    Trace,
    _pack_int,
    _pack_str,
    _pack_value,
)


def digest_of(records) -> str:
    """Digest a fixed ``(time, kind, fields)`` sequence through a Trace."""
    trace = Trace(digest=True)
    for time, kind, fields in records:
        trace.record(time, kind, **fields)
    return trace.digest()


# -- versioning ---------------------------------------------------------------


def test_digest_version_is_3():
    assert DIGEST_VERSION == 3


def test_empty_trace_digest_is_version_seeded():
    import hashlib

    unseeded = hashlib.blake2b(digest_size=16).hexdigest()
    assert Trace(digest=True).digest() != unseeded


# -- float special values -----------------------------------------------------


def test_nan_digests_stably():
    records = [(0.5, "x", {"v": float("nan")})]
    assert digest_of(records) == digest_of(records)


def test_negative_zero_distinct_from_positive_zero():
    assert _pack_value(-0.0) != _pack_value(0.0)
    assert digest_of([(0.0, "x", {"v": -0.0})]) != digest_of(
        [(0.0, "x", {"v": 0.0})]
    )


def test_infinities_distinct_and_stable():
    inf, ninf = float("inf"), float("-inf")
    assert _pack_value(inf) != _pack_value(ninf)
    assert digest_of([(1.0, "x", {"v": inf})]) == digest_of(
        [(1.0, "x", {"v": inf})]
    )


def test_float_packing_is_bit_exact():
    # Two floats whose repr-rounding could collide must stay distinct.
    a = 0.1 + 0.2
    b = 0.30000000000000004
    assert a == b and _pack_value(a) == _pack_value(b)
    c = math.nextafter(a, 1.0)
    assert _pack_value(a) != _pack_value(c)


def test_float_time_distinct_from_int_time_record():
    # The record time is packed as float64; equal-valued records at int-
    # versus float-typed field values must not collide (different tags).
    assert _pack_value(3) != _pack_value(3.0)


# -- strings ------------------------------------------------------------------


def test_non_ascii_strings_stable_and_distinct():
    fancy = [(0.0, "x", {"name": "café ☃ \U0001f60e"})]
    plain = [(0.0, "x", {"name": "cafe snowman"})]
    assert digest_of(fancy) == digest_of(fancy)
    assert digest_of(fancy) != digest_of(plain)


def test_unpaired_surrogate_does_not_crash():
    # backslashreplace keeps the encoder total over junk device names.
    assert _pack_str("bad\ud800name") == _pack_str("bad\ud800name")


def test_length_prefix_prevents_concatenation_ambiguity():
    # "ab" + "c" must not encode like "a" + "bc".
    rec1 = [(0.0, "x", {"a": "ab", "b": "c"})]
    rec2 = [(0.0, "x", {"a": "a", "b": "bc"})]
    assert digest_of(rec1) != digest_of(rec2)


# -- ints ---------------------------------------------------------------------


def test_int64_boundary_falls_back_to_decimal():
    lo, hi = -(2**63), 2**63 - 1
    assert _pack_int(lo)[0:1] == b"q"
    assert _pack_int(hi)[0:1] == b"q"
    assert _pack_int(hi + 1)[0:1] == b"i"
    assert _pack_int(lo - 1)[0:1] == b"i"
    assert _pack_int(hi + 1) != _pack_int(hi + 2)


def test_bool_distinct_from_int():
    assert _pack_value(True) != _pack_value(1)
    assert _pack_value(False) != _pack_value(0)


# -- unordered collections ----------------------------------------------------


def test_set_digest_independent_of_insertion_order():
    forward = {f"member{i}" for i in range(20)}
    backward = set()
    for i in reversed(range(20)):
        backward.add(f"member{i}")
    assert _pack_value(forward) == _pack_value(backward)


def test_dict_digest_independent_of_key_order():
    a = {"x": 1, "y": 2, "z": 3}
    b = {"z": 3, "y": 2, "x": 1}
    assert _pack_value(a) == _pack_value(b)
    assert digest_of([(0.0, "k", {"m": a})]) == digest_of([(0.0, "k", {"m": b})])


def test_nested_collections_are_canonicalized():
    a = {"members": {"p2", "p0", "p1"}, "meta": {"b": [1, 2], "a": (3,)}}
    b = {"meta": {"a": (3,), "b": [1, 2]}, "members": {"p1", "p0", "p2"}}
    assert _pack_value(a) == _pack_value(b)


def test_nested_value_changes_change_the_digest():
    a = {"members": frozenset({"p0", "p1"})}
    b = {"members": frozenset({"p0", "p2"})}
    assert _pack_value(a) != _pack_value(b)


# -- cross-process stability --------------------------------------------------

_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src_path!r})
from repro.sim.tracing import Trace

trace = Trace(digest=True)
trace.record(0.125, "net_send", kind="keepalive", src="p0", dst="p1", bytes=64)
trace.record(0.25, "view_change", members={{"p2", "p0", "p1"}},
             meta={{"epoch": 3, "cause": "héartbeat"}})
trace.record(0.5, "weird", v=float("nan"), z=-0.0, n=None, big=2**70)
trace.record_device(0.75, "sensor_emit", "s1", 7)
print(trace.digest())
"""


def test_subprocess_digest_equals_in_process():
    """The digest must not depend on PYTHONHASHSEED or process state."""
    import os
    import pathlib

    import repro

    src_path = str(pathlib.Path(repro.__file__).resolve().parents[1])
    script = _SUBPROCESS_SCRIPT.format(src_path=src_path)

    trace = Trace(digest=True)
    trace.record(0.125, "net_send", kind="keepalive", src="p0", dst="p1",
                 bytes=64)
    trace.record(0.25, "view_change", members={"p2", "p0", "p1"},
                 meta={"epoch": 3, "cause": "héartbeat"})
    trace.record(0.5, "weird", v=float("nan"), z=-0.0, n=None, big=2**70)
    trace.record_device(0.75, "sensor_emit", "s1", 7)
    local = trace.digest()

    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == local
