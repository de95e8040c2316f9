"""Checkpoint/restore for fleet simulations.

A city-scale run (100k home-days) is hours of wall clock; losing it to a
preempted container or an operator mistake is expensive. A *snapshot*
serializes the entire live simulation — the scheduler heap with every
pending timer and in-flight delivery, the state of every RNG stream, the
tenant registries and the per-home trace aggregates and sealed digest
segments — so the run can continue in a fresh process and finish with a
digest **byte-identical** to the uninterrupted run.

Design notes:

- **Whole-graph pickle.** The simulator is a closed object graph rooted at
  the :class:`~repro.core.fleet.Fleet`; pickling the root captures timers,
  RNGs, protocol state and traces in one consistent cut. The hot-path
  callables were deliberately made picklable (slot-based ``_GuardedCall`` /
  ``_EmissionDriver`` objects instead of closures).
- **Seal points.** ``hashlib`` streaming hashers cannot be pickled, so a
  trace is only serializable right after :meth:`~repro.sim.tracing.Trace.seal`
  reduced its hash state to a hex segment. :meth:`Fleet.run_until
  <repro.core.fleet.Fleet.run_until>` seals at every simulated-day
  boundary, so checkpoints are taken there (``Fleet.checkpoint`` right
  after ``run_until(k * DAY_S)``); attempting one mid-day raises
  :class:`SnapshotError` instead of silently corrupting digests.
- **Atomicity.** The snapshot is staged to a temporary file in the target
  directory, fsynced, then ``os.replace``\\ d over the destination — a
  reader (or a resume after a crash mid-checkpoint) sees either the old
  complete snapshot or the new one, never a torn write.
- **Versioning.** The payload carries a magic string and a format version;
  :func:`load_fleet` refuses foreign or future files with a clear error
  rather than unpickling garbage.
- **Horizon.** The header also records how many days the checkpointing run
  was launched for: the workload scheduled its events for exactly that
  long, so finishing it with another ``--days`` would silently run days
  without occupancy. :func:`load_fleet` refuses such a resume when asked.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import Fleet

MAGIC = "rivulet-fleet-snapshot"
#: Version 7: the fleet is the one holder of the scheduler, seed and tenant
#: registry (no context object in the graph) and reads its counters off the
#: traces (no counter arrays); a v6 graph names the deleted context module
#: and fails to unpickle. (v6: every cancellable timer in the scheduler heap
#: is a bare ``[callback, args, interval, in_bucket]`` list behind a
#: two-slot ``TimerHandle``, the heap holds bare timestamps, and the header
#: records the run's ``horizon_days``. v5: a process keeps what its stack
#: boots with as one ``config`` (repro.core.stack.ServiceHost) and its
#: retired build counters. v4: gossip-on-change state on the heartbeat and
#: execution services. v3: digest-v3 trace segments and trace channel
#: objects in the graph.)
FORMAT_VERSION = 7


class SnapshotError(RuntimeError):
    """A snapshot could not be written or read."""


def save_fleet(fleet: "Fleet", path: Any, horizon_days: float | None = None) -> str:
    """Atomically write a snapshot of ``fleet`` to ``path``.

    Returns the final path. The fleet keeps running state — checkpointing
    is non-destructive; the caller may continue ``run_until`` immediately.
    ``horizon_days`` is the length of the run the fleet's workload was
    generated for; the header keeps it so a resume can refuse another one.
    """
    target = Path(path)
    payload = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "sim_time": fleet.now,
        "n_homes": len(fleet),
        "horizon_days": horizon_days,
        "fleet": fleet,
    }
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except TypeError as exc:
        raise SnapshotError(
            f"fleet is not serializable here: {exc} — checkpoint at a "
            "simulated-day boundary (right after run_until(k * DAY_S))"
        ) from exc

    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Persist the rename itself: fsync the containing directory where the
    # platform allows opening one (POSIX).
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX
        return str(target)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return str(target)


def load_fleet(path: Any, horizon_days: float | None = None) -> "Fleet":
    """Read a :func:`save_fleet` snapshot and return the live fleet.

    With ``horizon_days``, refuse a snapshot whose run was launched for any
    other horizon: its workload scheduled exactly that many days.
    """
    source = Path(path)
    try:
        with open(source, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {source}") from None
    except (pickle.UnpicklingError, EOFError) as exc:
        raise SnapshotError(f"corrupt snapshot {source}: {exc}") from exc
    except (AttributeError, ImportError) as exc:
        # Header and fleet are one pickle, so a graph naming a class or slot
        # this build no longer has fails before the version can be read.
        raise SnapshotError(
            f"snapshot {source} was written by an incompatible build "
            f"(this build reads format version {FORMAT_VERSION}): {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise SnapshotError(f"{source} is not a fleet snapshot")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {source} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    recorded = payload["horizon_days"]
    if horizon_days is not None and recorded != horizon_days:
        length = "unrecorded length" if recorded is None else f"{recorded:g} day(s)"
        raise SnapshotError(
            f"snapshot {source} was checkpointed by a run of {length}, not of "
            f"{horizon_days:g} day(s): its workload covers only its own horizon"
        )
    return payload["fleet"]
