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
- **One build.** A snapshot belongs to the build that wrote it: a header
  pickle (a magic string and :func:`source_tree_digest` of the writing
  tree) precedes the fleet pickle, and :func:`load_fleet` refuses any other
  build, naming both digests, before it unpickles the graph. Pickled
  privates are therefore no outside contract — renaming one needs no
  format bump and no migration — and a resume on changed code fails
  loudly instead of mixing two builds. The run cache keys its entries by
  the same digest.
- **Horizon.** The header also records how many days the checkpointing run
  was launched for: the workload scheduled its events for exactly that
  long, so finishing it with another ``--days`` would silently run days
  without occupancy. :func:`load_fleet` refuses such a resume when asked.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import Fleet

MAGIC = "rivulet-fleet-snapshot"

_TREE_DIGEST_MEMO: dict[str, str] = {}


def source_tree_digest(package_root: str | Path | None = None) -> str:
    """A stable digest of every ``*.py`` file under the package tree: the
    name of a build, for snapshots and for the run cache.

    Defaults to the installed ``repro`` package directory. The digest
    covers relative paths and file contents (not mtimes), so rebuilding
    or re-checking-out an identical tree names the same build.
    """
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    root = Path(package_root)
    memo_key = str(root.resolve())
    cached = _TREE_DIGEST_MEMO.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    _TREE_DIGEST_MEMO[memo_key] = digest
    return digest


def clear_tree_digest_memo() -> None:
    """Forget memoized tree digests (tests mutate trees in place)."""
    _TREE_DIGEST_MEMO.clear()


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
    header = {
        "magic": MAGIC,
        "build": source_tree_digest(),
        "sim_time": fleet.now,
        "n_homes": len(fleet),
        "horizon_days": horizon_days,
    }
    try:
        blob = b"".join(
            pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL) for part in (header, fleet)
        )
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

    A snapshot that another build wrote is refused from its header, before
    its graph is unpickled. With ``horizon_days``, so is one whose run was
    launched for any other horizon: its workload scheduled exactly that
    many days.
    """
    source = Path(path)
    try:
        with open(source, "rb") as fh:
            _check_header(source, pickle.load(fh), horizon_days)
            return pickle.load(fh)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {source}") from None
    except (pickle.UnpicklingError, EOFError) as exc:
        raise SnapshotError(f"corrupt snapshot {source}: {exc}") from exc


def _check_header(source: Path, header: Any, horizon_days: float | None) -> None:
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotError(f"{source} is not a fleet snapshot")
    build = source_tree_digest()
    if header.get("build") != build:
        raise SnapshotError(
            f"snapshot {source} was written by build {header.get('build')}, not by "
            f"this build {build}: a snapshot resumes only on the source tree that "
            "wrote it"
        )
    recorded = header["horizon_days"]
    if horizon_days is not None and recorded != horizon_days:
        length = "unrecorded length" if recorded is None else f"{recorded:g} day(s)"
        raise SnapshotError(
            f"snapshot {source} was checkpointed by a run of {length}, not of "
            f"{horizon_days:g} day(s): its workload covers only its own horizon"
        )
