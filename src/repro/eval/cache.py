"""Content-addressed run cache for sweep cells.

Every sweep cell (one experiment table, one chaos run) is a pure function
of ``(source tree, task spec)``: the simulator is deterministic, so the
cell's JSON result can be replayed from disk instead of recomputed. The
cache key is ``blake2b(tree_digest || runner || canonical-JSON(spec))``,
which gives the two invalidation properties for free:

- **source change** — any edit to a ``.py`` file under the ``repro``
  package changes :func:`source_tree_digest`, so every key changes and
  the whole cache misses;
- **spec change** — a different seed, mode, horizon or experiment kwarg
  canonicalizes to different JSON, so only that cell misses.

Entries live under ``.rivulet-cache/<kk>/<key>.json`` (two-hex-char
fan-out) and are written atomically (temp file + rename), so a sweep
interrupted mid-run leaves only whole entries behind and the next run
resumes from the completed cells. Corrupt or unreadable entries are
treated as misses, never as errors.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.sim.snapshot import source_tree_digest

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".rivulet-cache"


def task_key(runner: str, spec: dict[str, Any], tree_digest: str) -> str:
    """The content address of one sweep cell."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    hasher = hashlib.blake2b(digest_size=16)
    for part in (tree_digest, runner, canonical):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


class RunCache:
    """A content-addressed store of JSON cell results.

    ``get``/``put`` never raise on I/O or decode problems: a cache must
    only ever make a sweep faster, not able to fail it.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        *,
        tree_digest: str | None = None,
    ) -> None:
        self.root = Path(root)
        self.tree_digest = tree_digest or source_tree_digest()
        self.hits = 0
        self.misses = 0

    def key_for(self, runner: str, spec: dict[str, Any]) -> str:
        return task_key(runner, spec, self.tree_digest)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any | None:
        """The stored result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            result = entry["result"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any, *, spec: Any = None) -> None:
        """Store ``result`` (must be JSON-serializable) under ``key``."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(
                {"key": key, "spec": spec, "result": result},
                sort_keys=True, indent=1,
            )
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # a read-only or full disk silently disables storing

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
