"""The code version: one digest of the simulator's source tree.

Result-cache keys (:func:`repro.experiments.runner.cell_key`) and
snapshot headers (:mod:`repro.checkpoint`) both carry it, so neither a
cached result nor a snapshot outlives the code that wrote it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file, computed once per process.

    Folding this into every cell key means a cached result can never
    outlive the simulator that produced it: touch any file under
    ``src/repro`` and the whole store is cleanly invalidated (stale
    entries are simply never addressed again; ``cache clear`` reclaims
    the disk).  A snapshot from other code is refused on load for the
    same reason: its pickled objects may not mean what they meant.
    """
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()[:16]
    return _code_version


__all__ = ["code_version"]
