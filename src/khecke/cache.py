"""Checksummed JSON result cache keyed by (n, kind, label, degree).

Entries live under the cache directory as one file each, below a directory
named for the package version and ``SCHEMA`` (``v0.1.0-schema2/``), so a
stored result does not outlive a change of code or format; bump ``SCHEMA``
when a payload or label format changes.  A sha256 checksum over the
canonical payload encoding detects corruption, in which case the entry is
discarded (the caller recomputes and overwrites).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import __version__

ENV_VAR = "KHECKE_CACHE"
SCHEMA = 2


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "khecke"


def _warn(message: str):
    """WARNING on the "khecke" logger.  ``logging`` is imported on the first
    warning, not with the package: it adds about 10 ms to every CLI start."""
    import logging
    log = logging.getLogger("khecke")
    if not log.handlers:  # print to stderr even when the root logger has handlers
        log.addHandler(logging.lastResort)
    log.warning(message)


def _encode(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(body: str) -> str:
    """sha256 of ``body``.  ``hashlib`` is imported on first use, as ``logging``
    in ``_warn``: it loads OpenSSL, about 3 MB and a few ms in every process."""
    import hashlib
    return hashlib.sha256(body.encode()).hexdigest()


class ResultCache:
    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root else default_cache_dir()

    def path(self, n: int, kind: str, label: str, degree: int) -> Path:
        safe = label if label else "empty"
        return (self.root / f"v{__version__}-schema{SCHEMA}" / f"n{n}" / kind
                / f"{safe}.d{degree}.json")

    def store(self, n: int, kind: str, label: str, degree: int, payload) -> Path | None:
        """Path of the written entry, or None (with a warning) if it cannot be written."""
        body = _encode(payload)
        record = {"checksum": _checksum(body), "payload": payload}
        path = self.path(n, kind, label, degree)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record, sort_keys=True), "utf-8")
            tmp.replace(path)
        except OSError as exc:
            _warn(f"cannot write cache entry {path}: {exc}")
            return None
        return path

    def load(self, n: int, kind: str, label: str, degree: int):
        """Payload, or None when missing/corrupt (corrupt entries log a warning)."""
        path = self.path(n, kind, label, degree)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text("utf-8"))
            body = _encode(record["payload"])
            if _checksum(body) != record["checksum"]:
                raise ValueError("checksum mismatch")
            return record["payload"]
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            _warn(f"corrupt cache entry {path} ({exc}); recomputing")
            return None
        except OSError as exc:
            _warn(f"cannot read cache entry {path}: {exc}")
            return None
