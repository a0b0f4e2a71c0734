"""Checksummed JSON result cache keyed by the arguments of the command.

A key is one JSON-able dict: the command and every argument that affects its
result, with the values the command normalised (``khecke.cli._cached`` builds
it).  Each entry is one file, ``v0.1.0-schema3/<command>/<sha256>.json``,
named by the sha256 of the key's canonical encoding below a directory for the
package version and ``SCHEMA``, so a stored result does not outlive a change
of code or format; bump ``SCHEMA`` when a key or payload format changes.  The
record carries its key, and a record whose key differs from the requested one
is a miss.  A sha256 checksum over the canonical encoding of key and payload
detects corruption, in which case the entry is discarded (the caller
recomputes and overwrites).  Each writer writes its own temporary file and
renames it over the entry, so concurrent writers of one key never expose a
partial record.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from . import __version__

ENV_VAR = "KHECKE_CACHE"
SCHEMA = 3


def default_cache_dir() -> Path | None:
    """$KHECKE_CACHE, else $XDG_CACHE_HOME/khecke, else ~/.cache/khecke; None
    when neither variable is set and there is no home directory."""
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "khecke"
    try:
        return Path.home() / ".cache" / "khecke"
    except RuntimeError:
        return None


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

    def path(self, key: dict) -> Path:
        return (self.root / f"v{__version__}-schema{SCHEMA}" / key["command"]
                / f"{_checksum(_encode(key))}.json")

    def store(self, key: dict, payload) -> Path | None:
        """Path of the written entry, or None (with a warning) if it cannot be
        written; a failed write removes its temporary file."""
        if self.root is None:
            _warn("cannot write cache entry: no cache directory "
                  f"(no ${ENV_VAR}, $XDG_CACHE_HOME or home directory)")
            return None
        record = {"key": key, "payload": payload}
        record["checksum"] = _checksum(_encode(record))
        path = self.path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True), "utf-8")
            tmp.replace(path)
        except OSError as exc:
            _warn(f"cannot write cache entry {path}: {exc}")
            with contextlib.suppress(OSError):
                tmp.unlink()
            return None
        return path

    def load(self, key: dict):
        """Payload, or None when missing, stored under another key or corrupt
        (corrupt entries log a warning)."""
        if self.root is None:
            return None
        path = self.path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text("utf-8"))
            body = {"key": record["key"], "payload": record["payload"]}
            if _checksum(_encode(body)) != record["checksum"]:
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            _warn(f"corrupt cache entry {path} ({exc}); recomputing")
            return None
        except OSError as exc:
            _warn(f"cannot read cache entry {path}: {exc}")
            return None
        return record["payload"] if _encode(record["key"]) == _encode(key) else None
