"""The one verdict type every module and the CLI emit, and the atomic file
write every output goes through.  That write takes a str, written as
UTF-8, or any bytes-like object, such as the uint8 buffer of a word file,
written as it stands.

This module needs only the standard library, so a command that runs no
numpy code (`count`) still never imports numpy.
"""

from __future__ import annotations

import os
import stat
import tempfile
from dataclasses import dataclass

HOLDS = "holds-at-scale"
FAILS = "fails-at-scale"


def _open_mode(path) -> int:
    """The mode a plain open(path, "w") leaves: an existing file's own, or
    0o666 less the umask for a new one."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write_text(path, text) -> None:
    """Write `text`, a str (as UTF-8, newlines untranslated) or a
    bytes-like object (as it stands, with no copy), via a temp file in the
    same directory, then rename.  The file gets the mode a plain open()
    would give it, not the 0600 of the temp file."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8") if isinstance(text, str) else text)
        os.chmod(tmp, _open_mode(path))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Certificate:
    """A scale-tagged verdict with its witness; every verdict the CLI emits
    is one.  The four set-predicate certificates of `intsets` can be
    replayed."""

    predicate: str
    scale: dict
    verdict: str
    witness: dict

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json(self) -> dict:
        return {
            "predicate": self.predicate,
            "scale": dict(self.scale),
            "verdict": self.verdict,
            "witness": dict(self.witness),
        }

    @classmethod
    def from_bool(cls, predicate, ok, scale, witness) -> "Certificate":
        """The certificate of a check that came out `ok` at `scale`."""
        return cls(predicate, dict(scale), HOLDS if ok else FAILS, dict(witness))

    @classmethod
    def from_json(cls, data) -> "Certificate":
        return cls(data["predicate"], dict(data["scale"]), data["verdict"],
                   dict(data["witness"]))
