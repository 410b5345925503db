"""The one verdict type every module and the CLI emit, and the atomic file
write every output goes through.

This module needs only the standard library, so a command that runs no
numpy code (`count`) never imports numpy.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

HOLDS = "holds-at-scale"
FAILS = "fails-at-scale"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
