"""Redaction for diagnostics: reference raw values without exposing them.

Error messages need *something* to identify the offending cell — but a
raw quasi-identifier or sensitive value in an exception string escapes
the anonymizer boundary.  :func:`redact_value` gives messages a
stable, privacy-safe handle: the value's type, its length and a short
SHA-256 digest.  Someone holding the original data can recompute the
digest to locate the cell; someone holding only the log cannot invert it
(beyond guessing, which the truncated digest deliberately weakens).

Routing a message through it is the sanctioned way to mention a cell;
``tests/test_boundary_canary.py`` seeds tables with sentinel cells and
fails when one shows up in an exception, a log record or a warning.
"""

from __future__ import annotations

import hashlib
from typing import Any

#: Hex digits of SHA-256 kept in the redacted form — enough to correlate
#: against a known dataset, far too few to enumerate the preimage space.
_DIGEST_CHARS = 8


def redact_value(value: Any, label: str = "redacted") -> str:
    """A privacy-safe stand-in for ``value`` in diagnostics.

    Returns ``<redacted type=str len=5 sha256=1a2b3c4d>``-style text:
    debuggable (type, size and a correlatable digest) without reproducing
    any cell content.  ``label`` customizes the leading word, e.g.
    ``redact_value(cell, label="cell")``.
    """
    text = str(value)
    digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
    return (
        f"<{label} type={type(value).__name__} len={len(text)} "
        f"sha256={digest[:_DIGEST_CHARS]}>"
    )
