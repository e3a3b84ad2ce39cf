"""Python translation of the paper's Listing 3 ``simple_hash``.

The C original::

    unsigned long simple_hash(const char *str) {
        unsigned long hash = 53871;
        int c;
        while ((c = *str++))
            hash = ((hash << 5) + hash) + c; /* hash * 33 + c */
        return hash;
    }

(djb2 with a 53871 seed).  ``unsigned long`` is 64-bit on the paper's
x86-64 Linux targets, so arithmetic wraps modulo 2^64.

The eco plugin, the model factory and :class:`SystemInfo` fingerprints
all hash with it.  It lives in the domain layer, which imports nothing
from the Slurm simulator, so importing it never loads the controller.
"""

from __future__ import annotations

__all__ = ["simple_hash"]

_MASK64 = (1 << 64) - 1


def simple_hash(text: str | bytes) -> int:
    """Hash a string exactly like the C plugin does (64-bit djb2/53871).

    NUL bytes terminate the hash, matching C string semantics.
    """
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    h = 53871
    for byte in data:
        if byte == 0:  # C strings stop at NUL
            break
        h = ((h << 5) + h + byte) & _MASK64
    return h
