"""Self-verifying page trailers: CRC checksums over stored bytes.

MaSM's durability argument (Section 3.6) assumes the SSD returns the bytes
that were written.  Real devices do not always: bit rot, torn writes and
firmware bugs all produce pages that read back differently than written.
Every run block and redo-log record therefore carries a small checksum so
the read path can *detect* damage instead of silently decoding garbage.

Format: an 8-byte trailer at the end of each fixed-size page::

    | body ... zero padding ... | magic u32 | crc u32 |

The CRC covers everything before the trailer's crc field (body, padding and
the magic), so any flipped bit in the stored page — including in the trailer
itself — fails verification.  The checksum function is hardware CRC32C when
the optional ``crc32c`` module is importable, and zlib's CRC-32 otherwise
(same width, same detection strength for this use; both run at C speed,
which is what keeps verification inside the hot-path regression budget).

Verification can be disabled globally (``set_verification(False)``) so the
fault-overhead benchmark can measure exactly what the checksums cost.
"""

from __future__ import annotations

import struct

from repro.errors import ChecksumError
from repro.obs.registry import get_registry

try:  # pragma: no cover - environment-dependent accelerator
    from crc32c import crc32c as _crc
except ImportError:  # pragma: no cover
    from zlib import crc32 as _crc

#: Trailer layout: magic marker then the CRC of everything before it.
TRAILER = struct.Struct("<II")
TRAILER_SIZE = TRAILER.size

#: Identifies a sealed page ("MSR1": MaSM sealed revision 1).  A page whose
#: trailer lacks the magic was never sealed (or lost its tail to a torn
#: write), which verification reports distinctly from a CRC mismatch.
PAGE_MAGIC = 0x3152534D

_verification_enabled = True


def checksum(data, seed: int = 0) -> int:
    """Checksum of ``data`` as an unsigned 32-bit integer.

    ``seed`` is the checksum of the bytes that precede ``data``:
    ``checksum(b, checksum(a)) == checksum(a + b)``, so a prefix known in
    advance (the redo log's record-type byte) never has to be concatenated.
    """
    return _crc(data, seed) & 0xFFFFFFFF


def verification_enabled() -> bool:
    return _verification_enabled


def set_verification(enabled: bool) -> bool:
    """Globally enable/disable read-side verification; returns the old value.

    Write-side sealing is never disabled — pages on a volume must all carry
    trailers so verification can be re-enabled at any moment.
    """
    global _verification_enabled
    previous = _verification_enabled
    _verification_enabled = bool(enabled)
    return previous


def seal(body: bytes, page_size: int) -> bytes:
    """Pad ``body`` to ``page_size`` and stamp the checksum trailer.

    ``body`` must leave room for the trailer; callers budget their payload
    against ``page_size - TRAILER_SIZE``.
    """
    if len(body) > page_size - TRAILER_SIZE:
        raise ValueError(
            f"body of {len(body)} bytes leaves no room for the {TRAILER_SIZE}-byte "
            f"trailer in a {page_size}-byte page"
        )
    padded = body.ljust(page_size - TRAILER_SIZE, b"\x00")
    head = padded + struct.pack("<I", PAGE_MAGIC)
    return head + struct.pack("<I", checksum(head))


def verify(page: bytes, context: str = "page") -> None:
    """Verify a sealed page, raising :class:`ChecksumError` on damage.

    No-op while verification is disabled.  Failures increment the
    process-wide ``checksum.failures`` counter before raising.
    """
    if not _verification_enabled:
        return
    magic, stored = TRAILER.unpack_from(page, len(page) - TRAILER_SIZE)
    if magic != PAGE_MAGIC:
        get_registry().counter("checksum.failures").add(1)
        raise ChecksumError(
            f"{context}: missing or damaged page trailer "
            f"(magic {magic:#010x}, expected {PAGE_MAGIC:#010x})"
        )
    actual = checksum(page[: len(page) - 4])
    if actual != stored:
        get_registry().counter("checksum.failures").add(1)
        raise ChecksumError(
            f"{context}: checksum mismatch (stored {stored:#010x}, "
            f"computed {actual:#010x})"
        )
