"""Systematic k-of-n erasure coding over GF(256).

The coded value backend (``ProtocolConfig.value_coding = "coded"``)
stripes every written value into ``k`` data fragments plus ``n - k``
parity fragments, one fragment per ring member; any ``k`` of the ``n``
fragments reconstruct the value byte-identically, and any ``k - 1`` are
information-theoretically insufficient.  This is the value-dissemination
scheme of coded atomic memory (CASGC): *tags* stay fully replicated —
they are what the protocol orders and the checker validates — while
*values*, the bandwidth- and storage-dominant part, travel and rest as
fragments of ``len(value)/k`` bytes each.

The code is a classic systematic Reed-Solomon construction:

* arithmetic is GF(2^8) with the AES-adjacent primitive polynomial
  ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d), log/antilog tables built at
  import;
* the ``n x k`` generator matrix is a Vandermonde matrix normalised by
  the inverse of its top ``k x k`` block, so the top ``k`` rows are the
  identity (data fragments are verbatim stripes — reads that hold all
  data fragments decode by concatenation) and *any* ``k`` rows remain
  invertible (the MDS property);
* for the single-parity geometry ``k = n - 1`` the parity row is all
  ones: the parity fragment is the XOR of the data fragments.

Every computed fragment — a parity row on encode, a missing data stripe
on decode — is one :func:`_combine`: per non-zero term one
``bytes.translate`` against that coefficient's 256-byte multiplication
table (none when the coefficient is 1) and one ``int.from_bytes``, the
terms XORed into one Python integer, one ``to_bytes`` at the end.  Data
stripes are never converted: encode returns them as sliced, and decode
returns a data fragment it holds as it is.

The value length is carried in a 4-byte prefix inside the striped
payload (fragments are zero-padded to equal length), so ``decode`` needs
no out-of-band length and fragments of the same write are always
``stripe_size(len(value), k)`` bytes.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from functools import lru_cache, reduce
from operator import xor

from repro.errors import ProtocolError


class CodingError(ProtocolError):
    """A fragment set cannot be decoded (too few fragments, bad shape)."""


# ----------------------------------------------------------------------
# GF(256) arithmetic
# ----------------------------------------------------------------------

_GF_POLY = 0x11D

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse; ``a`` must be non-zero."""
    if a == 0:
        raise CodingError("zero has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


#: ``_MUL_TABLES[c]`` maps every byte ``x`` to ``c * x`` — one
#: ``bytes.translate`` multiplies a whole fragment by a coefficient.
_MUL_TABLES = tuple(bytes(gf_mul(c, x) for x in range(256)) for c in range(256))


def _combine(row: Iterable[int], parts: list[bytes], stripe: int) -> bytes:
    """``sum(row[i] * parts[i])`` over GF(256): one output fragment.

    Each non-zero term costs one ``translate`` (none for coefficient 1)
    and one ``int.from_bytes``; the first term is the accumulator, the
    rest are XORed into it, and it is converted back once.
    """
    terms = (
        int.from_bytes(
            part if coeff == 1 else part.translate(_MUL_TABLES[coeff]), "big"
        )
        for coeff, part in zip(row, parts)
        if coeff
    )
    return reduce(xor, terms).to_bytes(stripe, "big")


# ----------------------------------------------------------------------
# Generator matrix
# ----------------------------------------------------------------------


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for coeff, brow in zip(row, b):
            if coeff:
                for j in range(cols):
                    acc[j] ^= gf_mul(coeff, brow[j])
        out.append(acc)
    return out


def _mat_invert(matrix: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inverse of a square matrix over GF(256)."""
    k = len(matrix)
    aug = [
        list(row) + [1 if i == j else 0 for j in range(k)]
        for i, row in enumerate(matrix)
    ]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise CodingError("singular fragment matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_pivot = gf_inv(aug[col][col])
        aug[col] = [gf_mul(inv_pivot, x) for x in aug[col]]
        for row in range(k):
            if row != col and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [
                    x ^ gf_mul(factor, y) for x, y in zip(aug[row], aug[col])
                ]
    return [row[k:] for row in aug]


@lru_cache(maxsize=None)
def coding_matrix(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The systematic ``n x k`` generator matrix for a ``(k, n)`` code.

    Rows ``0..k-1`` are the identity; any ``k`` rows are invertible.
    """
    if not 1 <= k <= n:
        raise CodingError(f"invalid code geometry k={k}, n={n}")
    if n > 255:
        raise CodingError(f"GF(256) supports at most 255 fragments, got n={n}")
    if n == k + 1:
        # Single parity: identity + all-ones (plain XOR), still MDS.
        rows = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        rows.append([1] * k)
        return tuple(tuple(row) for row in rows)
    # Evaluation points alpha^i are distinct for n <= 255; any k rows of
    # the Vandermonde matrix over distinct points are invertible, and
    # normalising by the top block's inverse preserves that while making
    # the data rows the identity.
    vandermonde = [
        [_EXP[(i * j) % 255] for j in range(k)] for i in range(n)
    ]
    top_inv = _mat_invert([list(row) for row in vandermonde[:k]])
    systematic = _mat_mul(vandermonde, top_inv)
    return tuple(tuple(row) for row in systematic)


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------

_LEN_PREFIX = struct.Struct(">I")


def stripe_size(value_len: int, k: int) -> int:
    """Fragment length for a value of ``value_len`` bytes under ``k``."""
    raw = _LEN_PREFIX.size + value_len
    return (raw + k - 1) // k


def encode(value: bytes, k: int, n: int) -> list[bytes]:
    """Stripe ``value`` into ``n`` fragments, any ``k`` of which decode."""
    matrix = coding_matrix(k, n)
    stripe = stripe_size(len(value), k)
    raw = _LEN_PREFIX.pack(len(value)) + value
    raw += bytes(k * stripe - len(raw))
    shards = [raw[i * stripe : (i + 1) * stripe] for i in range(k)]
    return shards + [_combine(row, shards, stripe) for row in matrix[k:]]


def decode(fragments: dict[int, bytes], k: int, n: int) -> bytes:
    """Reconstruct the value from any ``k`` of the ``n`` fragments.

    ``fragments`` maps fragment index to fragment bytes; extras beyond
    ``k`` are ignored.  Raises :class:`CodingError` when fewer than
    ``k`` fragments are supplied or the set is malformed.
    """
    if len(fragments) < k:
        raise CodingError(
            f"need {k} fragments to decode, got {len(fragments)}"
        )
    chosen = sorted(fragments)[:k]
    if any(index < 0 or index >= n for index in chosen):
        raise CodingError(f"fragment index out of range for n={n}: {chosen}")
    stripe = len(fragments[chosen[0]])
    if any(len(fragments[index]) != stripe for index in chosen):
        raise CodingError("fragments of one write must share a length")
    # A data fragment that is present is its own stripe; only the missing
    # ones are combined, each from a row of the chosen rows' inverse.
    shards = [fragments.get(i) for i in range(k)]
    if None in shards:
        matrix = coding_matrix(k, n)
        inverse = _mat_invert([list(matrix[index]) for index in chosen])
        parts = [fragments[index] for index in chosen]
        shards = [
            shard if shard is not None else _combine(row, parts, stripe)
            for shard, row in zip(shards, inverse)
        ]
    raw = b"".join(shards)
    (value_len,) = _LEN_PREFIX.unpack_from(raw, 0)
    if value_len > len(raw) - _LEN_PREFIX.size:
        raise CodingError(
            f"declared value length {value_len} exceeds striped payload"
        )
    return raw[_LEN_PREFIX.size : _LEN_PREFIX.size + value_len]


# ----------------------------------------------------------------------
# Fragment-set blobs (reconfiguration transfer format)
# ----------------------------------------------------------------------
#
# Reconfiguration tokens and commits carry *sets* of fragments in their
# ``value``/pending-entry byte fields: each server on the circle unions
# in the fragments it holds, and the commit's accumulated set is what
# lets a rejoiner re-derive its own fragment from any k peers (the
# RADON-style repair).  The blob is a flat sequence of
# ``(index, length, fragment)`` records.

_BLOB_ENTRY = struct.Struct(">II")


def pack_fragments(fragments: dict[int, bytes]) -> bytes:
    """Serialise a fragment set; the empty set packs to ``b""``."""
    parts = []
    for index in sorted(fragments):
        fragment = fragments[index]
        parts.append(_BLOB_ENTRY.pack(index, len(fragment)))
        parts.append(fragment)
    return b"".join(parts)


def unpack_fragments(blob: bytes) -> dict[int, bytes]:
    """Inverse of :func:`pack_fragments`; raises on malformed blobs."""
    fragments: dict[int, bytes] = {}
    offset = 0
    while offset < len(blob):
        if offset + _BLOB_ENTRY.size > len(blob):
            raise CodingError("truncated fragment blob header")
        index, length = _BLOB_ENTRY.unpack_from(blob, offset)
        offset += _BLOB_ENTRY.size
        if offset + length > len(blob):
            raise CodingError("truncated fragment blob entry")
        fragments[index] = blob[offset : offset + length]
        offset += length
    return fragments
