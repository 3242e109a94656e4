"""GF(256) erasure-coding round trips: the MDS property, exhaustively.

The coded value backend rests on two facts proven here for every
geometry the repo ships: *any* k of the n fragments reconstruct the
value byte-identically, and k-1 fragments never suffice.

Round trips cannot see a kernel that changes parity bytes consistently,
and stored shares (snapshots, in-flight ``FragmentStore``s) would not
survive one, so the bytes are pinned twice: against ``coding_golden.json``
— fragments written by the encoder before the single-accumulator kernel
and never regenerated — and against a per-byte ``gf_mul`` reference
coder kept in this file.  The kernel's work per fragment is pinned as a
count of its C calls, taken in a fresh interpreter.
"""

import hashlib
import itertools
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.coding import (
    CodingError,
    coding_matrix,
    decode,
    encode,
    gf_inv,
    gf_mul,
    pack_fragments,
    stripe_size,
    unpack_fragments,
)

GEOMETRIES = [(1, 1), (1, 3), (2, 3), (2, 4), (3, 4), (3, 6), (4, 7)]

#: ``{k, n, size, hex | sha256}`` per geometry and size: sizes 0, 1, 17
#: and 4096 as hex fragments, 65,536 as one sha256 per fragment.
GOLDEN = json.loads(Path(__file__).with_name("coding_golden.json").read_text())


def _golden_value(k: int, n: int, size: int) -> bytes:
    return random.Random(f"golden {k} {n} {size}").randbytes(size)


def _dot(row, column) -> int:
    acc = 0
    for coeff, byte in zip(row, column):
        acc ^= gf_mul(coeff, byte)
    return acc


def _ref_invert(matrix) -> list[list[int]]:
    """Gauss-Jordan over GF(256), one element at a time."""
    k = len(matrix)
    aug = [
        list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = gf_inv(aug[col][col])
        aug[col] = [gf_mul(scale, x) for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x ^ gf_mul(factor, y) for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _ref_encode(value: bytes, k: int, n: int) -> list[bytes]:
    """Every fragment, data rows included, one ``gf_mul`` per byte and term."""
    stripe = stripe_size(len(value), k)
    raw = struct.pack(">I", len(value)) + value
    raw += bytes(k * stripe - len(raw))
    data = [raw[i * stripe : (i + 1) * stripe] for i in range(k)]
    return [
        bytes(_dot(row, column) for column in zip(*data))
        for row in coding_matrix(k, n)
    ]


def _ref_decode(fragments: dict[int, bytes], k: int, n: int) -> bytes:
    chosen = sorted(fragments)[:k]
    inverse = _ref_invert([coding_matrix(k, n)[i] for i in chosen])
    columns = list(zip(*(fragments[i] for i in chosen)))
    raw = b"".join(bytes(_dot(row, column) for column in columns) for row in inverse)
    (length,) = struct.unpack_from(">I", raw)
    return raw[4 : 4 + length]


def test_gf_field_axioms_on_samples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
        if a:
            assert gf_mul(a, gf_inv(a)) == 1


@pytest.mark.parametrize("k,n", GEOMETRIES)
def test_any_k_of_n_fragments_reconstruct(k, n):
    rng = random.Random(1000 * k + n)
    for size in (0, 1, k, 17, 4096):
        value = rng.randbytes(size)
        fragments = encode(value, k, n)
        assert len(fragments) == n
        assert len({len(f) for f in fragments}) == 1
        assert len(fragments[0]) == stripe_size(size, k)
        for combo in itertools.combinations(range(n), k):
            subset = {index: fragments[index] for index in combo}
            assert decode(subset, k, n) == value, (size, combo)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 4), (3, 6)])
def test_k_minus_one_fragments_do_not_suffice(k, n):
    value = random.Random(42).randbytes(257)
    fragments = encode(value, k, n)
    for combo in itertools.combinations(range(n), k - 1):
        with pytest.raises(CodingError):
            decode({index: fragments[index] for index in combo}, k, n)


def test_data_fragments_are_verbatim_stripes():
    # Systematic code: holding all k data fragments means decoding is
    # concatenation — the fragments literally are the striped payload.
    value = bytes(range(10)) * 5
    k, n = 3, 5
    fragments = encode(value, k, n)
    raw = b"".join(fragments[:k])
    assert value in raw


def test_single_parity_is_xor():
    # k = n-1: the generator's parity row is all ones, so the parity
    # fragment must be the plain XOR of the data fragments.
    assert coding_matrix(3, 4)[3] == (1, 1, 1)
    value = b"the quick brown fox" * 11
    fragments = encode(value, 3, 4)
    xor = bytes(
        a ^ b ^ c for a, b, c in zip(fragments[0], fragments[1], fragments[2])
    )
    assert fragments[3] == xor


def test_matrix_is_systematic_and_mds():
    for k, n in GEOMETRIES:
        matrix = coding_matrix(k, n)
        assert len(matrix) == n and all(len(row) == k for row in matrix)
        for i in range(k):
            assert matrix[i] == tuple(1 if j == i else 0 for j in range(k))


def test_decode_rejects_malformed_sets():
    fragments = encode(b"payload", 2, 4)
    with pytest.raises(CodingError):
        decode({0: fragments[0]}, 2, 4)
    with pytest.raises(CodingError):
        decode({0: fragments[0], 9: fragments[1]}, 2, 4)
    with pytest.raises(CodingError):
        decode({0: fragments[0], 1: fragments[1][:-1]}, 2, 4)


def test_decode_rejects_corrupt_length_prefix():
    fragments = encode(b"", 2, 4)
    # Flip the length prefix (lives in fragment 0 of the systematic code)
    # to something absurd; decode must refuse rather than over-read.
    corrupt = b"\xff\xff\xff\xff" + fragments[0][4:]
    with pytest.raises(CodingError):
        decode({0: corrupt, 1: fragments[1]}, 2, 4)


def test_geometry_validation():
    with pytest.raises(CodingError):
        coding_matrix(0, 4)
    with pytest.raises(CodingError):
        coding_matrix(5, 4)
    with pytest.raises(CodingError):
        coding_matrix(2, 300)


def test_fragment_blob_round_trip():
    fragments = {0: b"", 2: b"\x00\xff", 7: b"abcdef"}
    assert unpack_fragments(pack_fragments(fragments)) == fragments
    assert pack_fragments({}) == b""
    assert unpack_fragments(b"") == {}


def test_fragment_blob_rejects_truncation():
    blob = pack_fragments({1: b"fragment-bytes"})
    for cut in range(1, len(blob)):
        with pytest.raises(CodingError):
            unpack_fragments(blob[:cut])


def test_the_golden_corpus_covers_every_geometry():
    assert sorted({(r["k"], r["n"]) for r in GOLDEN}) == sorted(GEOMETRIES)
    assert {r["size"] for r in GOLDEN} == {0, 1, 17, 4096, 65536}


@pytest.mark.parametrize(
    "record", GOLDEN, ids=lambda r: f"k{r['k']}n{r['n']}-{r['size']}B"
)
def test_fragments_are_the_golden_bytes(record):
    k, n, size = record["k"], record["n"], record["size"]
    value = _golden_value(k, n, size)
    fragments = encode(value, k, n)
    if "hex" in record:
        assert [f.hex() for f in fragments] == record["hex"]
        fragments = [bytes.fromhex(h) for h in record["hex"]]
    else:
        assert [hashlib.sha256(f).hexdigest() for f in fragments] == record["sha256"]
    # Shares written by the earlier encoder decode from every k-subset.
    for combo in itertools.combinations(range(n), k):
        assert decode({i: fragments[i] for i in combo}, k, n) == value, combo


@pytest.mark.parametrize("k,n", GEOMETRIES)
def test_kernel_matches_the_per_byte_reference(k, n):
    rng = random.Random(7000 + 10 * k + n)
    for size in (0, 1, 17, 255, 1000):
        value = rng.randbytes(size)
        fragments = encode(value, k, n)
        assert fragments == _ref_encode(value, k, n), size
        for combo in itertools.combinations(range(n), k):
            subset = {index: fragments[index] for index in combo}
            assert _ref_decode(subset, k, n) == value, (size, combo)
            assert decode(subset, k, n) == value, (size, combo)


# ----------------------------------------------------------------------
# Kernel work per fragment, as a count of C calls
# ----------------------------------------------------------------------

KERNEL_CALLS = ("translate", "from_bytes", "to_bytes")
WORK_GEOMETRIES = [(2, 4), (3, 5)]


def _kernel_calls(function, *args) -> dict[str, int]:
    counts = dict.fromkeys(KERNEL_CALLS, 0)

    def profiler(frame, event, arg) -> None:
        if event == "c_call" and getattr(arg, "__name__", None) in counts:
            counts[arg.__name__] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return counts


def _work_cases(k: int, n: int):
    """``(label, rows combined, fragment indices decoded or None)`` per
    measured call: encode combines the parity rows; decode combines one
    row of the chosen rows' inverse per *missing* data fragment — none
    for the all-data set."""
    cases = [("encode", list(coding_matrix(k, n)[k:]), None)]
    all_data = tuple(range(k))
    one_data = (0, *range(k, 2 * k - 1))
    last_k = tuple(range(n - k, n))
    for combo in (all_data, one_data, last_k):
        inverse = _ref_invert([coding_matrix(k, n)[i] for i in combo])
        missing = [row for i, row in enumerate(inverse) if i not in combo]
        cases.append((f"decode {combo}", missing, combo))
    return cases


def _expected_calls(rows) -> dict[str, int]:
    return {
        "translate": sum(c not in (0, 1) for row in rows for c in row),
        "from_bytes": sum(c != 0 for row in rows for c in row),
        "to_bytes": len(rows),
    }


def _measure_here() -> dict[str, dict[str, int]]:
    value = random.Random(5).randbytes(4096)
    measured = {}
    for k, n in WORK_GEOMETRIES:
        fragments = encode(value, k, n)  # and warm coding_matrix's cache
        for label, _, combo in _work_cases(k, n):
            if combo is None:
                counts = _kernel_calls(encode, value, k, n)
            else:
                subset = {i: fragments[i] for i in combo}
                counts = _kernel_calls(decode, subset, k, n)
            measured[f"({k}, {n}) {label}"] = counts
    return measured


def test_kernel_work_is_one_conversion_per_term():
    # Counted in a fresh interpreter: sys.setprofile sees every call the
    # process makes (docs/perf.md, "PR 21").
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, __file__], env=env, stdout=subprocess.PIPE, text=True,
        check=True,
    )
    measured = json.loads(done.stdout)
    expected = {
        f"({k}, {n}) {label}": _expected_calls(rows)
        for k, n in WORK_GEOMETRIES
        for label, rows, _ in _work_cases(k, n)
    }
    assert measured == expected
    # A held data fragment is passed through: an all-data decode does no
    # kernel work at all.
    assert measured["(2, 4) decode (0, 1)"] == dict.fromkeys(KERNEL_CALLS, 0)


if __name__ == "__main__":
    print(json.dumps(_measure_here()))
