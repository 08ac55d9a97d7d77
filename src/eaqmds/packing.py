"""Kronecker substitution for polynomials over a field: one integer product.

`fields._packing` lays out one field element of F_p[x]/(f) as a single
Python int, its base-p digits in lanes wide enough that no coefficient of a
product carries into the next, so that `Field.mul` is one int product, which
CPython computes in C (Karatsuba).  `packed_product` does the same one level
up, for a whole polynomial over the field, with lanes wide enough for a
whole convolution sum, and reads a window of the product's coefficients:
the rank oracle's Gram lags (`eaq.ebits_rank_oracle`).  See von zur Gathen
and Gerhard, Modern Computer Algebra, 3rd ed., section 8.4.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import fields


def packed_product(field: fields.Field, xs: Sequence[int], ys: Sequence[int],
                   start: int, stop: int) -> list[int]:
    """Coefficients start..stop-1 of the product of two polynomials over field.

    Digit j of coefficient i of a polynomial goes to lane (2*degree-1)*i + j
    of one integer, so the product of the two integers holds, at lane
    (2*degree-1)*t + s, the coefficient of x^s in coefficient t of the
    product, before reduction by the modulus.  That lane sums at most
    min(len(xs), len(ys)) * degree products of two digits below p; its width
    in bytes is the first that holds that bound, so no lane carries into the
    next.  A polynomial packs as the join of its coefficients' lane bytes
    (`_lane_bytes`, kept in `_lane_memo`), and each lane read back is taken
    mod p, its high ones folded through the field's reduced powers of x.
    """
    p, degree, size = field.p, field.degree, stop - start
    if not xs or not ys or size <= 0:
        return [0] * max(size, 0)
    slots = 2 * degree - 1
    width = (min(len(xs), len(ys)) * degree * (p - 1) ** 2).bit_length() + 7 >> 3
    stride = slots * width
    lanes = _lane_memo(field, width)
    try:
        x, y = _join(lanes, xs), _join(lanes, ys)
    except KeyError:  # codes not packed before at this width
        missing = (range(field.order) if field.order <= fields._TABLE_MAX_ORDER
                   else list({*xs, *ys}.difference(lanes)))
        lanes.update(zip(missing, _lane_bytes(field, width, missing)))
        x, y = _join(lanes, xs), _join(lanes, ys)
    raw = (x * y >> 8 * stride * start & (1 << 8 * stride * size) - 1).to_bytes(
        stride * size, "little")
    read = list(raw[::width])
    for b in range(1, width):
        read = [v | w << 8 * b for v, w in zip(read, raw[b::width])]
    high = [read[s::slots] for s in range(degree, slots)]
    codes = [0] * size
    for i in range(degree - 1, -1, -1):  # digits from the top, Horner in base p
        column = read[i::slots]
        for row, lane in zip(field.reduced_powers, high):
            if row[i]:
                column = [v + row[i] * w for v, w in zip(column, lane)]
        codes = [c * p + v % p for c, v in zip(codes, column)]
    return codes


def _join(lanes: dict[int, bytes], poly: Sequence[int]) -> int:
    """A polynomial packed: its coefficients' lane bytes joined, read as one int."""
    return int.from_bytes(b"".join(map(lanes.__getitem__, poly)), "little")


def _lane_bytes(field: fields.Field, width: int, codes: Sequence[int]) -> list[bytes]:
    """Each code as `packed_product` packs it: its digits in lanes of
    `width` bytes, little-endian, then degree - 1 empty lanes.  Digit j of
    every code is written at once, as a strided slice of one buffer."""
    p, stride = field.p, (2 * field.degree - 1) * width
    buf = bytearray(len(codes) * stride)
    for j in range(field.degree):
        digits, codes = [a % p for a in codes], [a // p for a in codes]
        for b in range(0, (p - 1).bit_length(), 8):  # one pass per byte of a digit
            buf[j * width + (b >> 3)::stride] = bytes([d >> b & 255 for d in digits])
    data = bytes(buf)
    return [data[i:i + stride] for i in range(0, len(data), stride)]


@lru_cache(maxsize=None)
def _lane_memo(field: fields.Field, width: int) -> dict[int, bytes]:
    """`_lane_bytes` of the codes of field packed so far at this width.

    The Grams of one field draw on the same codes again and again.  A miss
    shows as the KeyError of the join, which costs a hit nothing.  Within
    the lookup-table cap (read per call, so that the table-free runs, with
    the cap at 0, take the other branch) a miss fills every code of the
    field; above it, only the codes of the call, so the memo holds codes
    that occurred.  On verify-q9's fields of 25 to 81 elements, lane bytes
    made anew per call took six times as long as joining kept ones, and
    filling only each call's codes missed 18 times instead of 6, about 1%
    of the workload's time.
    """
    return {}
