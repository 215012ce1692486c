"""Shared primitives: verification reports, budget errors, bit-string encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class BudgetError(RuntimeError):
    """An operation exceeded its configured enumeration or message budget."""


@dataclass(frozen=True)
class Report:
    """Outcome of a verification pass: ok plus the first violation found."""

    ok: bool
    reason: str | None = None
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def ok_report(**detail) -> Report:
    return Report(True, None, detail)


def fail_report(reason: str, **detail) -> Report:
    return Report(False, reason, detail)


# --- bit strings -----------------------------------------------------------
#
# Messages and serialized algorithm states are strings over {0,1}; space and
# communication are measured as their length.

def int_width(max_value: int) -> int:
    """Bits needed to write any integer in [0, max_value]."""
    if max_value < 0:
        raise ValueError("max_value must be nonnegative")
    return max(1, math.ceil(math.log2(max_value + 1))) if max_value > 0 else 0


@lru_cache(maxsize=4096)
def encode_int(value: int, width: int) -> str:
    if value < 0 or (width < value.bit_length()):
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width > 0 else ""


def decode_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def encode_ints(values, width: int) -> str:
    """Concatenate the `width`-bit forms of nonnegative integers (any iterable)."""
    values = list(values)
    if values and (min(values) < 0 or max(values).bit_length() > width):
        bad = next(v for v in values if v < 0 or v.bit_length() > width)
        raise ValueError(f"{bad} does not fit in {width} bits")
    if not values or width == 0:
        return ""
    if width > 64:  # beyond uint64: one exact Python int per value
        return "".join(format(v, f"0{width}b") for v in values)
    octets = np.array(values, dtype=">u8").view(np.uint8).reshape(-1, 8)
    digits = np.unpackbits(octets, axis=1)[:, 64 - width :]
    digits += ord("0")
    return digits.tobytes().decode("ascii")


def decode_ints(bits: str, width: int) -> list[int]:
    if width == 0:
        return []
    if len(bits) % width:
        raise ValueError("bit string length is not a multiple of the field width")
    if width > 64:
        return [int(bits[i : i + width], 2) for i in range(0, len(bits), width)]
    digits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    if (digits > 1).any():
        raise ValueError("bit strings hold only '0' and '1'")
    values = np.zeros(len(bits) // width, dtype=np.uint64)
    for column in digits.reshape(-1, width).T:  # most significant bit first
        values = (values << 1) | column
    return values.tolist()
