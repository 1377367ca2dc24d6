"""Key spaces: map user keys onto a fixed-width integer view.

Every filter in this repository is defined over unsigned integers of a fixed
bit width.  :class:`IntegerKeySpace` is the identity mapping for 64-bit
integer keys; :class:`StringKeySpace` pads variable-length byte strings with
trailing null bytes up to a maximum length and interprets them as big-endian
integers, which preserves lexicographic order (Section 7 of the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence


class KeySpace(ABC):
    """A totally ordered key domain viewed as ``width``-bit unsigned integers."""

    #: Number of bits in the integer view of a key.
    width: int

    @abstractmethod
    def encode(self, key) -> int:
        """Map a user key to its integer view."""

    @abstractmethod
    def decode(self, value: int):
        """Map an integer view back to a user key (inverse of :meth:`encode`)."""

    def encode_many(self, keys: Iterable) -> list[int]:
        """Encode an iterable of keys; convenience wrapper around :meth:`encode`."""
        return [self.encode(key) for key in keys]

    @property
    def max_value(self) -> int:
        """Largest integer representable in this key space."""
        return (1 << self.width) - 1

    def validate(self, value: int) -> int:
        """Raise :class:`ValueError` if ``value`` is outside the key space."""
        if not 0 <= value <= self.max_value:
            raise ValueError(
                f"value {value} outside the {self.width}-bit key space"
            )
        return value


class IntegerKeySpace(KeySpace):
    """Fixed-width unsigned integer keys (the paper's 64-bit integer setting)."""

    def __init__(self, width: int = 64):
        if width <= 0:
            raise ValueError("key width must be positive")
        self.width = width

    def encode(self, key: int) -> int:
        return self.validate(int(key))

    def decode(self, value: int) -> int:
        return self.validate(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntegerKeySpace(width={self.width})"


class StringKeySpace(KeySpace):
    """Variable-length byte-string keys padded to a fixed maximum length.

    Keys shorter than ``max_length`` bytes are padded with trailing null
    bytes, exactly as Proteus does for its prefix Bloom filter (Section 7.1).
    As the paper notes, the filter therefore does not distinguish a short key
    from its null-padded equivalents.
    """

    def __init__(self, max_length: int):
        if max_length <= 0:
            raise ValueError("maximum key length must be positive")
        self.max_length = max_length
        self.width = 8 * max_length

    @classmethod
    def for_keys(cls, keys: Sequence[bytes | str]) -> "StringKeySpace":
        """Build a key space sized for the longest key in ``keys``."""
        if not keys:
            raise ValueError("cannot infer a key space from an empty key set")
        max_length = max(len(cls._as_bytes(key)) for key in keys)
        return cls(max_length)

    @staticmethod
    def _as_bytes(key: bytes | str) -> bytes:
        if isinstance(key, str):
            return key.encode("utf-8")
        return bytes(key)

    def encode(self, key: bytes | str | int) -> int:
        if isinstance(key, int):
            # Already in the padded-integer view (the scalar-loop contract
            # of ByteQueryBatch.pairs); just bounds-check it.
            return self.validate(key)
        raw = self._as_bytes(key)
        if len(raw) > self.max_length:
            raise ValueError(
                f"key of length {len(raw)} exceeds maximum {self.max_length}"
            )
        padded = raw.ljust(self.max_length, b"\x00")
        return int.from_bytes(padded, "big")

    def decode(self, value: int) -> bytes:
        self.validate(value)
        raw = value.to_bytes(self.max_length, "big")
        return raw.rstrip(b"\x00")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StringKeySpace(max_length={self.max_length})"
