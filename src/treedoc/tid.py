"""Tree-path identifiers (TIDs) and their total order.

A TID names one mini-node in the document tree: a disambiguator selects an
entry of the root major node, then each path element walks into the left or
right child of the current mini-node and selects an entry of that child by
disambiguator. The order over TIDs is the infix traversal order of the tree
and is computable from the identifiers alone:

* at the first position where two TIDs differ in direction, left sorts
  before right;
* a node sorts before its own ancestor when it continues leftward and after
  it when it continues rightward (so ``0 < "" < 1`` for bare paths);
* entries sharing a position are ordered by disambiguator.

Comparison is implemented by mapping every TID to a plain tuple whose
lexicographic order realises those rules: each element becomes
``(0, dis)`` for a left step or ``(2, dis)`` for a right step, the root
entry becomes ``(1, dis)``, and a ``(1, b"")`` terminator marks the
ancestor position itself. The key is built once per TID (lazily, on first
comparison), so comparisons and sorting reduce to tuple comparison. So is the
wire size (``_size``, on first ``encoded_size``), which every replica applying
one operation then reads; neither cache enters equality, hashing or copying.

Every path element comes from one bounded, shared table (``ELEMENTS``), so
decoded and allocated TIDs, and the nodes made from them, hold one element
pair and one disambiguator object per site.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import MalformedTID

LEFT = 0
RIGHT = 1

# A site identifier: non-empty bytes, ordered lexicographically, unique per
# site across the whole system.
Disambiguator = bytes


class PathElement(NamedTuple):
    direction: int  # LEFT or RIGHT
    disambiguator: Disambiguator


# Commit digests pack each disambiguator's length in two bytes.
MAX_DISAMBIGUATOR = 0xFFFF
ELEMENTS_CAP = 1024  # disambiguators in the shared element table, at most


class _ElementTable(dict):
    """Disambiguator -> its (left, right) path elements.

    One table per process, not per replica: ``TID.decode`` has no replica to
    keep one on. Its keys come from outside the program, so it holds at most
    ``ELEMENTS_CAP`` and empties when full. It shares immutable values only:
    emptying it costs sharing, never correctness.
    """

    def __missing__(self, dis: Disambiguator) -> tuple[PathElement, PathElement]:
        if len(self) >= ELEMENTS_CAP:
            self.clear()
        pair = self[dis] = (PathElement(LEFT, dis), PathElement(RIGHT, dis))
        return pair


ELEMENTS = _ElementTable()


def _check_disambiguator(dis: bytes) -> None:
    if not isinstance(dis, bytes) or not 0 < len(dis) <= MAX_DISAMBIGUATOR:
        raise MalformedTID(f"not a disambiguator of 1 to 65535 bytes: {dis!r:.40}")


class TID:
    """Immutable identifier of one mini-node.

    ``root_disambiguator`` selects the entry of the root major node; it may
    be ``None`` only for the empty TID (used when writing bare example paths
    such as ``10``; an absent disambiguator sorts before every real one).
    """

    __slots__ = ("root_disambiguator", "path", "_key", "_size", "_hash")

    def __init__(
        self,
        root_disambiguator: Optional[Disambiguator] = None,
        path: tuple[PathElement, ...] = (),
    ):
        if root_disambiguator is not None:
            _check_disambiguator(root_disambiguator)
        elems = []
        for direction, dis in path:
            if direction not in (LEFT, RIGHT):
                raise MalformedTID(f"direction must be 0 or 1, got {direction!r}")
            _check_disambiguator(dis)
            elems.append(ELEMENTS[dis][direction])
        if elems and root_disambiguator is None:
            raise MalformedTID("a TID with a non-empty path needs a root disambiguator")
        object.__setattr__(self, "root_disambiguator", root_disambiguator)
        object.__setattr__(self, "path", tuple(elems))
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_size", None)
        object.__setattr__(self, "_hash", hash((root_disambiguator, self.path)))

    @classmethod
    def _make(cls, root_disambiguator, path: tuple) -> "TID":
        # Trusted fast path for elements taken from an existing tree;
        # skips the per-element validation of __init__.
        self = object.__new__(cls)
        object.__setattr__(self, "root_disambiguator", root_disambiguator)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_size", None)
        object.__setattr__(self, "_hash", hash((root_disambiguator, path)))
        return self

    def _sort_key(self) -> tuple:
        # Built on first comparison; most TIDs are only hashed, never ordered.
        key = self._key
        if key is None:
            key = [(1, self.root_disambiguator or b"")]
            key.extend((2 if d else 0, dis) for d, dis in self.path)
            key.append((1, b""))
            key = tuple(key)
            object.__setattr__(self, "_key", key)
        return key

    def __setattr__(self, name, value):
        raise AttributeError("TID is immutable")

    def __reduce__(self):
        # Rebuilt through the validating constructor, with empty caches.
        return TID, (self.root_disambiguator, self.path)

    def __copy__(self, memo=None):
        return self  # immutable

    __deepcopy__ = __copy__

    # -- ordering ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TID):
            return NotImplemented
        return (
            self.root_disambiguator == other.root_disambiguator
            and self.path == other.path
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "TID") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "TID") -> bool:
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: "TID") -> bool:
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: "TID") -> bool:
        return self._sort_key() >= other._sort_key()

    # -- structure --------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of path elements below the root entry."""
        return len(self.path)

    def child(self, direction: int, dis: Disambiguator) -> "TID":
        if self.root_disambiguator is None:
            raise MalformedTID("cannot extend a TID that has no root disambiguator")
        if direction not in (LEFT, RIGHT):
            raise MalformedTID(f"direction must be 0 or 1, got {direction!r}")
        _check_disambiguator(dis)
        elem = ELEMENTS[dis][direction]
        return TID._make(self.root_disambiguator, self.path + (elem,))

    def __repr__(self):
        return f"TID({self.pretty()})"

    def pretty(self) -> str:
        root = self.root_disambiguator
        parts = ["~" if root is None else root.decode("latin-1")]
        parts.extend(f"{d}{dis.decode('latin-1')}" for d, dis in self.path)
        return "/".join(parts)

    # -- wire encoding ----------------------------------------------------

    def encode(self) -> bytes:
        """Serialize as direction bits plus length-prefixed disambiguators.

        The root entry is carried as the first pair with a zero direction
        bit. Layout: varint pair count, then ceil(n/8) bytes of packed
        direction bits, then each disambiguator length-prefixed (varint).
        """
        root = self.root_disambiguator
        if root is None:
            return b"\x00"
        pairs = len(self.path) + 1
        out = [_ONE_BYTE[pairs] if pairs < 0x80 else _encode_varint(pairs), b""]
        bits = 0
        for i, (direction, dis) in enumerate(((0, root), *self.path)):
            bits |= direction << i
            n = len(dis)
            out += (_ONE_BYTE[n] if n < 0x80 else _encode_varint(n), dis)
        out[1] = bits.to_bytes((pairs + 7) // 8, "little")
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes) -> "TID":
        """Inverse of ``encode``; MalformedTID for bytes it never produces."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise MalformedTID(f"encoded TID must be bytes, not {type(data).__name__}")
        data = bytes(data)
        try:
            count, pos = _decode_varint(data, 0)
            bits = pos
            pos += (count + 7) // 8
            # The root pair's direction bit and the padding bits are zero.
            if count and (data[bits] & 1 or data[pos - 1] >> ((count - 1) % 8 + 1)):
                raise MalformedTID("stray direction bits in encoded TID")
            pairs = []
            for i in range(count):
                length, pos = _decode_varint(data, pos)
                if not 0 < length <= MAX_DISAMBIGUATOR:
                    raise MalformedTID(f"{length}-byte disambiguator in encoded TID")
                dis = data[pos : pos + length]
                pos += length
                pairs.append(ELEMENTS[dis][data[bits + (i >> 3)] >> (i & 7) & 1])
        except IndexError:
            raise MalformedTID("truncated TID encoding") from None
        if pos != len(data):
            raise MalformedTID("encoded TID length does not match its contents")
        return cls._make(pairs[0][1] if pairs else None, tuple(pairs[1:]))

    def encoded_size(self) -> int:
        """len(self.encode()) without building the bytes; computed once."""
        root = self.root_disambiguator
        if root is None:
            return 1  # varint 0
        size = self._size
        if size is None:
            size = header_cost(len(self.path) + 1) + selector_cost(root)
            for _, dis in self.path:
                size += selector_cost(dis)
            object.__setattr__(self, "_size", size)
        return size


def compare_tid(a: TID, b: TID) -> int:
    """-1, 0 or 1 as ``a`` sorts before, equal to, or after ``b``."""
    ka, kb = a._sort_key(), b._sort_key()
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


# -- varints (unsigned LEB128) -------------------------------------------

# The varints of 0-127, one byte each: nearly every length ``encode`` writes.
_ONE_BYTE = [bytes((n,)) for n in range(0x80)]


def _encode_varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and shift:
                raise MalformedTID("overlong varint in encoded TID")
            return result, pos
        shift += 7


def _varint_len(value: int) -> int:
    n = 1
    while value > 0x7F:
        value >>= 7
        n += 1
    return n


def header_cost(pairs: int) -> int:
    """Encoded cost of a TID's pair count and direction bits."""
    return _varint_len(pairs) + (pairs + 7) // 8


def selector_cost(dis: Disambiguator) -> int:
    """Encoded cost of one disambiguator inside a TID: its varint length
    (one byte below 128) and its bytes."""
    n = len(dis)
    return n + 1 if n < 0x80 else n + _varint_len(n)
