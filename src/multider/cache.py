"""One least-recently-used store, bounded by bytes, for what the solvers remember.

It holds divisibility templates keyed by (primitive form, degree)
(`graded._template`), graded bases by (arrangement, m, degree)
(`graded._Engine.basis`) and rank-2 order bases by (essential arrangement,
m) (`rank2._order_basis`); keys of different kinds never compare equal.
Each entry carries its size, an upper bound on the bytes its value
allocates, and the oldest entries are evicted while the sizes add up to more
than `_CACHE_BYTES`.  `get` makes a hit the newest entry; `peek` and `in`
leave the order alone, so a lookup that only chooses a route does not change
what is evicted.
"""

from collections import OrderedDict
from itertools import chain

# an X3 exponents query at m = (7, 7, 7, 6, 6, 6) holds 102 templates of
# 4.3 MiB in all; rank2-lattice's 1,000 B2 order bases take 0.84 MiB
_CACHE_BYTES = 64 * 2**20

_bit_length, _flat = int.bit_length, chain.from_iterable


def rows_bytes(rows) -> int:
    """What `sys.getsizeof` counts for a tuple of integer tuples and everything in it, from above,
    but for its zeros.

    A tuple of n items takes 40 + 8 n bytes and an integer of b bits at most
    28 + b / 7.5.  CPython shares the integers -5..256 rather than allocating
    them, so a zero costs only its slot; zeros are nearly all the shared
    integers of a basis, and cheaper to count than the range.
    """
    flat = [*_flat(rows)]
    return 40 + 48 * len(rows) + 36 * len(flat) - 28 * flat.count(0) + sum(map(_bit_length, flat)) // 7


class Store:
    """Values by key with their sizes, least recently used first."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key):
        """The value at key, or None, leaving its place in the order."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def get(self, key):
        """The value at key, or None; a hit becomes the newest entry."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        return None

    def put(self, key, value, nbytes: int) -> None:
        """Store value at key as the newest entry, then evict the oldest while over `_CACHE_BYTES`."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        self._entries[key] = value, nbytes
        self.nbytes += nbytes
        while self.nbytes > _CACHE_BYTES:
            self.nbytes -= self._entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


store = Store()
