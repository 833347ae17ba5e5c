"""Array-backed dense stores for per-line counters.

The wear tracker and the dedup index both keep integers keyed by physical
line address.  Plain dicts/Counters work but cost one boxed int and one
hash-table entry per line; at device scale (millions of lines) that is the
dominant memory consumer and a measurable slice of the per-access time.

:class:`PagedCounterStore` keeps the counters in fixed-size ``array('Q')``
pages allocated on first touch, so densely-used regions (the data area, the
metadata tables) cost 8 bytes per line with no per-entry boxing, while the
untouched remainder of a 16 GiB device costs nothing.
"""

from __future__ import annotations

from array import array
from typing import Iterator

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
_ZERO_PAGE = bytes(8 * PAGE_SIZE)


def new_page() -> array:
    """A zeroed page, for callers that inline :meth:`PagedCounterStore.add`."""
    return array("Q", _ZERO_PAGE)


class PagedCounterStore:
    """A sparse array of non-negative integers, dense within 4096-line pages."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        # Page index -> page.  Public so the hottest writers (the wear
        # tracker) can inline :meth:`add`.
        self.pages: dict[int, array] = {}

    def get(self, key: int) -> int:
        """Current value at ``key`` (0 if never set)."""
        page = self.pages.get(key >> PAGE_SHIFT)
        return page[key & PAGE_MASK] if page is not None else 0

    def set(self, key: int, value: int) -> None:
        """Set the value at ``key``."""
        pages = self.pages
        index = key >> PAGE_SHIFT
        page = pages.get(index)
        if page is None:
            page = pages[index] = new_page()
        page[key & PAGE_MASK] = value

    def add(self, key: int, delta: int) -> int:
        """Add ``delta`` at ``key``; returns the new value."""
        pages = self.pages
        index = key >> PAGE_SHIFT
        page = pages.get(index)
        if page is None:
            page = pages[index] = new_page()
        slot = key & PAGE_MASK
        value = page[slot] + delta
        page[slot] = value
        return value

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def __contains__(self, key: int) -> bool:
        return self.get(key) != 0

    # Dict-style access, so the store drops into code written against a
    # plain ``dict[int, int]`` (audits, tests poking counters directly).
    # Unlike a dict, reading an absent key yields 0 rather than KeyError —
    # the semantics every counter user wants anyway.
    __getitem__ = get
    __setitem__ = set

    def __iter__(self) -> Iterator[int]:
        return self.keys()

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (key, value) for every non-zero entry, pages in key order."""
        for index in sorted(self.pages):
            page = self.pages[index]
            base = index << PAGE_SHIFT
            for slot, value in enumerate(page):
                if value:
                    yield base + slot, value

    def keys(self) -> Iterator[int]:
        """Yield every key with a non-zero value, ascending."""
        for key, _ in self.items():
            yield key

    def max_key(self) -> int | None:
        """Largest key with a non-zero value (None when empty)."""
        for index in sorted(self.pages, reverse=True):
            page = self.pages[index]
            for slot in range(PAGE_SIZE - 1, -1, -1):
                if page[slot]:
                    return (index << PAGE_SHIFT) + slot
        return None

    def clear(self) -> None:
        """Drop every entry (and every page)."""
        self.pages.clear()
