"""Records packed in columns.

The initial states, the event log, the ledger, the graph tensor and the
vertex balances keep their records as equal-length arrays, one row per
record, and the layers that consume them are array passes.  Columns is
the base of those blocks.  Rows adds a view of one record at a time, for
the blocks whose rows the benchmark reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache

import numpy as np


@cache
def _names(cls) -> tuple:
    """The field names of a Columns class, looked up once per class."""
    return tuple(f.name for f in fields(cls))


@dataclass(eq=False)
class Columns:
    """A dataclass of equal-length arrays, read by column.

    Subclasses are dataclasses (eq=False) whose fields are the columns.  A
    slice is a block of the same type over views of the columns.
    """

    def _columns(self) -> list:
        return [getattr(self, name) for name in _names(type(self))]

    def __len__(self) -> int:
        return len(getattr(self, _names(type(self))[0]))

    def __getitem__(self, k: slice):
        if not isinstance(k, slice):
            raise TypeError(f"{type(self).__name__} is read by column")
        return type(self)(*(column[k] for column in self._columns()))

    @classmethod
    def concat(cls, *blocks):
        """One block of the rows of blocks, in order."""
        return cls(*(np.concatenate(columns)
                     for columns in zip(*(b._columns() for b in blocks))))


@dataclass(eq=False)
class Rows(Columns, Sequence):
    """Columns that also read as a sequence of records.

    The class attribute record names the record type, a dataclass of the
    same fields in the same order.  Row k of a 1-D column becomes a Python
    scalar, a row of any other column a view.
    """

    record = None

    def __init_subclass__(cls, **kwargs):
        # a row's values build its record positionally
        super().__init_subclass__(**kwargs)
        if cls.record is not None and tuple(
                f.name for f in fields(cls.record)) != tuple(cls.__annotations__):
            raise TypeError(f"{cls.record.__name__} fields differ from the "
                            f"columns of {cls.__name__}")

    def __getitem__(self, k):
        return super().__getitem__(k) if isinstance(k, slice) else self._row(k)

    def __iter__(self):
        """The rows in order, each column read once: tolist() gives a 1-D
        column's Python scalars (as .item() does), iteration the views."""
        columns = (c.tolist() if c.ndim == 1 else c for c in self._columns())
        return map(self.record, *columns)

    def _row(self, k):
        return self.record(*(c[k].item() if c.ndim == 1 else c[k]
                             for c in self._columns()))
