"""Records packed in columns.

The initial states, the event log, the ledger and the graph tensor keep
their records as equal-length arrays, one row per record, and the layers
that consume them are array passes.  Columns is the base of those blocks: a dataclass of the
arrays that also reads as a sequence of the record type, for the callers
that want one record at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache

import numpy as np


@cache
def _names(cls) -> tuple:
    """The field names of a Columns class, looked up once per class.  Its
    record type, where it has one, takes the same fields in the same order,
    so a row's values build a record positionally."""
    names = tuple(f.name for f in fields(cls))
    if cls.record is not None and tuple(
            f.name for f in fields(cls.record)) != names:
        raise TypeError(f"{cls.record.__name__} fields differ from the "
                        f"columns of {cls.__name__}")
    return names


@dataclass(eq=False)
class Columns(Sequence):
    """A dataclass of equal-length arrays, read as a sequence of records.

    Subclasses are dataclasses (eq=False) whose fields are the columns and
    whose class attribute record names the record type, a dataclass of the
    same fields in the same order.  Row k of a 1-D column becomes a Python
    scalar, a row of any other column a view; a slice is a block of the
    same type over views of the columns.
    """

    record = None

    def _columns(self) -> list:
        return [getattr(self, name) for name in _names(type(self))]

    def __len__(self) -> int:
        return len(getattr(self, _names(type(self))[0]))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return type(self)(*(column[k] for column in self._columns()))
        return self._row(k)

    def __iter__(self):
        """The rows in order, each column read once: tolist() gives a 1-D
        column's Python scalars (as .item() does), iteration the views."""
        columns = (c.tolist() if c.ndim == 1 else c for c in self._columns())
        return (self.record(*values) for values in zip(*columns))

    def _row(self, k):
        return self.record(*(c[k].item() if c.ndim == 1 else c[k]
                             for c in self._columns()))

    @classmethod
    def concat(cls, *blocks):
        """One block of the rows of blocks, in order."""
        return cls(*(np.concatenate(columns)
                     for columns in zip(*(b._columns() for b in blocks))))
