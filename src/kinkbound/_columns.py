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

import numpy as np


@dataclass(eq=False)
class Columns(Sequence):
    """A dataclass of equal-length arrays, read as a sequence of records.

    Subclasses are dataclasses (eq=False) whose fields are the columns and
    whose class attribute record names the record type.  Row k of a 1-D
    column becomes a Python scalar, a row of any other column a view; a
    slice is a block of the same type over views of the columns.
    """

    record = None

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return type(self)(**{f.name: getattr(self, f.name)[k]
                                 for f in fields(self)})
        return self._row(k)

    def _row(self, k):
        values = {}
        for f in fields(self):
            column = getattr(self, f.name)
            values[f.name] = column[k].item() if column.ndim == 1 else column[k]
        return self.record(**values)

    @classmethod
    def concat(cls, *blocks):
        """One block of the rows of blocks, in order."""
        return cls(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks])
                      for f in fields(cls)})
