"""Reusable scratch arrays for the stages of a Monte Carlo batch.

Every stage of :func:`qostbc.harness._sim_batch` takes the temporaries it
needs from one :class:`Workspace`, so a second batch of the same or a
smaller size allocates only the arrays the stages return, each with
``np.empty``.  A stage called without a workspace takes its temporaries
from :data:`ALLOCATE`, which allocates every array anew.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "ALLOCATE"]


class Workspace:
    """Named flat buffers, grown on demand and reused, for one thread at a time.

    ``take(name, shape, dtype)`` returns a C-contiguous array on the leading
    bytes of the buffer ``name``, growing the buffer first if it is too
    small; its contents are undefined.  ``shape`` is a tuple.  The array of
    each ``(name, shape, dtype)`` is made once and handed out again, so a
    shorter last batch takes leading views of the full batch's buffers.

    It lends temporaries only.  They are taken under the shared names
    ``"scratch0"`` to ``"scratch3"`` and are dead when the stage returns: a
    stage holds none of them across a call of another stage on the same
    workspace, and returns none of them, so stages whose temporaries are
    never live at once share their storage.
    """

    def __init__(self):
        self._buffers = {}
        self._views = {}  # (name, shape, dtype) -> the array take returned

    def take(self, name, shape, dtype=complex):
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is not None:
            return view
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            if buf is not None:  # views of the old buffer are not handed out again
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            # float64 elements keep every dtype the stages use aligned
            buf = self._buffers[name] = np.empty(-(-nbytes // 8), dtype=np.float64)
        view = self._views[key] = buf.view(np.uint8)[:nbytes].view(dtype).reshape(shape)
        return view


class _Allocate:
    """What a stage takes its temporaries from when it is given no workspace."""

    @staticmethod
    def take(name, shape, dtype=complex):
        return np.empty(shape, dtype)


ALLOCATE = _Allocate()
