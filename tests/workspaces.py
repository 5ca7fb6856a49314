"""A workspace that hands out garbage, for the tests of the stages' workspace forms."""

import numpy as np

from qostbc._workspace import Workspace


class NaNWorkspace(Workspace):
    """A :class:`~qostbc._workspace.Workspace` whose every array comes filled
    with all-ones bytes: NaN as a float or complex, -1 as an integer.

    A stage that reads a buffer before writing it, or takes a name again
    while its data there is still needed, then returns a result that differs
    from its allocating call.
    """

    def take(self, name, shape, dtype=complex):
        arr = super().take(name, shape, dtype)
        arr.reshape(-1).view(np.uint8).fill(0xFF)
        return arr
