"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/input problems (and OSError) -> 2,
topology problems -> 3, numeric problems -> 4.
"""


class ConfigError(Exception):
    """Bad or unknown configuration keys/values."""


class MeshError(Exception):
    """Mesh parsing, indexing, or degeneracy problems."""


class TopologyError(Exception):
    """Surface is not what an operation requires (not a disk, disconnected, ...)."""


class NumericError(Exception):
    """Numerical failure: singular systems, non-finite losses, flipped charts."""


class OutOfChartError(Exception):
    """A 2D query point lies outside the chart image."""


class CoverageError(Exception):
    """A surface point is covered by no patch; violates patch-set invariants."""


class FrameDegenerateError(Exception):
    """The coarse Jacobian is rank-deficient where a reference frame was needed."""

    def __init__(self, message="degenerate local frame", mask=None):
        super().__init__(message)
        self.mask = mask


class TapeError(Exception):
    """Misuse of the autodiff tape (no forward recorded, double backward, ...)."""


class CheckpointError(Exception):
    """Checkpoint file is unreadable: bad magic, version mismatch, checksum failure,
    a malformed record or metadata, or tensors that do not fit the stored arch."""


class AlignmentError(Exception):
    """Two models do not share a patch layout / chart, so they cannot be combined."""
