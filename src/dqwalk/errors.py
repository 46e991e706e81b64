"""Exception types shared across the package."""


class BoundaryError(RuntimeError):
    """Walker support touched the lattice edge, so a shift would lose amplitude.

    States are allocated with a fixed capacity; evolving past it is a caller
    error (undersized t_max), not something to silently truncate.
    """


class RowCheckError(ValueError):
    """A check failed on one row of a stacked (rows, N) computation.

    `row` is the index of the first offending row, so that a caller holding
    many states at once can name the one that failed.  Every row check
    raises it through `metrology.check_rows`; the ensemble kernel turns it
    into the EnsembleMemberError of the row's member.
    """

    def __init__(self, row, message):
        super().__init__(message)
        self.row = row


class ConfigError(ValueError):
    """A run configuration is malformed; the message names the offending field."""


class EnsembleMemberError(RuntimeError):
    """A single ensemble member failed; carries enough context to replay it."""

    def __init__(self, member_index, member_seed, message):
        super().__init__(
            f"ensemble member {member_index} (seed {member_seed}) failed: {message}"
        )
        self.member_index = member_index
        self.member_seed = member_seed

    def __reduce__(self):
        # keep attributes intact through pickling (worker -> parent process)
        return (
            EnsembleMemberError,
            (self.member_index, self.member_seed, str(self).split("failed: ", 1)[-1]),
        )
