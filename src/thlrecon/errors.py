"""Exception hierarchy shared by the whole package."""


class ThlreconError(Exception):
    """Base class for all errors raised by this package."""


class ParamsError(ThlreconError):
    """A reconciliation configuration violates a derivation constraint.

    The message names the first violated constraint so both hosts fail
    identically before any traffic is exchanged.
    """

    def __init__(self, constraint, detail=""):
        self.constraint = constraint
        msg = constraint if not detail else f"{constraint}: {detail}"
        super().__init__(msg)


class LinAlgError(ThlreconError):
    """A binary matrix could not be inverted or completed: its rows are
    dependent."""


class DecodingError(ThlreconError):
    """A bounded-distance decoder had no codeword within its radius."""


class InconsistentDigests(ThlreconError):
    """Digest pair does not correspond to a valid instance.

    Raised when any decoding sub-step fails or the reconstructed
    symmetric difference fails structural re-validation.  Signals that
    the two sets were not a (t,h,l)-pair under the agreed parameters.
    """


class ParamMismatch(ThlreconError):
    """Peers hold different parameter fingerprints."""


class FrameError(ThlreconError):
    """Malformed wire frame or serialized digest."""
