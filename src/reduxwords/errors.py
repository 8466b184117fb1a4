"""Exception types shared across the package."""


class ReduxwordsError(Exception):
    """Base class for library-specific failures."""


class WordDomainError(ReduxwordsError, ValueError):
    """A word operation received input outside its domain (empty, too short)."""


class ConfigurationError(ReduxwordsError, ValueError):
    """Invalid morphism, policy, or sequence-construction parameters."""


class SpecFileError(ConfigurationError):
    """A sequence spec file could not be parsed."""


class CapacityError(ReduxwordsError, RuntimeError):
    """A prefix materialization request exceeded the handle's hard cap."""


class StabilizationError(ReduxwordsError, RuntimeError):
    """Profile values failed to stabilize within the allowed window doublings.

    Carries the last (uncertified) profile values as ``partial_values``, an
    int64 array indexed by window length as a profile's ``values`` is, so
    callers can surface partial results instead of silently truncating,
    and ``first_unstable_n``, the least window length whose values differed
    between the last two windows.
    """

    def __init__(
        self,
        message: str,
        partial_values=None,
        window: int | None = None,
        first_unstable_n: int | None = None,
    ):
        super().__init__(message)
        self.partial_values = partial_values
        self.window = window
        self.first_unstable_n = first_unstable_n


class SmallCaseException(ReduxwordsError, ValueError):
    """A closed form was evaluated at an index it deliberately does not cover.

    The eventually-periodic laws hold from some small index on; below it the
    true value is known but differs from the formula. ``known_value`` is that
    true value, so harnesses can treat the index as a declared exception
    rather than a counterexample.
    """

    def __init__(self, n: int, known_value: int):
        super().__init__(f"closed form does not cover n={n} (true value {known_value})")
        self.n = n
        self.known_value = known_value
