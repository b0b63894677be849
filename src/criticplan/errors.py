"""Exception hierarchy shared across the engine."""


class CriticPlanError(Exception):
    """Base class for all engine errors."""


class ContractViolationError(CriticPlanError):
    """A documented precondition was violated by the caller."""


class TerminalStateError(ContractViolationError):
    """No actions exist at a terminal state."""


class HorizonExceededError(ContractViolationError):
    """Applying the action would push the trajectory past the horizon."""


class MissingRationaleError(ContractViolationError):
    """Query generation needs a preceding rationale and none exists."""


class BackendError(CriticPlanError):
    """A generator or critic backend call failed; retryable."""


class EmptyCandidatesError(CriticPlanError):
    """Sampling produced no usable candidates after cleanup."""


class EmptyQueryError(CriticPlanError):
    """The query tokenized to nothing; retrieval is undefined."""


class IngestionError(CriticPlanError):
    """Corpus ingestion failed (duplicate ids, empty input, bad format)."""


class IndexFormatError(IngestionError):
    """A persisted index file cannot be opened or is malformed."""


class ConfigurationError(CriticPlanError):
    """Missing or inconsistent configuration (critics, backends, paths)."""


class TrainingError(CriticPlanError):
    """Reference critic training cannot proceed on the given pairs."""


class PairFormatError(CriticPlanError):
    """A preference-pair file is malformed."""


class PlanningFailureError(CriticPlanError):
    """Every sub-goal at a decision point was masked; the solve cannot proceed."""


class SearchRunError(CriticPlanError):
    """Too many tree-search iterations aborted on backend failures."""


class OutputError(CriticPlanError, OSError):
    """An output file could not be written; the message starts with its path."""
