"""Desk-scale federated prompt-learning simulator over frozen encoders.

The submodules (`fedprompt.vlm`, `.algorithms`, `.transport`, `.data`,
`.federation`, `.evaluation`, `.runner`) are the library API; the package
itself exports the error types and the config entry points.
"""

from .errors import (
    AggregationError,
    ConfigError,
    DataError,
    DomainError,
    EvaluationError,
    FedPromptError,
)
from .config import ExperimentConfig, parse_config, serialize_config

__version__ = "0.1.0"
