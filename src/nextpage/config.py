"""Engine configuration: the one config type every layer takes, read from a
`key=value` file with the six tunables.

    levels=4              # level-count override (default: ceil(sqrt(p)))
    damping=0.85
    demote_threshold=100
    recency_window=25
    sweep_period=50
    window=2

All tick values are event counts; the three tick thresholds drive the online
sweeps in updates.py.  `levels` and `damping` shape a build (and `damping` a
rank); a model dump stores its level cap and ordinals, so the commands that
load one do not read them.  Unknown or repeated keys are errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .ranking import DEFAULT_DAMPING

DEFAULT_DEMOTE_THRESHOLD = 100
DEFAULT_RECENCY_WINDOW = 25
DEFAULT_SWEEP_PERIOD = 50
DEFAULT_WINDOW = 2

_INT_KEYS = ("levels", "demote_threshold", "recency_window", "sweep_period", "window")


@dataclass(frozen=True)
class EngineConfig:
    levels: int | None = None
    damping: float = DEFAULT_DAMPING
    demote_threshold: int = DEFAULT_DEMOTE_THRESHOLD
    recency_window: int = DEFAULT_RECENCY_WINDOW
    sweep_period: int = DEFAULT_SWEEP_PERIOD
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.levels is not None and self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if not 0.0 < self.damping < 1.0:
            raise ConfigError("damping must be strictly between 0 and 1")
        for name in ("demote_threshold", "recency_window", "sweep_period"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be strictly positive")
        if self.window < 0:
            raise ConfigError("window must be non-negative")


def parse_config(text: str) -> EngineConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key=value'", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ConfigError(f"duplicate key {key}", lineno)
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key == "damping":
                values[key] = float(value)
            else:
                raise ConfigError(f"unknown key {key}", lineno)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key}", lineno) from None
    return EngineConfig(**values)

