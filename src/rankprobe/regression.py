"""Frozen query-count regression constants.

The asymptotic claims the learners implement are realized here as frozen
empirical bounds: constants measured on the shipped suite, reviewed, and
stored with provenance.  Tests and the CLI fail when a measured value
exceeds its constant.  The RANKPROBE_REGRESSION environment variable points
to an alternative config file.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import UsageError
from .model import _check_int

__all__ = ["RegressionConfig", "load_regression_config", "ENV_VAR"]

ENV_VAR = "RANKPROBE_REGRESSION"

_DEFAULT_PATH = Path(__file__).parent / "regression.json"


class RegressionConfig:
    """Named constants plus the sparse-recovery budget table B(N, d)."""

    def __init__(self, doc):
        self.constants = doc.get("constants", {})
        self.b_table = doc.get("sparse_budget_table", {})

    def value(self, name):
        """Constant ``name`` as a float: it must be a finite, positive JSON number
        (not a bool, a string, NaN or an infinity), otherwise UsageError."""
        try:
            value = self.constants[name]["value"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"regression config has no numeric constant {name!r}") from exc
        if type(value) not in (int, float) or not math.isfinite(value) or value <= 0:
            raise UsageError(f"regression constant {name!r} must be a finite positive number, got {value!r}")
        return float(value)

    def note(self, name):
        """Constant ``name``'s provenance note ("" when it has none); a
        constant that is not a JSON object is a UsageError, as in value()."""
        try:
            return self.constants.get(name, {}).get("note", "")
        except AttributeError:
            raise UsageError(f"regression constant {name!r} is not a JSON object") from None

    def sparse_budget(self, N, d):
        """The frozen budget B(N, d): a positive integer, otherwise UsageError."""
        key = f"{N}:{d}"
        if not isinstance(self.b_table, dict) or key not in self.b_table:
            raise UsageError(f"no frozen sparse budget for (N, d) = ({N}, {d})")
        budget = self.b_table[key]
        what = f"the sparse budget for (N, d) = ({N}, {d})"
        _check_int(budget, what)
        if budget < 1:
            raise UsageError(f"{what} must be positive, got {budget}")
        return budget


def load_regression_config(path=None):
    """Load the config from ``path``, the env override, or the packaged default.

    A file that cannot be read, or that is not a JSON object, raises
    UsageError naming it.
    """
    candidate = path or os.environ.get(ENV_VAR) or _DEFAULT_PATH
    try:
        with open(candidate, "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSON or UTF-8 decoding
        raise UsageError(f"cannot load regression config {candidate}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"regression config {candidate} is not a JSON object")
    return RegressionConfig(doc)
