"""Structured results of statistical and exact checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


@dataclass
class VerificationReport:
    """Outcome of one verification check.

    The pass/fail verdict is a pure function of the recorded statistic,
    reference and level, so a report can be audited without rerunning
    anything; seeds and sample sizes are recorded so it can be reproduced
    bitwise.
    """

    check: str
    passed: bool
    statistic: Optional[float] = None
    reference: Optional[float] = None
    p_value: Optional[float] = None
    level: Optional[float] = None
    seeds: dict = field(default_factory=dict)
    sample_sizes: dict = field(default_factory=dict)
    caveats: tuple = ()
    details: dict = field(default_factory=dict)
    schema_version: int = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "check": self.check,
            "passed": bool(self.passed),
            "statistic": self.statistic,
            "reference": self.reference,
            "p_value": self.p_value,
            "level": self.level,
            "seeds": _json_safe(self.seeds),
            "sample_sizes": _json_safe(self.sample_sizes),
            "caveats": list(self.caveats),
            "details": _json_safe(self.details),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
