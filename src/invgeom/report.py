"""Validation findings and named check results."""

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Violation:
    check: str
    witness: tuple
    message: str = ""

    def __str__(self):
        msg = f": {self.message}" if self.message else ""
        return f"{self.check} violated at {self.witness}{msg}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    data: dict = field(default_factory=dict)

    def __str__(self):
        if "skipped_after" in self.data:
            return f"SKIP {self.name} after {', '.join(self.data['skipped_after'])}"
        status = "PASS" if self.passed else "FAIL"
        extra = f" witness={self.witness}" if self.witness is not None else ""
        return f"{status} {self.name}{extra}"


def jsonable(value):
    """Reduce report values to plain JSON types, deterministically.

    Fractions become 'p/q' strings and infinities become 'inf' so reports
    are byte-identical across runs.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return int(value) if value == int(value) else value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return jsonable(value.item())
    return str(value)


def checks_to_json(checks):
    return {
        "checks": [
            {
                "name": c.name,
                "pass": c.passed,
                "witness": jsonable(c.witness),
                "data": jsonable(c.data),
            }
            for c in checks
        ],
        "passed": all(c.passed for c in checks),
    }


def checks_to_text(checks):
    lines = [str(c) for c in checks]
    verdict = "ALL CHECKS PASSED" if all(c.passed for c in checks) else "FAILURES PRESENT"
    return "\n".join(lines + [verdict]) + "\n"
