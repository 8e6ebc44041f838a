"""Small result records shared by the verification suites."""

from __future__ import annotations

from .epsmat import record


@record
class CheckResult:
    """Outcome of one named identity or relation check."""

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.__dict__.update(name=name, passed=passed, detail=detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail and not self.passed else ""
        return f"[{status}] {self.name}{tail}"


@record
class SuiteReport:
    """A batch of named checks; passes only if every check does."""

    def __init__(self, checks: tuple[CheckResult, ...]):
        self.__dict__.update(checks=checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


@record
class CheckReport:
    """Pass/fail over an enumerated search space, with first counterexample."""

    def __init__(self, passed: bool, checked: int, counterexample: str | None = None):
        self.__dict__.update(passed=passed, checked=checked, counterexample=counterexample)

    def line(self) -> str:
        if self.passed:
            return f"PASS ({self.checked} cases)"
        return f"FAIL after {self.checked} cases: {self.counterexample}"

    def lines(self) -> list[str]:
        return [self.line()]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checked": self.checked,
                "counterexample": self.counterexample, "notes": []}
