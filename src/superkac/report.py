"""Structured pass/fail reporting for exact verification checks."""

from __future__ import annotations

from superkac.record import Record


class CheckItem(Record):
    name: str
    passed: bool
    location: str | None = None
    residual: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.location:
            extra = f"  at {self.location}"
            if self.residual is not None:
                extra += f"  residual {self.residual}"
        return f"[{status}] {self.name}{extra}"


class VerificationReport(Record, frozen=False):
    """A list of named exact checks; every failure carries a locator."""

    title: str
    items: list = []

    def add_pass(self, name: str):
        self.items.append(CheckItem(name, True))

    def add_fail(self, name: str, location: str, residual: str | None = None):
        self.items.append(CheckItem(name, False, location, residual))

    def extend(self, other: "VerificationReport"):
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def failures(self):
        return [item for item in self.items if not item.passed]

    def summary(self) -> str:
        n_fail = len(self.failures)
        verdict = "all checks passed" if n_fail == 0 else f"{n_fail} check(s) FAILED"
        lines = [f"{self.title}: {verdict} ({len(self.items)} checks)"]
        lines += [item.line() for item in self.failures]
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": it.name, "passed": it.passed,
                 "location": it.location, "residual": it.residual}
                for it in self.items
            ],
        }
