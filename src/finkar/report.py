"""Machine-readable outcomes of law and equivalence checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerifyReport:
    """Outcome of one check: pass/fail/error plus witnesses and sub-reports.

    A failing report carries at least one witness; a sampled report records
    its sample count in `details`.
    """

    check: str
    status: str  # pass | fail | error
    mode: str = "exhaustive"  # exhaustive | sampled
    seed: int = 0
    cap: int = 0
    witnesses: list = field(default_factory=list)
    sub: list["VerifyReport"] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and not self.witnesses and not any(
                not r.passed for r in self.sub):
            raise ValueError("failing report needs a witness or failing sub")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "mode": self.mode,
            "seed": self.seed,
            "cap": self.cap,
            "witnesses": self.witnesses,
            "details": self.details,
            "sub": [r.to_dict() for r in self.sub],
        }


class LawViolation(ValueError):
    """A law fails on well-formed input: a verdict, not an input error.
    `report` is the failing check."""

    def __init__(self, message: str, report: VerifyReport):
        super().__init__(message)
        self.report = report


class ObjectConditionError(ValueError):
    """A machine-form projector fails the splitting-through-carrier condition."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


def passing(check: str, mode: str = "exhaustive", **details) -> VerifyReport:
    return VerifyReport(check=check, status="pass", mode=mode, details=details)


def failing(check: str, witnesses: list, mode: str = "exhaustive",
            **details) -> VerifyReport:
    return VerifyReport(check=check, status="fail", mode=mode,
                        witnesses=witnesses, details=details)


def erroring(check: str, reason: str, **details) -> VerifyReport:
    details = dict(details)
    details["reason"] = reason
    return VerifyReport(check=check, status="error",
                        witnesses=[{"error": reason}], details=details)


def combine(check: str, subs: list[VerifyReport], **details) -> VerifyReport:
    """Aggregate sub-reports; worst status wins (error > fail > pass).

    A failing aggregate names its failing sub-checks as witnesses, so the
    no-witnessless-failure invariant holds at every level."""
    status = "pass"
    if any(r.status == "fail" for r in subs):
        status = "fail"
    if any(r.status == "error" for r in subs):
        status = "error"
    mode = "exhaustive" if all(
        r.mode == "exhaustive" for r in subs) else "sampled"
    seed = subs[0].seed if subs else 0
    cap = max((r.cap for r in subs), default=0)
    witnesses = [{"failing_sub": r.check} for r in subs if not r.passed][:3]
    return VerifyReport(check=check, status=status, mode=mode, seed=seed,
                        cap=cap, witnesses=witnesses if status != "pass" else [],
                        sub=list(subs), details=details)
