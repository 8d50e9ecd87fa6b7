"""Machine-readable outcomes of law and equivalence checks."""

from __future__ import annotations


class VerifyReport:
    """Outcome of one check: pass/fail/error plus witnesses and sub-reports.

    `mode` is exhaustive or sampled.  A failing report carries at least one
    witness; a sampled report records its sample count in `details`.
    `witnesses`, `sub` and `details` default to a fresh list or dict per
    report.
    """

    __slots__ = ("check", "status", "mode", "seed", "cap", "witnesses",
                 "sub", "details")

    def __init__(self, check: str, status: str, mode: str = "exhaustive",
                 seed: int = 0, cap: int = 0, witnesses: list | None = None,
                 sub: list[VerifyReport] | None = None,
                 details: dict | None = None):
        if status not in ("pass", "fail", "error"):
            raise ValueError(f"bad status {status!r}")
        if status == "fail" and not witnesses and not any(
                not r.passed for r in sub or ()):
            raise ValueError("failing report needs a witness or failing sub")
        self.check, self.status, self.mode = check, status, mode
        self.seed, self.cap = seed, cap
        self.witnesses = [] if witnesses is None else witnesses
        self.sub = [] if sub is None else sub
        self.details = {} if details is None else details

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
    """A projector fails its object condition, or carves no lawful algebra."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


def passing(check: str, **details) -> VerifyReport:
    return VerifyReport(check, "pass", details=details)


def failing(check: str, witnesses: list, **details) -> VerifyReport:
    return VerifyReport(check, "fail", witnesses=witnesses, details=details)


def erroring(check: str, reason: str, **details) -> VerifyReport:
    details = dict(details)
    details["reason"] = reason
    return VerifyReport(check=check, status="error",
                        witnesses=[{"error": reason}], details=details)


def combine(check: str, subs: list[VerifyReport], **details) -> VerifyReport:
    """Aggregate sub-reports; worst status wins (error > fail > pass).

    A failing aggregate names its failing sub-checks as witnesses, so the
    no-witnessless-failure invariant holds at every level."""
    status, mode, cap, witnesses = "pass", "exhaustive", 0, []
    for r in subs:
        if r.status != "pass":
            status = "error" if "error" in (status, r.status) else "fail"
            witnesses.append({"failing_sub": r.check})
        if r.mode != "exhaustive":
            mode = "sampled"
        if r.cap > cap:
            cap = r.cap
    seed = subs[0].seed if subs else 0
    return VerifyReport(check=check, status=status, mode=mode, seed=seed,
                        cap=cap, witnesses=witnesses[:3], sub=list(subs),
                        details=details)
