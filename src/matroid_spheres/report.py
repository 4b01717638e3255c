"""Pass/fail reports shared by all verification routines, and their ``Record`` base."""

from __future__ import annotations

from operator import attrgetter


# ``Record._set``, one per arity, chosen per record class: it sets the fields in
# order by their slot descriptors, past ``__setattr__``.  A loop over ``zip``
# about doubles the cost of a record, and a flag pair builds eleven
_SETTERS = (
    lambda: lambda o: None,
    lambda a: lambda o, x: a(o, x),
    lambda a, b: lambda o, x, y: (a(o, x), b(o, y)),
    lambda a, b, c: lambda o, x, y, z: (a(o, x), b(o, y), c(o, z)),
    lambda a, b, c, d: lambda o, x, y, z, w: (a(o, x), b(o, y), c(o, z), d(o, w)),
    lambda a, b, c, d, e: lambda o, x, y, z, w, v: (a(o, x), b(o, y), c(o, z), d(o, w), e(o, v)),
    lambda a, b, c, d, e, f: lambda o, x, y, z, w, v, u: (a(o, x), b(o, y), c(o, z), d(o, w), e(o, v), f(o, u)),
)


class Record:
    """Value record over its subclass's ``__slots__`` fields: equal and hashed by
    type and fields, with a dataclass-style repr, and frozen once ``__init__`` has
    set the fields by ``_set``.  The package defines no dataclasses: their
    decorator compiles about six methods per class in every CLI start-up."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._set = _SETTERS[len(cls._fields)](*(vars(cls)[f].__set__ for f in cls._fields))
        if "_values" not in vars(cls):  # the fields read in C, as a tuple
            get = attrgetter(*cls._fields)  # which gives one field bare
            cls._values = (lambda self: get(self)) if len(cls._fields) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set(name, passed, detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


class ValidationReport(Record):
    """Ordered list of named checks, ok iff every check passed; mutable, so unhashable."""

    __slots__ = ("checks",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))

    def extend(self, other: "ValidationReport", prefix: str = "") -> None:
        for c in tuple(other.checks):  # a copy, so ``report.extend(report)`` ends
            self.add(prefix + c.name, c.passed, c.detail)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks]}
