"""Query requests: the service's wire format, validated and canonical.

A :class:`QueryRequest` is the unit of work the serving layer accepts —
one query of one of the paper's three languages, self-contained: the
program text, the database (as the :mod:`repro.io` JSON structure), the
event, evaluation parameters, and an optional per-job budget.

Two derived keys drive the serving architecture:

* :meth:`QueryRequest.session_key` — SHA-256 of (semantics, program,
  database, pc-tables).  Requests with the same session key share one
  :class:`~repro.service.session.EngineSession`: the program is parsed
  and the transition cache warmed once, then reused.
* :meth:`QueryRequest.cache_key` — SHA-256 of the session key plus the
  event, every evaluation parameter, and the seed.  Requests with the
  same cache key are *the same computation* — sampling runs are seeded,
  so results are deterministic — and the
  :class:`~repro.service.result_cache.ResultCache` serves repeats
  without re-evaluating.  Budgets and priority are deliberately
  excluded: they shape whether/when a job runs, never its value.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

from repro.errors import InvalidRequestError
from repro.runtime.budget import Budget

#: The query languages the service evaluates.
SEMANTICS = ("forever", "inflationary", "datalog")

#: Priority lanes, highest first.
PRIORITIES = ("high", "normal")

#: Recognised evaluation parameters per semantics (a superset check;
#: mode applicability is enforced at evaluation time).
_COMMON_PARAMS = frozenset({"epsilon", "delta", "samples", "seed", "max_states"})
_PARAMS = {
    "forever": _COMMON_PARAMS
    | {
        "mcmc", "lumped", "fallback", "burn_in", "workers", "cache_size",
        "backend", "partition",
    },
    "inflationary": _COMMON_PARAMS | {"workers", "cache_size", "backend", "partition"},
    "datalog": _COMMON_PARAMS,
}

#: Recognised execution backends.  ``frozenset``/``columnar`` mirror
#: repro.core.evaluation.backend; ``sparse`` (forever-queries only)
#: answers through the certified CSR rung first, keeping the fallback
#: ladder behind it.
_BACKENDS = ("frozenset", "columnar", "sparse")

#: Degradation ladders (repro.runtime.degradation) and partition modes.
_FALLBACKS = ("none", "sparse", "lumped", "mcmc", "auto")
_PARTITIONS = ("auto", "off")


def _is_int(value: Any) -> bool:
    # bool is an int subclass; ``true`` is never a count or a seed.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


#: Per param: the check a non-null value must pass, and what it must be.
#: ``null`` always means "the evaluator's default".
_PARAM_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "samples": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "burn_in": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "max_states": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "workers": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "cache_size": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "seed": (_is_int, "an integer"),
    "epsilon": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "delta": (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "mcmc": (lambda v: isinstance(v, bool), "a boolean"),
    "lumped": (lambda v: isinstance(v, bool), "a boolean"),
    "backend": (lambda v: v in _BACKENDS, f"one of {list(_BACKENDS)}"),
    "partition": (lambda v: v in _PARTITIONS, f"one of {list(_PARTITIONS)}"),
    "fallback": (lambda v: v in _FALLBACKS, f"one of {list(_FALLBACKS)}"),
}

_BUDGET_KEYS = frozenset({"timeout", "max_steps"})


def _canonical(payload: Any) -> str:
    """Deterministic JSON rendering for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidRequestError(message)


@dataclass(frozen=True)
class QueryRequest:
    """One validated query for the serving layer.

    Attributes
    ----------
    semantics:
        ``"forever"``, ``"inflationary"``, or ``"datalog"``.
    program:
        The program text: ``Name := expression`` kernel lines for the
        fixpoint semantics, datalog rules for ``datalog``.
    database:
        The database as the :mod:`repro.io` JSON structure (a dict).
    event:
        A ground event atom, e.g. ``"C(b)"``.
    pc_tables:
        Optional pc-table JSON (datalog only, Definition 2.1).
    params:
        Evaluation parameters; the recognised keys per semantics are in
        ``repro.service.request._PARAMS``.  Unknown keys, and values of
        the wrong type or range (``_PARAM_RULES``), are rejected.
    budget:
        Optional ``{"timeout": seconds, "max_steps": n}``.
    priority:
        ``"normal"`` (default) or ``"high"`` (served first).

    Examples
    --------
    >>> request = QueryRequest.from_json({
    ...     "semantics": "forever",
    ...     "program": "C := C",
    ...     "database": {"relations": {"C": {"columns": ["I"], "rows": [["a"]]}}},
    ...     "event": "C(a)",
    ... })
    >>> request.priority
    'normal'
    >>> request.cache_key() == request.cache_key()
    True
    """

    semantics: str
    program: str
    database: Mapping[str, Any]
    event: str
    pc_tables: Mapping[str, Any] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    budget: Mapping[str, Any] = field(default_factory=dict)
    priority: str = "normal"

    def __post_init__(self) -> None:
        _require(
            self.semantics in SEMANTICS,
            f"unknown semantics {self.semantics!r}; expected one of {SEMANTICS}",
        )
        _require(
            isinstance(self.program, str) and bool(self.program.strip()),
            "program must be a non-empty string",
        )
        _require(isinstance(self.database, Mapping), "database must be a JSON object")
        _require(
            isinstance(self.event, str) and bool(self.event.strip()),
            "event must be a non-empty string",
        )
        _require(
            self.pc_tables is None or isinstance(self.pc_tables, Mapping),
            "pc_tables must be a JSON object",
        )
        _require(
            self.pc_tables is None or self.semantics == "datalog",
            "pc_tables are only supported for datalog requests",
        )
        _require(isinstance(self.params, Mapping), "params must be a JSON object")
        allowed = _PARAMS[self.semantics]
        unknown = sorted(set(self.params) - allowed)
        _require(
            not unknown,
            f"unknown params for {self.semantics!r}: {unknown}; "
            f"expected a subset of {sorted(allowed)}",
        )
        for key, value in self.params.items():
            check, expected = _PARAM_RULES[key]
            _require(
                value is None or check(value),
                f"param {key!r} must be {expected}, got {value!r}",
            )
        _require(
            self.params.get("backend") != "sparse" or self.semantics == "forever",
            "backend 'sparse' applies to forever-queries only",
        )
        _require(isinstance(self.budget, Mapping), "budget must be a JSON object")
        bad_budget = sorted(set(self.budget) - _BUDGET_KEYS)
        _require(
            not bad_budget,
            f"unknown budget keys: {bad_budget}; "
            f"expected a subset of {sorted(_BUDGET_KEYS)}",
        )
        _require(
            self.priority in PRIORITIES,
            f"unknown priority {self.priority!r}; expected one of {PRIORITIES}",
        )

    @classmethod
    def from_json(cls, data: Any) -> "QueryRequest":
        """Build and validate a request from a decoded JSON body."""
        _require(isinstance(data, Mapping), "request body must be a JSON object")
        known = {
            "semantics", "program", "database", "event",
            "pc_tables", "params", "budget", "priority",
        }
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown request fields: {unknown}")
        missing = sorted(
            key for key in ("semantics", "program", "database", "event")
            if key not in data
        )
        _require(not missing, f"missing request fields: {missing}")
        return cls(
            semantics=data["semantics"],
            program=data["program"],
            database=data["database"],
            event=data["event"],
            pc_tables=data.get("pc_tables"),
            params=data.get("params") or {},
            budget=data.get("budget") or {},
            priority=data.get("priority") or "normal",
        )

    def as_dict(self) -> dict:
        """JSON-friendly rendering (inverse of :meth:`from_json`)."""
        payload: dict = {
            "semantics": self.semantics,
            "program": self.program,
            "database": dict(self.database),
            "event": self.event,
            "params": dict(self.params),
            "budget": dict(self.budget),
            "priority": self.priority,
        }
        if self.pc_tables is not None:
            payload["pc_tables"] = dict(self.pc_tables)
        return payload

    # -- derived keys ---------------------------------------------------

    def session_key(self) -> str:
        """Identity of the prepared engine this request runs on.

        Serialising the program and database is the expensive part, and
        a service request needs the key several times (pool lookup,
        :meth:`cache_key`, the session's ownership check), so it is
        computed once per (frozen) request.
        """
        return self._session_key

    @cached_property
    def _session_key(self) -> str:
        return _sha256(_canonical({
            "semantics": self.semantics,
            "program": self.program,
            "database": self.database,
            "pc_tables": self.pc_tables,
        }))

    def cache_key(self) -> str:
        """Identity of the full computation, for the result cache.

        Seeded runs are deterministic, so two requests with equal cache
        keys produce equal results; an *unseeded* sampling request is
        not cacheable (each run draws fresh randomness) and gets a
        ``None``-free but unique-per-call treatment from the caller —
        see :meth:`is_cacheable`.
        """
        return _sha256(_canonical({
            "session": self.session_key(),
            "event": self.event,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }))

    def is_cacheable(self) -> bool:
        """Whether an identical request must yield an identical result.

        Exact evaluation is always deterministic.  Sampling modes are
        deterministic only when a seed is pinned.
        """
        if self._wants_sampling() and self.params.get("seed") is None:
            return False
        return True

    def _wants_sampling(self) -> bool:
        # fallback="sparse" keeps the run deterministic: its ladder is
        # exact -> certified iterative solve, with no sampling rung.
        return (
            self.params.get("samples") is not None
            or self.params.get("epsilon") is not None
            or bool(self.params.get("mcmc"))
            or (self.params.get("fallback") or "none") not in ("none", "sparse")
        )

    def make_budget(self, default: Budget | None = None, cap: Budget | None = None) -> Budget:
        """The effective :class:`Budget` for this job.

        Per-axis resolution: the request's value if given, else the
        server default; then clamped to the admission ``cap`` (a server
        that caps an axis never admits an unlimited job on that axis).
        """
        def axis(requested, fallback, ceiling):
            value = requested if requested is not None else fallback
            if ceiling is not None:
                value = ceiling if value is None else min(value, ceiling)
            return value

        timeout = self.budget.get("timeout")
        max_steps = self.budget.get("max_steps")
        _require(
            timeout is None or (isinstance(timeout, (int, float)) and timeout >= 0),
            f"budget timeout must be a non-negative number, got {timeout!r}",
        )
        _require(
            max_steps is None or (isinstance(max_steps, int) and max_steps >= 0),
            f"budget max_steps must be a non-negative integer, got {max_steps!r}",
        )
        default = default or Budget.unlimited()
        cap = cap or Budget.unlimited()
        return Budget(
            wall_clock=axis(timeout, default.wall_clock, cap.wall_clock),
            max_steps=axis(max_steps, default.max_steps, cap.max_steps),
        )
