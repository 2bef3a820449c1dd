"""Checkpoint / resume for the long-running samplers.

A Theorem 5.6 run multiplies a burn-in (the mixing time, potentially
huge) by a Chernoff sample count; killing it an hour in used to lose
everything.  A :class:`Checkpoint` captures the sampler's exact
position — completed samples, positive tally, the mid-burn-in walker
state (as a serialised database) and, crucially, the full Mersenne
Twister state from :mod:`repro.probability.rng`'s generator — so a
resumed run continues the *same* random sequence and produces estimates
bit-identical to an uninterrupted run.

The on-disk format is JSON with an explicit ``version`` and ``kind``;
anything unexpected raises :class:`~repro.errors.CheckpointError`
rather than resuming garbage.  An optional ``fingerprint`` of the
program, database and event guards against resuming a checkpoint into a
different run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError
from repro.faults import SITE_CHECKPOINT_WRITE, maybe_fire
from repro.io import database_from_json, database_to_json
from repro.relational.database import Database

#: Format version written to every checkpoint file.
CHECKPOINT_VERSION = 1

#: ``kind`` tag of Theorem 5.6 forever-query sampler checkpoints.
KIND_FOREVER_MCMC = "forever-mcmc"


def _encode_rng_state(state: Any) -> list:
    """``random.Random.getstate()`` → JSON-friendly nested lists."""

    def encode(value: Any) -> Any:
        if isinstance(value, tuple):
            return [encode(item) for item in value]
        return value

    return encode(state)


def _decode_rng_state(data: Any) -> tuple:
    """Inverse of :func:`_encode_rng_state` (lists back to tuples)."""

    def decode(value: Any) -> Any:
        if isinstance(value, list):
            return tuple(decode(item) for item in value)
        return value

    state = decode(data)
    if not isinstance(state, tuple):
        raise CheckpointError(f"malformed RNG state in checkpoint: {data!r}")
    return state


def _program_form(kernel: Any) -> dict:
    """Every query's full expression and any pc-tables, canonically.

    Expression ``repr`` is structural but renders a literal by its
    columns only, so each query also lists its literals' rows in
    canonical order; pc-table variables list their outcomes sorted.
    Nothing here depends on the hash seed.
    """
    from repro.relational.algebra import Literal

    def literal_rows(expression: Any) -> list:
        rows = []
        if isinstance(expression, Literal):
            rows.append([repr(row) for row in expression.relation.sorted_rows()])
        for child in expression.children():
            rows.extend(literal_rows(child))
        return rows

    form: dict[str, Any] = {
        "queries": {
            name: [repr(expression), literal_rows(expression)]
            for name, expression in sorted(kernel.queries.items())
        }
    }
    pc_tables = kernel.pc_tables
    if pc_tables is not None:
        form["pc_tables"] = {
            "tables": {
                name: [
                    list(table.columns),
                    [[repr(row), repr(condition)] for row, condition in table.entries],
                ]
                for name, table in sorted(pc_tables.tables.items())
            },
            "variables": {
                name: sorted([repr(value), str(p)] for value, p in marginal.items())
                for name, marginal in sorted(pc_tables.variables.items())
            },
            "certain": {
                name: [repr(row) for row in relation.sorted_rows()]
                for name, relation in sorted(pc_tables.certain.items())
            },
        }
    return form


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_fingerprint(kernel: Any, initial: Database, event: Any) -> str:
    """Stable digest identifying (program, database, event) for a run.

    The program part covers every query's full expression, literal rows
    included, and any pc-tables (see :func:`_program_form`).
    """
    return _digest({
        "program": _program_form(kernel),
        "database": database_to_json(initial),
        "event": repr(event),
    })


def legacy_run_fingerprint(kernel: Any, initial: Database, event: Any) -> str:
    """The digest checkpoints were written with before
    :func:`run_fingerprint` covered whole programs: the kernel's
    ``repr`` names only the relations it rewrites.  Still accepted on
    resume, so those checkpoints keep resuming."""
    return _digest({
        "kernel": repr(kernel),
        "database": database_to_json(initial),
        "event": repr(event),
    })


@dataclass(frozen=True)
class Checkpoint:
    """A serialisable snapshot of sampler progress.

    Attributes
    ----------
    kind:
        Which sampler wrote this (currently :data:`KIND_FOREVER_MCMC`).
    samples_done / positive / planned:
        Partial tallies: completed samples, how many satisfied the
        event, and the total planned count.
    burn_in:
        Steps per sample (fixed at planning time, restored on resume so
        a resume never recomputes a different mixing time).
    epsilon / delta:
        The recorded accuracy guarantee (``None`` when the caller fixed
        the sample count directly).
    rng_state:
        ``random.Random.getstate()`` of the run's generator at the
        instant of the snapshot.
    walker:
        Mid-burn-in walker position: ``{"state": <database json>,
        "steps_done": n}``, or ``None`` when the snapshot sits on a
        sample boundary.
    fingerprint:
        Digest of (program, database, event); checked on resume.
    """

    kind: str
    samples_done: int
    positive: int
    planned: int
    burn_in: int
    epsilon: float | None
    delta: float | None
    rng_state: tuple
    walker: dict | None = None
    fingerprint: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.samples_done < 0 or self.positive < 0:
            raise CheckpointError("checkpoint tallies must be non-negative")
        if self.positive > self.samples_done:
            raise CheckpointError(
                f"checkpoint positive count {self.positive} exceeds "
                f"samples_done {self.samples_done}"
            )

    # -- resume helpers -------------------------------------------------

    def restore_rng(self, generator: random.Random) -> None:
        """Load the saved Mersenne Twister state into ``generator``."""
        try:
            generator.setstate(self.rng_state)
        except (TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint RNG state is not restorable: {error}"
            ) from error

    def walker_state(self) -> tuple[Database, int] | None:
        """The mid-burn-in walker ``(database, steps_done)``, if any."""
        if self.walker is None:
            return None
        try:
            db = database_from_json(self.walker["state"])
            steps_done = int(self.walker["steps_done"])
        except (KeyError, TypeError) as error:
            raise CheckpointError(
                f"malformed walker snapshot in checkpoint: {error}"
            ) from error
        return db, steps_done

    def verify_fingerprint(self, *accepted: str) -> None:
        """Raise unless the checkpoint's fingerprint is one of
        ``accepted`` (the run's current and legacy digests)."""
        if self.fingerprint is None:
            return
        if self.fingerprint not in accepted:
            raise CheckpointError(
                "checkpoint does not match this run (different program, "
                "database, or event); refusing to resume"
            )

    # -- (de)serialisation ----------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "samples_done": self.samples_done,
            "positive": self.positive,
            "planned": self.planned,
            "burn_in": self.burn_in,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "rng_state": _encode_rng_state(self.rng_state),
            "walker": self.walker,
            "fingerprint": self.fingerprint,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: Any) -> "Checkpoint":
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint JSON must be an object")
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this library writes version {CHECKPOINT_VERSION})"
            )
        try:
            return cls(
                kind=data["kind"],
                samples_done=data["samples_done"],
                positive=data["positive"],
                planned=data["planned"],
                burn_in=data["burn_in"],
                epsilon=data.get("epsilon"),
                delta=data.get("delta"),
                rng_state=_decode_rng_state(data["rng_state"]),
                walker=data.get("walker"),
                fingerprint=data.get("fingerprint"),
                meta=data.get("meta") or {},
            )
        except KeyError as error:
            raise CheckpointError(
                f"checkpoint JSON is missing field {error.args[0]!r}"
            ) from None

    def save(self, path: str | Path) -> None:
        """Write the checkpoint crash-safely.

        The rename-into-place protocol: serialise to a temp file *in
        the target's directory* (cross-filesystem renames are not
        atomic), flush and ``fsync`` the data, atomically rename over
        the target, then ``fsync`` the directory so the rename itself
        survives a power cut.  A reader therefore sees either the old
        complete checkpoint or the new complete checkpoint — never a
        torn file — no matter where the writer dies.

        The ``checkpoint.write`` fault site simulates exactly such a
        death: a fired ``torn-write`` leaves a truncated temp file
        behind and raises, *without* touching the target.
        """
        payload = json.dumps(self.to_json()) + "\n"
        target = Path(path)
        temp = target.with_name(target.name + ".tmp")
        spec = maybe_fire(SITE_CHECKPOINT_WRITE, path=str(target))
        torn = spec is not None and spec.action in ("torn-write", "corrupt")
        with open(temp, "w", encoding="utf-8") as handle:
            if torn:
                # Simulate the writer dying mid-write: half the bytes
                # reach the disk, the rename never happens.
                handle.write(payload[: max(1, len(payload) // 2)])
                handle.flush()
                raise CheckpointError(
                    f"injected torn write at {temp}",
                    details={"site": SITE_CHECKPOINT_WRITE, "path": str(temp)},
                    retryable=True,
                )
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
        try:
            directory_fd = os.open(target.parent, os.O_RDONLY)
        except OSError:
            return  # platform cannot open directories; rename still atomic
        try:
            os.fsync(directory_fd)
        except OSError:
            pass
        finally:
            os.close(directory_fd)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {error}"
        ) from error
    return Checkpoint.from_json(data)
