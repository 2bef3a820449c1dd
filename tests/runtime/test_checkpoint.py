"""Checkpoint round-trip determinism and format validation.

The load-bearing property: a seeded MCMC run interrupted at sample k
(or mid-burn-in within a sample) and resumed from its checkpoint must
produce estimates bit-identical to the same seeded run left
uninterrupted — which exercises the full RNG state capture from
:mod:`repro.probability.rng`'s generators.
"""

import json

import pytest

from repro.core.evaluation import evaluate_forever_mcmc
from repro.errors import BudgetExceededError, CheckpointError, RunCancelledError
from repro.runtime import (
    Budget,
    Checkpoint,
    KIND_FOREVER_MCMC,
    RunContext,
    load_checkpoint,
)
from repro.workloads import cycle_graph, random_walk_query

BURN_IN = 13
SAMPLES = 40
SEED = 11


@pytest.fixture
def walk():
    return random_walk_query(cycle_graph(4), "n0", "n2")


def uninterrupted(walk):
    query, db = walk
    return evaluate_forever_mcmc(
        query, db, burn_in=BURN_IN, samples=SAMPLES, rng=SEED
    )


class TestRoundTripDeterminism:
    @pytest.mark.parametrize(
        "max_steps",
        [
            BURN_IN * 10,      # interrupt exactly on a sample boundary
            BURN_IN * 10 + 7,  # interrupt mid-burn-in (walker snapshot)
            1,                 # interrupt before the first full step
        ],
    )
    def test_resumed_estimate_is_bit_identical(self, walk, tmp_path, max_steps):
        query, db = walk
        full = uninterrupted(walk)

        path = tmp_path / "run.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                query,
                db,
                burn_in=BURN_IN,
                samples=SAMPLES,
                rng=SEED,
                context=RunContext(Budget(max_steps=max_steps)),
                checkpoint_path=path,
            )
        assert path.exists()

        resumed = evaluate_forever_mcmc(query, db, rng=999, resume=path)
        assert resumed.estimate == full.estimate
        assert resumed.positive == full.positive
        assert resumed.samples == full.samples

    def test_double_interruption_still_identical(self, walk, tmp_path):
        """Interrupt, resume, interrupt again, resume again."""
        query, db = walk
        full = uninterrupted(walk)

        first = tmp_path / "first.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                query,
                db,
                burn_in=BURN_IN,
                samples=SAMPLES,
                rng=SEED,
                context=RunContext(Budget(max_steps=100)),
                checkpoint_path=first,
            )
        second = tmp_path / "second.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                query,
                db,
                resume=first,
                context=RunContext(Budget(max_steps=150)),
                checkpoint_path=second,
            )
        resumed = evaluate_forever_mcmc(query, db, resume=second)
        assert resumed.estimate == full.estimate
        assert resumed.positive == full.positive

    def test_cancellation_also_checkpoints(self, walk, tmp_path):
        query, db = walk
        path = tmp_path / "cancelled.ckpt"
        context = RunContext()
        context.cancel()
        with pytest.raises(RunCancelledError):
            evaluate_forever_mcmc(
                query,
                db,
                burn_in=BURN_IN,
                samples=SAMPLES,
                rng=SEED,
                context=context,
                checkpoint_path=path,
            )
        resumed = evaluate_forever_mcmc(query, db, resume=path)
        assert resumed.estimate == uninterrupted(walk).estimate

    def test_completed_run_removes_stale_checkpoint(self, walk, tmp_path):
        query, db = walk
        path = tmp_path / "stale.ckpt"
        path.write_text("{}")
        evaluate_forever_mcmc(
            query,
            db,
            burn_in=2,
            samples=5,
            rng=SEED,
            checkpoint_path=path,
        )
        assert not path.exists()

    def test_checkpoint_tallies_are_partial(self, walk, tmp_path):
        query, db = walk
        path = tmp_path / "partial.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                query,
                db,
                burn_in=BURN_IN,
                samples=SAMPLES,
                rng=SEED,
                context=RunContext(Budget(max_steps=BURN_IN * 10 + 7)),
                checkpoint_path=path,
            )
        checkpoint = load_checkpoint(path)
        assert checkpoint.kind == KIND_FOREVER_MCMC
        assert checkpoint.samples_done == 10
        assert checkpoint.planned == SAMPLES
        assert checkpoint.burn_in == BURN_IN
        walker = checkpoint.walker_state()
        assert walker is not None
        _, steps_done = walker
        assert steps_done == 7


class TestFingerprint:
    def test_plain_run_never_fingerprints(self, walk, monkeypatch):
        """Only checkpoint writes and resume checks read the fingerprint."""
        import repro.runtime.checkpoint as checkpoint_module

        def refuse(*args, **kwargs):
            raise AssertionError("run_fingerprint called without checkpointing")

        monkeypatch.setattr(checkpoint_module, "run_fingerprint", refuse)
        query, db = walk
        for cache_size in (None, 16):
            evaluate_forever_mcmc(
                query, db, burn_in=BURN_IN, samples=SAMPLES, rng=SEED,
                cache_size=cache_size,
            )


class TestFormatValidation:
    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not json {")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v99.ckpt"
        path.write_text(json.dumps({"version": 99, "kind": KIND_FOREVER_MCMC}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "partial.ckpt"
        path.write_text(json.dumps({"version": 1, "kind": KIND_FOREVER_MCMC}))
        with pytest.raises(CheckpointError, match="missing field"):
            load_checkpoint(path)

    def test_rejects_inconsistent_tallies(self):
        with pytest.raises(CheckpointError):
            Checkpoint(
                kind=KIND_FOREVER_MCMC,
                samples_done=3,
                positive=5,
                planned=10,
                burn_in=1,
                epsilon=None,
                delta=None,
                rng_state=(3, (0,) * 625, None),
            )

    def test_rejects_wrong_kind_on_resume(self, walk, tmp_path):
        query, db = walk
        checkpoint = Checkpoint(
            kind="something-else",
            samples_done=0,
            positive=0,
            planned=10,
            burn_in=1,
            epsilon=None,
            delta=None,
            rng_state=(3, (0,) * 625, None),
        )
        path = tmp_path / "wrong-kind.ckpt"
        checkpoint.save(path)
        with pytest.raises(CheckpointError, match="kind"):
            evaluate_forever_mcmc(query, db, resume=path)

    def test_rejects_fingerprint_mismatch(self, walk, tmp_path):
        query, db = walk
        path = tmp_path / "mismatch.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                query,
                db,
                burn_in=BURN_IN,
                samples=SAMPLES,
                rng=SEED,
                context=RunContext(Budget(max_steps=50)),
                checkpoint_path=path,
            )
        other_query, other_db = random_walk_query(cycle_graph(6), "n0", "n3")
        with pytest.raises(CheckpointError, match="does not match"):
            evaluate_forever_mcmc(other_query, other_db, resume=path)

    def test_save_load_round_trip(self, tmp_path):
        checkpoint = Checkpoint(
            kind=KIND_FOREVER_MCMC,
            samples_done=4,
            positive=2,
            planned=10,
            burn_in=3,
            epsilon=0.1,
            delta=0.05,
            rng_state=(3, tuple(range(625)), None),
            fingerprint="abc",
        )
        path = tmp_path / "rt.ckpt"
        checkpoint.save(path)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint
