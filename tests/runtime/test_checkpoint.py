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


GUARDED_WALK = (
    "C := rename[J->I](project[J](repair-key[I@P](select[J!='n3'](C join E))))"
)
PLAIN_WALK = "C := rename[J->I](project[J](repair-key[I@P](C join E)))"


def _walk_on_k4(program: str):
    """A walk on the complete graph K4, started at n3."""
    from repro.core import ForeverQuery, parse_event
    from repro.relational import Database, Relation, parse_interpretation
    from repro.workloads import complete_graph

    db = Database({
        "C": Relation(("I",), [("n3",)]),
        "E": complete_graph(4).edge_relation(),
    })
    return ForeverQuery(parse_interpretation(program), parse_event("C(n1)")), db


def _interrupted(query, db, path) -> None:
    with pytest.raises(BudgetExceededError):
        evaluate_forever_mcmc(
            query, db, burn_in=10, samples=200, rng=5,
            context=RunContext(Budget(max_steps=500)), checkpoint_path=path,
        )


class TestProgramFingerprint:
    """A checkpoint resumes only into the program that wrote it."""

    def test_resume_into_a_different_program_is_refused(self, tmp_path):
        path = tmp_path / "guarded.ckpt"
        _interrupted(*_walk_on_k4(GUARDED_WALK), path)
        with pytest.raises(CheckpointError, match="does not match"):
            evaluate_forever_mcmc(
                *_walk_on_k4(PLAIN_WALK), burn_in=10, samples=200, rng=5,
                resume=path,
            )

    def test_cli_resume_into_a_different_program_exits_2(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        (tmp_path / "guarded.ra").write_text(GUARDED_WALK + "\n")
        (tmp_path / "plain.ra").write_text(PLAIN_WALK + "\n")
        _, db = _walk_on_k4(PLAIN_WALK)
        from repro.io import save_database

        save_database(db, tmp_path / "k4.json")
        common = [
            "--db", str(tmp_path / "k4.json"), "--event", "C(n1)", "--mcmc",
            "--samples", "200", "--burn-in", "10", "--seed", "5",
        ]
        ckpt = str(tmp_path / "ck")
        assert main(["forever", str(tmp_path / "guarded.ra"), *common,
                     "--checkpoint", ckpt, "--max-steps", "500"]) == 2
        capsys.readouterr()
        assert main(["forever", str(tmp_path / "plain.ra"), *common,
                     "--resume", ckpt]) == 2
        assert "checkpoint does not match" in capsys.readouterr().err

    def test_a_changed_literal_row_is_refused(self, tmp_path):
        template = (
            "C := rename[J->I](project[J](repair-key[I@P]("
            "C join E join literal[J]{{('n1'), ('{}')}})))"
        )
        path = tmp_path / "literal.ckpt"
        _interrupted(*_walk_on_k4(template.format("n2")), path)
        with pytest.raises(CheckpointError, match="does not match"):
            evaluate_forever_mcmc(
                *_walk_on_k4(template.format("n0")), burn_in=10,
                samples=200, rng=5, resume=path,
            )

    def test_same_program_resume_equals_the_uninterrupted_run(self, tmp_path):
        query, db = _walk_on_k4(GUARDED_WALK)
        full = evaluate_forever_mcmc(query, db, burn_in=10, samples=200, rng=5)
        path = tmp_path / "guarded.ckpt"
        _interrupted(query, db, path)
        resumed = evaluate_forever_mcmc(
            *_walk_on_k4(GUARDED_WALK), burn_in=10, samples=200, rng=5,
            resume=path,
        )
        assert resumed.details["resumed_at"] == 50
        assert (resumed.positive, resumed.samples) == (full.positive, full.samples)
        assert resumed.estimate == full.estimate

    def test_a_lowered_run_writes_the_source_fingerprint(self, tmp_path):
        from repro.kernel import lower

        query, db = _walk_on_k4(GUARDED_WALK)
        _interrupted(query, db, tmp_path / "source.ckpt")
        _interrupted(*lower(query, db), tmp_path / "lowered.ckpt")
        assert (
            load_checkpoint(tmp_path / "source.ckpt").fingerprint
            == load_checkpoint(tmp_path / "lowered.ckpt").fingerprint
        )

    def test_fingerprint_ignores_the_hash_seed(self):
        """Literal rows, selections and pc-tables digest canonically."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from fractions import Fraction\n"
            "from repro.core import Interpretation, parse_event\n"
            "from repro.ctables import CTable, PCDatabase, var_eq\n"
            "from repro.probability import Distribution\n"
            "from repro.relational import parse_interpretation\n"
            "from repro.runtime.checkpoint import run_fingerprint\n"
            "from repro.workloads import complete_graph\n"
            "from repro.relational import Database, Relation\n"
            "kernel = parse_interpretation(\"C := rename[J->I](project[J]("
            "repair-key[I@P](select[J!='n3'](C join E join literal[J]"
            "{('n0'), ('n1'), ('n2'), ('x'), ('y'), ('z')}))))\")\n"
            "pc = PCDatabase({'F': CTable(('A',), [(('a',), var_eq('v', 1)),"
            " (('b',), var_eq('v', 2))])}, {'v': Distribution({1: Fraction(1, 3),"
            " 2: Fraction(1, 3), 3: Fraction(1, 3)})})\n"
            "db = Database({'C': Relation(('I',), [('n3',)]),"
            " 'E': complete_graph(4).edge_relation()})\n"
            "print(run_fingerprint(Interpretation(kernel.queries, pc_tables=pc),"
            " db, parse_event('C(n1)')))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            digests.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip())
        assert len(digests) == 1


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
