"""Incremental ingest: checkpoints, resume ≡ fresh, idempotent replays."""

from __future__ import annotations

from repro.etl import EtlStore, ingest_chain

from tests.etl_chains import ChainBuilder


def _grown_builder(seed: int = 11, blocks: int = 10) -> ChainBuilder:
    builder = ChainBuilder(seed=seed, n_hotspots=5)
    builder.grow(blocks)
    return builder


class TestCheckpointing:
    def test_checkpoint_tracks_tip(self):
        builder = _grown_builder()
        store = EtlStore()
        report = ingest_chain(builder.chain, store)
        assert store.checkpoint_height == builder.chain.height
        assert store.get_meta("tip_hash") == builder.chain.tip.hash
        assert report.tip_height == builder.chain.height
        assert report.blocks_ingested == len(builder.chain.blocks)
        assert (
            report.transactions_ingested
            == builder.chain.total_transactions
        )

    def test_rerun_is_a_noop(self):
        builder = _grown_builder()
        store = EtlStore()
        ingest_chain(builder.chain, store)
        digest = store.content_digest()
        report = ingest_chain(builder.chain, store)
        assert report.up_to_date
        assert report.blocks_ingested == 0
        assert store.content_digest() == digest


class TestResumeEqualsFresh:
    """The acceptance criterion: resume from a checkpoint converges to
    exactly the content a from-scratch full ingest produces."""

    def test_resume_after_growth_matches_full_ingest(self):
        builder = _grown_builder(seed=21, blocks=8)
        resumed = EtlStore()
        first = ingest_chain(builder.chain, resumed)

        builder.grow(7)  # the chain moves on after the first ingest
        second = ingest_chain(builder.chain, resumed)
        assert second.start_height == first.tip_height + 1
        assert second.blocks_ingested == 7
        assert resumed.checkpoint_height == builder.chain.height

        fresh = EtlStore()
        ingest_chain(builder.chain, fresh)
        assert resumed.content_digest() == fresh.content_digest()

    def test_resume_in_tiny_batches_matches_one_shot(self):
        builder = _grown_builder(seed=22, blocks=9)
        batched = EtlStore()
        one_shot = EtlStore()
        ingest_chain(builder.chain, batched, batch_blocks=1)
        ingest_chain(builder.chain, one_shot, batch_blocks=10_000)
        assert batched.content_digest() == one_shot.content_digest()

    def test_replaying_old_blocks_is_idempotent(self):
        builder = _grown_builder(seed=23)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        digest = store.content_digest()
        # Simulate a crashed run that lost its checkpoint: wind it back
        # and replay already-loaded blocks on top of the existing rows.
        with store.connection:
            store._set_meta("checkpoint_height", "3")
        ingest_chain(builder.chain, store)
        assert store.content_digest() == digest


class TestLedgerFold:
    def test_state_tables_follow_the_ledger(self):
        builder = _grown_builder(seed=31, blocks=12)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        owners = dict(
            store.connection.execute("SELECT gateway, owner FROM hotspots")
        )
        for gateway, record in builder.chain.ledger.hotspots.items():
            assert owners[gateway] == record.owner
        balances = dict(
            store.connection.execute("SELECT address, hnt_bones FROM wallets")
        )
        for address, state in builder.chain.ledger.wallets.items():
            assert balances[address] == state.hnt_bones

    def test_state_refresh_on_resume(self):
        builder = _grown_builder(seed=32, blocks=6)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        builder.grow(10)  # transfers/asserts in here move ledger state
        ingest_chain(builder.chain, store)
        owners = dict(
            store.connection.execute("SELECT gateway, owner FROM hotspots")
        )
        assert owners == {
            gateway: record.owner
            for gateway, record in builder.chain.ledger.hotspots.items()
        }


class _SampleAfterCommit:
    """Stands in for a store's connection; calls ``sample`` after every
    ``with connection:`` block, i.e. after every ingest commit."""

    def __init__(self, connection, sample):
        self._connection = connection
        self._sample = sample

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc_info):
        result = self._connection.__exit__(*exc_info)
        self._sample()
        return result


class TestCommittedCheckpoints:
    def test_each_checkpoint_names_one_content(self, tmp_path):
        """A reader that sees checkpoint ``h`` always sees the same
        rows for it: the tip checkpoint commits together with the
        ledger state, never ahead of it."""
        builder = _grown_builder(seed=41, blocks=7)
        path = str(tmp_path / "etl.db")
        store = EtlStore(path)
        reader = store.reopen(read_only=True)
        seen = {}

        def sample():
            with reader.read_snapshot():
                key = reader.checkpoint_height
                seen.setdefault(key, set()).add(reader.content_digest())

        store.connection = _SampleAfterCommit(store.connection, sample)
        try:
            ingest_chain(builder.chain, store, batch_blocks=3)
            builder.grow(6)  # moves ledger state under a resumed ingest
            ingest_chain(builder.chain, store, batch_blocks=3)
            ingest_chain(builder.chain, store, batch_blocks=3)  # no-op
        finally:
            reader.close()
            store.close()
        assert builder.chain.height in seen
        assert len(seen) > 2  # several batch commits were sampled
        assert {h: len(d) for h, d in seen.items() if len(d) != 1} == {}
