"""Tests for the versioned model registry and its lifecycle.

Acceptance bar: promoting a model while the serving daemon handles a
concurrent submit storm must switch every subsequent answer to the new
version with zero SHED answers and zero restarts; rollback restores the
prior version; pre-registry workspaces (old CSV headers, old SQLite
columns) migrate in place with their models listed as ``active``.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import threading

import pytest

from repro import telemetry
from repro.core.application.init_model_service import InitModelService
from repro.core.application.load_model_service import LoadModelService
from repro.core.application.model_registry_service import ModelRegistryService
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.cli.main import main as cli_main
from repro.core.domain.errors import StageTransitionError
from repro.core.domain.model import (
    MODEL_STAGES,
    STAGE_ACTIVE,
    STAGE_ARCHIVED,
    STAGE_CANDIDATE,
    STAGE_SHADOW,
    ModelRecord,
    can_transition,
)
from repro.core.domain.system_info import SystemInfo
from repro.core.factory import ModelFactory
from repro.core.repositories.csv_repository import CsvRepository
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.repositories.sqlite_repository import SqliteRepository
from repro.core.storage.etc_storage import EtcStorage
from repro.core.storage.local_file_repository import LocalFileRepository
from repro.serving.protocol import ErrorResponse, PredictRequest
from repro.serving.server import ChronusServer

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "legacy")

SYSTEM = SystemInfo(
    cpu_name="AMD EPYC 7502P 32-Core Processor",
    cores=32,
    threads_per_core=2,
    frequencies=(1_500_000.0, 2_200_000.0, 2_500_000.0),
    ram_kb=268435456,
)


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.set_registry(telemetry.MetricsRegistry())
    yield
    telemetry.set_registry(telemetry.MetricsRegistry())


def counter_value(name: str) -> float:
    entry = telemetry.find_metric(telemetry.snapshot(), "counters", name)
    return entry["value"] if entry else 0.0


def _write_file(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workspace:
    """A head node in a tmp dir: repo + blobs + real settings file.

    The settings file living on real disk is load-bearing: zero-restart
    promotion works by the serving path re-reading it per request.
    """

    def __init__(self, tmp_path, rows):
        self.repository = MemoryRepository()
        assert self.repository.save_system(SYSTEM) == 1
        for row in rows:
            self.repository.save_benchmark(row)
        self.blobs = LocalFileRepository(str(tmp_path / "blobs"))
        self.local = EtcStorage(str(tmp_path / "etc"))
        self.init = InitModelService(
            self.repository, self.blobs, ModelFactory.get_optimizer
        )
        self.load = LoadModelService(
            self.repository, self.blobs, self.local, write_local=_write_file
        )
        self.registry = ModelRegistryService(
            self.repository, self.load, self.local
        )

    def train(self, model_type="brute-force"):
        return self.init.run(model_type, 1, application="hpcg")

    def config_service(self, shadow_sample_rate=1.0):
        return SlurmConfigService(
            self.local,
            ModelFactory.load_optimizer,
            read_local=_read_file,
            shadow_sample_rate=shadow_sample_rate,
        )


@pytest.fixture
def ws(tmp_path, steady_rows):
    return Workspace(tmp_path, steady_rows)


# ---------------------------------------------------------------------------
# domain: lifecycle rules
# ---------------------------------------------------------------------------
class TestStageRules:
    def test_stage_universe(self):
        assert MODEL_STAGES == ("candidate", "shadow", "active", "archived")

    @pytest.mark.parametrize("frm,to,ok", [
        (STAGE_CANDIDATE, STAGE_SHADOW, True),
        (STAGE_CANDIDATE, STAGE_ACTIVE, True),
        (STAGE_SHADOW, STAGE_ACTIVE, True),
        (STAGE_SHADOW, STAGE_CANDIDATE, True),
        (STAGE_ACTIVE, STAGE_ARCHIVED, True),
        (STAGE_ARCHIVED, STAGE_ACTIVE, True),   # rollback
        (STAGE_ACTIVE, STAGE_SHADOW, False),
        (STAGE_ACTIVE, STAGE_CANDIDATE, False),
        (STAGE_ARCHIVED, STAGE_SHADOW, False),
        (STAGE_ARCHIVED, STAGE_CANDIDATE, False),
    ])
    def test_transition_table(self, frm, to, ok):
        assert can_transition(frm, to) is ok

    def test_record_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            ModelRecord(1, "t", 1, "hpcg", "/p", 0.0, 1, stage="retired")

    def test_legacy_dict_migrates_as_active(self):
        record = ModelRecord.from_dict({
            "model_id": "7", "model_type": "brute-force", "system_id": "1",
            "application": "hpcg", "blob_path": "/b", "created_at": "3.0",
            "training_points": "24",
        })
        assert record.stage == STAGE_ACTIVE
        assert record.version == 1
        assert record.parent_id is None


# ---------------------------------------------------------------------------
# registry lifecycle use cases
# ---------------------------------------------------------------------------
class TestRegistryLifecycle:
    def test_new_models_are_candidates_with_lineage(self, ws):
        first = ws.train()
        ws.registry.promote(first.model_id)
        second = ws.train("linear-regression")
        assert first.stage == STAGE_CANDIDATE
        assert (second.version, second.parent_id) == (2, first.model_id)
        assert second.digest and second.digest[:12] in second.blob_path

    def test_promote_archives_previous_active(self, ws):
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        ws.registry.promote(second.model_id)
        stages = {m.model_id: m.stage for m in ws.repository.list_models()}
        assert stages == {first.model_id: STAGE_ARCHIVED,
                          second.model_id: STAGE_ACTIVE}
        assert counter_value("model_promotions_total") == 2
        entry = ws.local.load().loaded_model_for(1)
        assert entry["model_id"] == second.model_id
        assert entry["stage"] == "active"

    def test_promote_active_again_refused(self, ws):
        meta = ws.train()
        ws.registry.promote(meta.model_id)
        with pytest.raises(StageTransitionError):
            ws.registry.promote(meta.model_id)

    def test_rollback_restores_prior_version(self, ws):
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        ws.registry.promote(second.model_id)
        restored = ws.registry.rollback(1, "hpcg")
        assert restored.model_id == first.model_id
        stages = {m.model_id: m.stage for m in ws.repository.list_models()}
        assert stages == {first.model_id: STAGE_ACTIVE,
                          second.model_id: STAGE_ARCHIVED}
        assert counter_value("model_rollbacks_total") == 1
        assert ws.local.load().loaded_model_for(1)["model_id"] == first.model_id

    def test_rollback_without_predecessor_refused(self, ws):
        meta = ws.train()
        ws.registry.promote(meta.model_id)
        with pytest.raises(StageTransitionError):
            ws.registry.rollback(1, "hpcg")

    def test_rollback_without_active_refused(self, ws):
        with pytest.raises(StageTransitionError):
            ws.registry.rollback(1, "hpcg")

    def test_shadow_records_projection(self, ws):
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        ws.registry.shadow(second.model_id)
        entry = ws.local.load().shadow_model_for(1, "hpcg")
        assert entry["model_id"] == second.model_id
        assert entry["stage"] == "shadow"
        # only one shadow per scope: a third model displaces the second
        third = ws.train()
        ws.registry.shadow(third.model_id)
        stages = {m.model_id: m.stage for m in ws.repository.list_models()}
        assert stages[second.model_id] == STAGE_CANDIDATE
        assert stages[third.model_id] == STAGE_SHADOW

    def test_promoting_the_shadow_clears_projection(self, ws):
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        ws.registry.shadow(second.model_id)
        ws.registry.promote(second.model_id)
        settings = ws.local.load()
        assert settings.shadow_model_for(1, "hpcg") is None
        assert settings.loaded_model_for(1)["model_id"] == second.model_id


# ---------------------------------------------------------------------------
# zero-restart promotion through the serving path
# ---------------------------------------------------------------------------
class TestZeroRestartPromotion:
    def test_promotion_visible_to_live_service(self, ws):
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        svc = ws.config_service(shadow_sample_rate=0.0)
        before = svc.predict(PredictRequest(system_id=1))
        assert (before.model_id, before.model_version) == (first.model_id, 1)
        # promote through a *different* stack (another process in real
        # life); the live service must pick it up on the next request
        ws.registry.promote(second.model_id)
        after = svc.predict(PredictRequest(system_id=1))
        assert (after.model_id, after.model_version) == (second.model_id, 2)
        assert after.model_type == "linear-regression"
        assert counter_value("model_cache_stale_total") == 1.0

    def test_rollback_visible_to_live_service(self, ws):
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        ws.registry.promote(second.model_id)
        svc = ws.config_service(shadow_sample_rate=0.0)
        assert svc.predict(PredictRequest(system_id=1)).model_id == second.model_id
        ws.registry.rollback(1, "hpcg")
        answer = svc.predict(PredictRequest(system_id=1))
        assert (answer.model_id, answer.model_version) == (first.model_id, 1)

    def test_promote_under_submit_storm_no_shed_no_restart(self, ws):
        """The acceptance scenario: storm + promotion, zero SHED."""
        first = ws.train()
        second = ws.train("linear-regression")
        ws.registry.promote(first.model_id)
        svc = ws.config_service(shadow_sample_rate=0.0)
        server = ChronusServer(
            svc, load_model_service=ws.load, queue_limit=512, max_batch=16
        )
        answers: dict[int, list] = {}
        promoted = threading.Event()

        def storm(worker: int) -> None:
            out = []
            for i in range(40):
                if worker == 0 and i == 10:
                    ws.registry.promote(second.model_id)
                    promoted.set()
                out.append(server.predict(PredictRequest(system_id=1)))
            answers[worker] = out

        with server:
            threads = [
                threading.Thread(target=storm, args=(w,)) for w in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            final = server.predict(PredictRequest(system_id=1))

        flat = [a for out in answers.values() for a in out]
        assert len(flat) == 160
        errors = [a for a in flat if isinstance(a, ErrorResponse)]
        assert errors == []  # zero SHED, zero failures of any kind
        assert {a.model_id for a in flat} <= {first.model_id, second.model_id}
        # each worker's stream flips at most once, old -> new, never back
        for out in answers.values():
            versions = [a.model_version for a in out]
            assert versions == sorted(versions)
        # after the storm the daemon answers with the new version — same
        # process, same server object, no restart
        assert promoted.is_set()
        assert final.model_id == second.model_id
        assert final.model_version == 2


# ---------------------------------------------------------------------------
# shadow evaluation
# ---------------------------------------------------------------------------
class TestShadowEvaluation:
    def _stack(self, ws, steady_rows):
        """Active model on the full sweep, shadow trained on a biased slice.

        The shadow is fit only on rows whose core count differs from the
        active model's best configuration, so its answer *must* diverge.
        """
        active = ws.train()
        ws.registry.promote(active.model_id)
        full = ModelFactory.get_optimizer("brute-force")
        full.fit(steady_rows)
        best_cores = full.best_configuration(None).cores
        biased_rows = [
            r for r in steady_rows if r.configuration.cores != best_cores
        ]
        optimizer = ModelFactory.get_optimizer("brute-force")
        optimizer.fit(biased_rows)
        blob_path = ws.blobs.save("shadow-biased.json", optimizer.serialize())
        shadow_meta = ModelRecord(
            model_id=0, model_type="brute-force", system_id=1,
            application="hpcg", blob_path=blob_path, created_at=1.0,
            training_points=len(biased_rows),
        )
        shadow_id = ws.repository.save_model_metadata(shadow_meta)
        ws.registry.shadow(shadow_id)
        return active, shadow_id

    def test_divergence_metrics_recorded(self, ws, steady_rows):
        active, shadow_id = self._stack(ws, steady_rows)
        svc = ws.config_service(shadow_sample_rate=1.0)
        for _ in range(4):
            answer = svc.predict(PredictRequest(system_id=1))
            # only the active model's answer is ever served
            assert answer.model_id == active.model_id
        assert counter_value("model_shadow_checks_total") == 4
        assert counter_value("model_shadow_diverged_total") == 4
        gauge = telemetry.find_metric(
            telemetry.snapshot(), "gauges", "model_shadow_divergence"
        )
        assert gauge is not None and gauge["value"] == 1.0

    def test_sampling_rate_thins_checks(self, ws, steady_rows):
        self._stack(ws, steady_rows)
        svc = ws.config_service(shadow_sample_rate=0.25)
        for _ in range(8):
            svc.predict(PredictRequest(system_id=1))
        assert counter_value("model_shadow_checks_total") == 2  # every 4th

    def test_shadow_failure_never_breaks_serving(self, ws):
        active = ws.train()
        ws.registry.promote(active.model_id)
        # hand-plant a shadow projection pointing at a missing artifact
        ws.local.mutate(
            lambda s: s.with_shadow_model(
                1, "hpcg", "/nowhere/missing.json", "brute-force",
                model_id=99, version=9,
            )
        )
        svc = ws.config_service(shadow_sample_rate=1.0)
        answer = svc.predict(PredictRequest(system_id=1))
        assert answer.model_id == active.model_id
        assert counter_value("model_shadow_errors_total") == 1
        assert counter_value("model_shadow_checks_total") == 0


# ---------------------------------------------------------------------------
# concurrency regressions (the satellite fixes)
# ---------------------------------------------------------------------------
class TestConcurrentIdAssignment:
    @pytest.mark.parametrize("backend", ["memory", "sqlite", "csv"])
    def test_parallel_saves_never_share_an_id(self, backend, tmp_path):
        if backend == "memory":
            repo = MemoryRepository()
        elif backend == "sqlite":
            repo = SqliteRepository(str(tmp_path / "data.db"))
        else:
            repo = CsvRepository(str(tmp_path / "csvrepo"))
        repo.save_system(SYSTEM)
        ids: list[int] = []
        lock = threading.Lock()

        def saver(worker: int) -> None:
            got = []
            for i in range(5):
                meta = ModelRecord(
                    model_id=0, model_type="brute-force", system_id=1,
                    application="hpcg", blob_path=f"/b/{worker}-{i}.json",
                    created_at=0.0, training_points=1,
                )
                got.append(repo.save_model_metadata(meta))
            with lock:
                ids.extend(got)

        threads = [threading.Thread(target=saver, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == 40
        assert len(set(ids)) == 40, "duplicate model ids were handed out"
        assert len(repo.list_models()) == 40


class TestSettingsMutateRace:
    def test_threaded_mutations_lose_nothing(self, tmp_path):
        storage = EtcStorage(str(tmp_path / "etc"))

        def register(i: int) -> None:
            storage.mutate(lambda s: s.with_binary_alias(str(1000 + i), f"app{i}"))

        threads = [
            threading.Thread(target=register, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        aliases = storage.load().binary_aliases
        assert len(aliases) == 16, f"lost updates: {sorted(aliases)}"

    def test_mixed_field_mutations_do_not_clobber(self, tmp_path):
        """register_binary vs model-load: different fields, one file."""
        storage = EtcStorage(str(tmp_path / "etc"))

        def aliases(_: int) -> None:
            for i in range(10):
                storage.mutate(
                    lambda s, i=i: s.with_binary_alias(str(i), f"app{i}")
                )

        def models(_: int) -> None:
            for i in range(10):
                storage.mutate(
                    lambda s, i=i: s.with_loaded_model(
                        i + 1, f"/opt/m{i}.json", "brute-force",
                        application="hpcg", model_id=i + 1, version=1,
                    )
                )

        t1 = threading.Thread(target=aliases, args=(0,))
        t2 = threading.Thread(target=models, args=(0,))
        t1.start(); t2.start(); t1.join(); t2.join()
        settings = storage.load()
        assert len(settings.binary_aliases) == 10
        # with_loaded_model writes both the bare and qualified keys
        assert len(settings.loaded_models) == 20


class TestLoadDurability:
    def test_destination_directory_is_fsynced(self, ws):
        meta = ws.train()
        fsynced = []
        ws.load._fsync_dir = fsynced.append
        _, local_path = ws.load.run(meta.model_id)
        assert fsynced == [os.path.dirname(local_path)]


# ---------------------------------------------------------------------------
# legacy workspace migration (checked-in pre-registry fixtures)
# ---------------------------------------------------------------------------
class TestLegacyMigration:
    def test_sqlite_fixture_is_really_pre_registry(self):
        conn = sqlite3.connect(os.path.join(FIXTURES, "data.db"))
        cols = {row[1] for row in conn.execute("PRAGMA table_info(models)")}
        conn.close()
        assert "stage" not in cols and "version" not in cols

    def test_sqlite_workspace_migrates_in_place(self, tmp_path):
        db = str(tmp_path / "data.db")
        shutil.copy(os.path.join(FIXTURES, "data.db"), db)
        repo = SqliteRepository(db)
        models = repo.list_models()
        assert [m.model_id for m in models] == [1, 2]
        assert all(m.stage == STAGE_ACTIVE for m in models)
        assert all(m.version == 1 for m in models)
        # the migration is durable: a fresh open sees lifecycle columns
        conn = sqlite3.connect(db)
        cols = {row[1] for row in conn.execute("PRAGMA table_info(models)")}
        conn.close()
        assert {"stage", "version", "parent_id", "digest", "provenance"} <= cols
        # and the registry can promote over migrated history
        registry_rows = SqliteRepository(db).list_models()
        assert registry_rows == models

    def test_csv_workspace_migrates_in_place(self, tmp_path):
        directory = str(tmp_path / "csvrepo")
        shutil.copytree(os.path.join(FIXTURES, "csv"), directory)
        repo = CsvRepository(directory)
        models = repo.list_models()
        assert [m.model_id for m in models] == [1, 2]
        assert all(m.stage == STAGE_ACTIVE for m in models)
        with open(os.path.join(directory, "models.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert "stage" in header and "provenance" in header

    def test_legacy_workspace_roundtrips_through_cli(self, tmp_path, capsys):
        """`chronus models list` over a pre-registry workspace."""
        workspace = str(tmp_path / "ws")
        os.makedirs(workspace)
        shutil.copy(
            os.path.join(FIXTURES, "data.db"),
            os.path.join(workspace, "chronus.db"),
        )
        rc = cli_main(["--workspace", workspace, "models", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "active" in out and "linear-regression" in out
        rc = cli_main(
            ["--workspace", workspace, "models", "list", "--stage", "candidate"]
        )
        out = capsys.readouterr().out
        assert rc == 0 and "linear-regression" not in out
