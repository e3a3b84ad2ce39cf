"""Repository contract tests — one suite, all three implementations."""

from dataclasses import replace

import pytest

from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import ModelNotFoundError, SystemNotFoundError
from repro.core.domain.model import ModelMetadata
from repro.core.domain.system_info import SystemInfo
from repro.core.repositories.csv_repository import CsvRepository
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.repositories.sqlite_repository import SqliteRepository


@pytest.fixture(params=["memory", "sqlite", "csv"])
def repo(request, tmp_path):
    if request.param == "memory":
        return MemoryRepository()
    if request.param == "sqlite":
        return SqliteRepository(str(tmp_path / "data.db"))
    return CsvRepository(str(tmp_path / "csvrepo"))


SYSTEM = SystemInfo(
    cpu_name="AMD EPYC 7502P 32-Core Processor",
    cores=32,
    threads_per_core=2,
    frequencies=(1_500_000.0, 2_200_000.0, 2_500_000.0),
    ram_kb=268435456,
)
OTHER_SYSTEM = SystemInfo("Intel Xeon 6230", 20, 2, (1_000_000.0, 2_100_000.0))


def bench_row(system_id: int, cores: int = 32, app: str = "hpcg") -> BenchmarkResult:
    return BenchmarkResult(
        system_id=system_id,
        application=app,
        configuration=Configuration(cores, 1, 2_200_000),
        gflops=9.0,
        avg_system_w=190.0,
        avg_cpu_w=97.0,
        avg_cpu_temp_c=54.0,
        system_energy_j=214_000.0,
        cpu_energy_j=110_000.0,
        runtime_s=1127.0,
    )


class TestSystems:
    def test_save_and_get(self, repo):
        sid = repo.save_system(SYSTEM)
        assert repo.get_system(sid) == SYSTEM

    def test_save_is_idempotent(self, repo):
        assert repo.save_system(SYSTEM) == repo.save_system(SYSTEM)

    def test_distinct_systems_get_distinct_ids(self, repo):
        a = repo.save_system(SYSTEM)
        b = repo.save_system(OTHER_SYSTEM)
        assert a != b

    def test_list_systems(self, repo):
        a = repo.save_system(SYSTEM)
        b = repo.save_system(OTHER_SYSTEM)
        listed = repo.list_systems()
        assert [sid for sid, _ in listed] == sorted([a, b])

    def test_get_unknown_raises(self, repo):
        with pytest.raises(SystemNotFoundError):
            repo.get_system(404)


class TestBenchmarks:
    def test_save_and_query(self, repo):
        sid = repo.save_system(SYSTEM)
        repo.save_benchmark(bench_row(sid, cores=16))
        repo.save_benchmark(bench_row(sid, cores=32))
        rows = repo.benchmarks_for_system(sid)
        assert len(rows) == 2
        assert {r.configuration.cores for r in rows} == {16, 32}

    def test_application_filter(self, repo):
        sid = repo.save_system(SYSTEM)
        repo.save_benchmark(bench_row(sid, app="hpcg"))
        repo.save_benchmark(bench_row(sid, app="hpl"))
        assert len(repo.benchmarks_for_system(sid, "hpcg")) == 1
        assert len(repo.benchmarks_for_system(sid)) == 2

    def test_system_isolation(self, repo):
        a = repo.save_system(SYSTEM)
        b = repo.save_system(OTHER_SYSTEM)
        repo.save_benchmark(bench_row(a))
        assert repo.benchmarks_for_system(b) == []

    def test_rejects_unknown_system(self, repo):
        with pytest.raises(SystemNotFoundError):
            repo.save_benchmark(bench_row(999))

    def test_roundtrip_preserves_values(self, repo):
        sid = repo.save_system(SYSTEM)
        original = bench_row(sid)
        repo.save_benchmark(original)
        stored = repo.benchmarks_for_system(sid)[0]
        assert stored == original


class TestModels:
    def meta(self, model_id: int, system_id: int) -> ModelMetadata:
        return ModelMetadata(
            model_id=model_id,
            model_type="linear-regression",
            system_id=system_id,
            application="hpcg",
            blob_path=f"/blobs/m{model_id}.json",
            created_at=42.0,
            training_points=138,
        )

    def test_save_and_get(self, repo):
        sid = repo.save_system(SYSTEM)
        meta = self.meta(0, sid)
        mid = repo.save_model_metadata(meta)
        assert mid == 1
        assert repo.get_model_metadata(mid) == replace(meta, model_id=mid)

    def test_list_models_ordered(self, repo):
        sid = repo.save_system(SYSTEM)
        repo.save_model_metadata(self.meta(2, sid))
        repo.save_model_metadata(self.meta(1, sid))
        assert [m.model_id for m in repo.list_models()] == [1, 2]

    def test_get_unknown_raises(self, repo):
        with pytest.raises(ModelNotFoundError):
            repo.get_model_metadata(404)

    def test_upsert_replaces(self, repo):
        sid = repo.save_system(SYSTEM)
        repo.save_model_metadata(self.meta(1, sid))
        updated = ModelMetadata(1, "random-forest", sid, "hpcg", "/blobs/new.json", 50.0, 24)
        repo.save_model_metadata(updated)
        assert repo.get_model_metadata(1) == updated
        assert len(repo.list_models()) == 1


class TestPersistenceAcrossInstances:
    """File-backed repositories must survive reopening (fresh CLI process)."""

    def test_sqlite_reopen(self, tmp_path):
        path = str(tmp_path / "data.db")
        first = SqliteRepository(path)
        sid = first.save_system(SYSTEM)
        first.save_benchmark(bench_row(sid))
        second = SqliteRepository(path)
        assert second.get_system(sid) == SYSTEM
        assert len(second.benchmarks_for_system(sid)) == 1

    def test_csv_reopen(self, tmp_path):
        path = str(tmp_path / "csvrepo")
        first = CsvRepository(path)
        sid = first.save_system(SYSTEM)
        first.save_benchmark(bench_row(sid))
        second = CsvRepository(path)
        assert second.get_system(sid) == SYSTEM
        assert len(second.benchmarks_for_system(sid)) == 1
