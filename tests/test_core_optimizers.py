"""Tests for all four optimizers: fit, predict, best-config, artifacts."""

import json

import pytest

from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import OptimizerError
from repro.core.optimizers import (
    OPTIMIZER_TYPES,
    BruteForceOptimizer,
    GeneticOptimizer,
    LinearRegressionOptimizer,
    RandomForestOptimizer,
    deserialize_optimizer,
    optimizer_from_name,
)

BEST = Configuration(32, 1, 2_200_000)
STANDARD = Configuration(32, 1, 2_500_000)

ALL_TYPES = [
    BruteForceOptimizer,
    LinearRegressionOptimizer,
    RandomForestOptimizer,
    GeneticOptimizer,
]


@pytest.fixture(params=ALL_TYPES, ids=lambda c: c.name())
def fitted(request, paper_rows):
    opt = request.param()
    opt.fit(paper_rows)
    return opt


class TestRegistry:
    def test_all_registered(self):
        assert set(OPTIMIZER_TYPES) >= {
            "brute-force",
            "linear-regression",
            "random-forest",
            "genetic",
        }

    def test_factory_dispatch(self):
        assert isinstance(optimizer_from_name("brute-force"), BruteForceOptimizer)

    def test_unknown_type(self):
        with pytest.raises(OptimizerError, match="Unknown optimizer type"):
            optimizer_from_name("neural-net")
        with pytest.raises(OptimizerError):
            deserialize_optimizer("neural-net", b"{}")


class TestCommonContract:
    def test_unfitted_raises(self, request):
        for cls in ALL_TYPES:
            opt = cls()
            with pytest.raises(OptimizerError, match="not fitted"):
                opt.predict_efficiency(BEST)
            with pytest.raises(OptimizerError):
                opt.best_configuration()
            with pytest.raises(OptimizerError):
                opt.serialize()

    def test_fit_on_empty_raises(self):
        for cls in ALL_TYPES:
            with pytest.raises(OptimizerError, match="zero benchmarks"):
                cls().fit([])

    def test_finds_paper_winner(self, fitted):
        """Every optimizer must recover (32, 2.2 GHz, no-HT) from the full
        sweep — the paper's headline result."""
        assert fitted.best_configuration() == BEST

    def test_predictions_positive(self, fitted, paper_rows):
        for row in paper_rows[:20]:
            assert fitted.predict_efficiency(row.configuration) > 0

    def test_best_beats_standard(self, fitted):
        assert fitted.predict_efficiency(BEST) > fitted.predict_efficiency(STANDARD)

    def test_training_configurations(self, fitted, paper_rows):
        configs = fitted.training_configurations()
        assert len(configs) == len({r.configuration for r in paper_rows})

    def test_serialize_roundtrip(self, fitted, paper_rows):
        data = fitted.serialize()
        again = type(fitted).deserialize(data)
        for row in paper_rows[::10]:
            assert again.predict_efficiency(row.configuration) == pytest.approx(
                fitted.predict_efficiency(row.configuration)
            )
        assert again.best_configuration() == fitted.best_configuration()

    def test_explicit_candidates(self, fitted):
        pool = [STANDARD, Configuration(16, 1, 1_500_000)]
        assert fitted.best_configuration(pool) == STANDARD

    def test_empty_candidates_raises(self, fitted):
        with pytest.raises(OptimizerError):
            fitted.best_configuration([])


class TestArtifactEnvelope:
    def test_rejects_wrong_format(self, paper_rows):
        with pytest.raises(OptimizerError, match="not a chronus optimizer"):
            BruteForceOptimizer.deserialize(b'{"format": "pickle"}')

    def test_rejects_wrong_type(self, paper_rows):
        opt = BruteForceOptimizer()
        opt.fit(paper_rows)
        data = opt.serialize()
        with pytest.raises(OptimizerError, match="expected 'linear-regression'"):
            LinearRegressionOptimizer.deserialize(data)

    def test_rejects_corrupt_bytes(self):
        with pytest.raises(OptimizerError, match="corrupt"):
            BruteForceOptimizer.deserialize(b"\xff\xfe garbage")

    def test_rejects_wrong_version(self, paper_rows):
        import json

        opt = BruteForceOptimizer()
        opt.fit(paper_rows)
        env = json.loads(opt.serialize())
        env["version"] = 99
        with pytest.raises(OptimizerError, match="version"):
            BruteForceOptimizer.deserialize(json.dumps(env).encode())

    def test_artifact_is_json_not_pickle(self, paper_rows):
        import json

        opt = RandomForestOptimizer(n_trees=3)
        opt.fit(paper_rows)
        env = json.loads(opt.serialize())
        assert env["format"] == "chronus-optimizer"
        assert env["type"] == "random-forest"
        assert "candidates" in env


class TestBruteForce:
    def test_exact_lookup(self, paper_rows):
        opt = BruteForceOptimizer()
        opt.fit(paper_rows)
        row = paper_rows[0]
        assert opt.predict_efficiency(row.configuration) == pytest.approx(
            row.gflops_per_watt
        )

    def test_cannot_extrapolate(self, paper_rows):
        opt = BruteForceOptimizer()
        opt.fit(paper_rows)
        with pytest.raises(OptimizerError, match="cannot extrapolate"):
            opt.predict_efficiency(Configuration(13, 1, 2_200_000))

    def test_repeated_measurements_averaged(self, paper_rows):
        doubled = list(paper_rows) + list(paper_rows)
        opt = BruteForceOptimizer()
        opt.fit(doubled)
        row = paper_rows[0]
        assert opt.predict_efficiency(row.configuration) == pytest.approx(
            row.gflops_per_watt
        )


class TestLinearRegression:
    def test_good_fit_on_smooth_surface(self, paper_rows):
        opt = LinearRegressionOptimizer()
        opt.fit(paper_rows)
        assert opt.r_squared(paper_rows) > 0.95

    def test_interpolates_unseen_config(self, paper_rows):
        opt = LinearRegressionOptimizer()
        opt.fit(paper_rows)
        # 13 cores was never measured; prediction must land between
        # neighbouring core counts
        e13 = opt.predict_efficiency(Configuration(13, 1, 2_200_000))
        e12 = opt.predict_efficiency(Configuration(12, 1, 2_200_000))
        e14 = opt.predict_efficiency(Configuration(14, 1, 2_200_000))
        assert min(e12, e14) * 0.95 < e13 < max(e12, e14) * 1.05

    def test_restore_validates_coefficient_count(self):
        import json

        env = {
            "format": "chronus-optimizer",
            "version": 1,
            "type": "linear-regression",
            "candidates": [],
            "payload": {"coefficients": [1.0, 2.0]},
        }
        with pytest.raises(OptimizerError, match="coefficients"):
            LinearRegressionOptimizer.deserialize(json.dumps(env).encode())


class TestRandomForest:
    def test_deterministic_given_seed(self, paper_rows):
        a = RandomForestOptimizer(n_trees=10, seed=7)
        b = RandomForestOptimizer(n_trees=10, seed=7)
        a.fit(paper_rows)
        b.fit(paper_rows)
        cfg = paper_rows[5].configuration
        assert a.predict_efficiency(cfg) == b.predict_efficiency(cfg)

    def test_seed_changes_predictions(self, paper_rows):
        a = RandomForestOptimizer(n_trees=10, seed=7)
        b = RandomForestOptimizer(n_trees=10, seed=8)
        a.fit(paper_rows)
        b.fit(paper_rows)
        cfg = Configuration(13, 1, 2_200_000)
        assert a.predict_efficiency(cfg) != b.predict_efficiency(cfg)

    def test_fit_quality(self, paper_rows):
        opt = RandomForestOptimizer()
        opt.fit(paper_rows)
        errors = [
            abs(opt.predict_efficiency(r.configuration) - r.gflops_per_watt)
            / r.gflops_per_watt
            for r in paper_rows
        ]
        assert sum(errors) / len(errors) < 0.05

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RandomForestOptimizer(n_trees=0)

    def test_tree_validation(self):
        from repro.core.optimizers.random_forest import DecisionTree
        import numpy as np

        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTree(min_samples_leaf=0)
        tree = DecisionTree()
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 3)), np.zeros(0), np.random.default_rng(0))
        with pytest.raises(OptimizerError):
            tree.predict_one(np.zeros(3))

    def test_single_tree_on_constant_target(self):
        from repro.core.optimizers.random_forest import DecisionTree
        import numpy as np

        tree = DecisionTree()
        X = np.array([[1.0, 1.5, 0.0], [2.0, 2.2, 0.0]])
        y = np.array([5.0, 5.0])
        tree.fit(X, y, np.random.default_rng(0))
        assert tree.predict_one(np.array([1.5, 2.0, 0.0])) == 5.0
        assert tree.depth() == 0


class TestGenetic:
    def test_deterministic(self, paper_rows):
        a = GeneticOptimizer(seed=3)
        b = GeneticOptimizer(seed=3)
        a.fit(paper_rows)
        b.fit(paper_rows)
        assert a.best_configuration() == b.best_configuration()

    def test_finds_near_optimum_from_sparse_data(self, paper_rows):
        """Train on every other configuration; the GA's pick must still be
        within 5% of the global optimum's efficiency."""
        sparse = paper_rows[::2]
        opt = GeneticOptimizer(seed=1)
        opt.fit(sparse)
        best_cfg = opt.best_configuration()
        lookup = {r.configuration: r.gflops_per_watt for r in paper_rows}
        truth = max(lookup.values())
        # GA picks from the discrete space of its training values; score the
        # pick on the full table when available
        picked = lookup.get(best_cfg)
        assert picked is not None
        assert picked > 0.95 * truth

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GeneticOptimizer(population=2)
        with pytest.raises(ValueError):
            GeneticOptimizer(mutation_rate=2.0)
        with pytest.raises(ValueError):
            GeneticOptimizer(population=8, elite=8)


def _oracle_pick(fitted, pool):
    """The answer for one pool, worked out here rather than by the optimizer.

    A pool of fit-time configurations indexes one score vector over all
    of them and takes the first maximum; a pool holding a configuration
    never seen at fit time is scored directly.  A ``None`` pool is the
    whole fit-time set, except for the GA, which answers it with the pick
    its artifact records.
    """
    import numpy as np

    universe = fitted.training_configurations()
    if pool is None:
        if isinstance(fitted, GeneticOptimizer):
            payload = json.loads(fitted.serialize())["payload"]
            return Configuration.from_dict(payload["best"])
        pool = universe
    index = {cfg: i for i, cfg in enumerate(universe)}
    if all(cfg in index for cfg in pool):
        scores = fitted.predict_efficiency_batch(universe)[
            [index[cfg] for cfg in pool]
        ]
    else:
        scores = fitted.predict_efficiency_batch(pool)
    return pool[int(np.argmax(scores))]


class TestBatchParity:
    """Every pool is answered by argmax over one shared score vector.

    ``best_configurations`` is checked against :func:`_oracle_pick`, an
    argmax written in this file, and a pool's answer must not depend on
    the other pools of the call.  Raw batch *values* may differ from
    scalar ones in final-ulp rounding (BLAS matmul), so they are
    compared with approx.
    """

    def test_batch_values_match_scalar(self, fitted, paper_rows):
        configs = [r.configuration for r in paper_rows[:25]]
        batch = fitted.predict_efficiency_batch(configs)
        assert batch.shape == (len(configs),)
        for got, cfg in zip(batch, configs):
            assert got == pytest.approx(fitted.predict_efficiency(cfg))

    def test_batch_of_empty(self, fitted):
        assert fitted.predict_efficiency_batch([]).shape == (0,)

    def test_best_configurations_bit_identical(self, fitted):
        universe = fitted.training_configurations()
        pools = [
            None,
            universe,
            universe[::2],
            universe[::-1],
            [STANDARD, Configuration(16, 1, 1_500_000)],
            universe[:1],
        ]
        expected = [_oracle_pick(fitted, pool) for pool in pools]
        assert fitted.best_configurations(pools) == expected
        # alone, each pool gets the answer it got among the others
        assert [fitted.best_configuration(pool) for pool in pools] == expected

    def test_best_configurations_after_roundtrip(self, fitted):
        again = type(fitted).deserialize(fitted.serialize())
        pools = [None, fitted.training_configurations()[::3]]
        assert again.best_configurations(pools) == fitted.best_configurations(pools)

    def test_warm_covers_candidates_and_preserves_answer(self, fitted):
        before = fitted.best_configuration()
        clone = type(fitted).deserialize(fitted.serialize())
        covered = clone.warm()
        assert covered == len(clone.training_configurations())
        assert clone.best_configuration() == before

    def test_novel_pool_not_in_cache(self, fitted):
        """A pool holding a configuration never seen at fit time is
        scored directly; brute force, which cannot extrapolate, refuses
        it."""
        novel = Configuration(11, 1, 2_200_000)
        assert novel not in fitted.training_configurations()
        pool = [STANDARD, novel, BEST]
        if isinstance(fitted, BruteForceOptimizer):
            with pytest.raises(OptimizerError, match="cannot extrapolate"):
                fitted.best_configurations([pool])
            return
        expected = _oracle_pick(fitted, pool)
        assert fitted.best_configurations([pool]) == [expected]
        assert fitted.best_configurations([None, pool])[1] == expected
