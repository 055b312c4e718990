import pytest

from repro.config import DistinctConfig, deep_path_config, default_path_config
from repro.data.world import (
    GroundTruth,
    load_ground_truth,
    save_ground_truth,
)


class TestDistinctConfig:
    def test_defaults_bind_to_dblp(self):
        config = DistinctConfig()
        assert config.reference_relation == "Publish"
        assert config.object_relation == "Authors"
        assert config.min_sim > 0

    def test_with_options_replaces_fields(self):
        config = DistinctConfig().with_options(min_sim=0.5, seed=42)
        assert config.min_sim == 0.5
        assert config.seed == 42
        assert config.reference_relation == "Publish"

    def test_with_options_does_not_mutate_original(self):
        original = DistinctConfig()
        original.with_options(min_sim=0.9)
        assert original.min_sim != 0.9

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DistinctConfig().min_sim = 0.5

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            DistinctConfig().with_options(nonsense=1)

    @pytest.mark.parametrize(
        "removed",
        [
            {"shared_memory": True},
            {"shard_strategy": "cost"},
            {"propagation_memo_size": 0},
        ],
    )
    def test_removed_dispatch_knobs_rejected(self, removed):
        # The per-name pool has one dispatch policy and propagation reads
        # partner lists straight from the index; these knobs are gone.
        with pytest.raises(TypeError):
            DistinctConfig(**removed)

    def test_path_budgets(self):
        assert default_path_config().max_hops == 5
        assert deep_path_config().max_hops == 7
        assert deep_path_config().max_sibling_expansions == 3


class TestGroundTruthSerialization:
    def make_truth(self) -> GroundTruth:
        return GroundTruth(
            entity_of_row={0: 10, 1: 10, 2: 11},
            author_row_of_name={"Wei Wang": 0},
            rows_of_name={"Wei Wang": [0, 1, 2]},
        )

    def test_round_trip(self, tmp_path):
        truth = self.make_truth()
        path = tmp_path / "truth.json"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert loaded.entity_of_row == truth.entity_of_row
        assert loaded.author_row_of_name == truth.author_row_of_name
        assert loaded.rows_of_name == truth.rows_of_name

    def test_row_keys_are_ints_after_load(self, tmp_path):
        truth = self.make_truth()
        path = tmp_path / "truth.json"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert all(isinstance(k, int) for k in loaded.entity_of_row)

    def test_clusters_survive_round_trip(self, tmp_path):
        truth = self.make_truth()
        path = tmp_path / "truth.json"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert loaded.clusters_for("Wei Wang") == {10: {0, 1}, 11: {2}}

    def test_label_list(self):
        truth = self.make_truth()
        assert truth.label_list([2, 0]) == [11, 10]
