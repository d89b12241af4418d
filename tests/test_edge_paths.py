"""Edge-path tests filling coverage gaps across layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    entropy_filter,
    entropy_filter_mutual_information,
    entropy_rank_top_k,
    entropy_rank_top_k_mutual_information,
)
from repro.core import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.core.engine import EntropyScoreProvider, adaptive_top_k
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, PlanError
from repro.experiments.runner import run_query
from repro.synth.datasets import load_dataset


class TestRunnerSequentialFlag:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset("cdc", scale=0.01)

    def test_shuffled_path(self, dataset):
        outcome = run_query(
            dataset.store, "swope", QuerySpec("top_k", "entropy", k=2),
            seed=3, layout_seed=3,
        )
        assert len(outcome.answer) == 2

    def test_layout_seed_is_part_of_the_run(self, dataset):
        spec = QuerySpec("top_k", "entropy", k=2)
        runs = [
            run_query(dataset.store, algorithm, spec, seed=1, layout_seed=layout)
            for algorithm in ("swope", "entropy_rank")
            for layout in (None, 0, 5)
        ]
        # None is the default layout seed 0; another seed is another sample
        for default, zero, other in (runs[:3], runs[3:]):
            assert (default.answer, default.cells_scanned) == (
                zero.answer, zero.cells_scanned
            )
            assert default.answer == other.answer

    def test_mi_filter_exact_runner(self, dataset):
        target = dataset.mi_targets[0]
        spec = QuerySpec(
            "filter", "mutual_information", threshold=0.3, target=target
        )
        outcome = run_query(dataset.store, "exact", spec)
        assert outcome.sample_fraction == 1.0
        assert outcome.accuracy == 1.0


class TestExactStoppingEdges:
    def test_k_covers_all_candidates_breaks_immediately(self, small_store):
        # With k >= |C| the separation test is vacuous: one iteration.
        result = entropy_rank_top_k(small_store, 10, seed=0)
        assert len(result.attributes) == small_store.num_attributes
        assert result.stats.iterations == 1

    def test_single_candidate(self, small_store):
        result = entropy_rank_top_k(small_store, 1, seed=0, attributes=["wide"])
        assert result.attributes == ["wide"]
        assert result.stats.iterations == 1

    def test_filter_tie_with_threshold_resolved_at_full_sample(self):
        # H(x) == 1.0 exactly: neither strict rule can ever fire, so the
        # loop must run to M = N and close the comparison there.
        store = ColumnStore({"x": np.array([0, 1] * 500)})
        result = entropy_filter(store, 1.0, seed=0)
        assert result.answer_set() == {"x"}
        assert result.stats.final_sample_size == store.num_rows

    def test_custom_provider_loop(self, small_store):
        # Drive the engine loop with the exact rule (epsilon=None).
        sampler = PrefixSampler(small_store, seed=0)
        schedule = SampleSchedule(
            population_size=small_store.num_rows, initial_size=64
        )
        provider = EntropyScoreProvider(
            sampler, schedule.per_round_failure(0.01, 4)
        )
        result = adaptive_top_k(
            provider, sampler, list(small_store.attributes), 1, None, schedule
        )
        assert result.attributes == ["wide"]
        assert result.guarantee is None


def _run_plan_entry(store, entry):
    plan = plan_queries(store, [QuerySpec.from_dict(entry)])
    return PlanExecutor(store, seed=0).execute(plan)


@pytest.mark.parametrize(
    ("call", "error"),
    [
        (lambda s: swope_top_k_entropy(s, 1, attributes=[]), PlanError),
        (lambda s: swope_filter_entropy(s, 1.0, attributes=[]), PlanError),
        (
            lambda s: swope_top_k_mutual_information(s, "wide", 1, candidates=[]),
            PlanError,
        ),
        (
            lambda s: swope_filter_mutual_information(
                s, "wide", 0.5, candidates=[]
            ),
            PlanError,
        ),
        (lambda s: entropy_rank_top_k(s, 1, attributes=[]), ParameterError),
        (lambda s: entropy_filter(s, 1.0, attributes=[]), ParameterError),
        (
            lambda s: entropy_rank_top_k_mutual_information(
                s, "wide", 1, candidates=[]
            ),
            ParameterError,
        ),
        (
            lambda s: entropy_filter_mutual_information(
                s, "wide", 0.5, candidates=[]
            ),
            ParameterError,
        ),
        (
            lambda s: _run_plan_entry(
                s, {"kind": "topk-entropy", "k": 1, "attributes": []}
            ),
            PlanError,
        ),
        (
            lambda s: PlanExecutor(s, seed=0).top_k_entropy(1, attributes=[]),
            PlanError,
        ),
        (
            lambda s: PlanExecutor(s, seed=0).filter_entropy(1.0, attributes=[]),
            PlanError,
        ),
        (
            lambda s: PlanExecutor(s, seed=0).top_k_mutual_information(
                "wide", 1, candidates=[]
            ),
            PlanError,
        ),
        (
            lambda s: PlanExecutor(s, seed=0).filter_mutual_information(
                "wide", 0.5, candidates=[]
            ),
            PlanError,
        ),
    ],
    ids=[
        "swope_top_k_entropy",
        "swope_filter_entropy",
        "swope_top_k_mutual_information",
        "swope_filter_mutual_information",
        "entropy_rank_top_k",
        "entropy_filter",
        "entropy_rank_top_k_mutual_information",
        "entropy_filter_mutual_information",
        "plan_file_entry",
        "executor_top_k_entropy",
        "executor_filter_entropy",
        "executor_top_k_mutual_information",
        "executor_filter_mutual_information",
    ],
)
def test_empty_candidate_list_raises_typed_error(small_store, call, error):
    # An empty candidate list used to escape as a bare ValueError from
    # the schedule's max() over support sizes.
    with pytest.raises(error, match="at least one candidate attribute"):
        call(small_store)


class TestGeneratorSeeds:
    def test_generator_flows_through_query(self, small_store):
        from repro.core.swope import swope_top_k_entropy

        gen = np.random.default_rng(5)
        result = swope_top_k_entropy(small_store, 1, seed=gen)
        fresh = swope_top_k_entropy(small_store, 1, seed=np.random.default_rng(5))
        assert result.attributes == fresh.attributes
        assert result.stats.cells_scanned == fresh.stats.cells_scanned


class TestHeadStoreInteraction:
    def test_query_over_head_slice(self, small_store):
        from repro.core.swope import swope_top_k_entropy

        head = small_store.head(1000)
        result = swope_top_k_entropy(head, 1, seed=0)
        assert result.attributes == ["wide"]
        assert result.stats.population_size == 1000

    def test_take_accepts_plain_lists(self, small_store):
        sub = small_store.take([0, 2, 4])
        assert sub.num_rows == 3
