"""Closed-loop optimizer: evaluation, stepping, resuming, bookkeeping."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from buttonlab import (
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    CidConfig,
    MetaPolicy,
    StateError,
    cid_step,
    evaluate_designs,
    hypervolume,
    init_policy,
    initial_state,
    make_provider,
    pareto_front,
    run,
    save_artifact,
)
from buttonlab import loop, seeds
from buttonlab.acquisition import scan_candidates
from buttonlab.loop import HYPEROPT_PERIOD, EvaluationRecord, RunState, run_space, unit_designs
from buttonlab.pareto import ParetoArchive, ReferencePoint

SCHAFFER = CidConfig(
    provider="schaffer",
    budget=4,
    init_count=4,
    master_seed=3,
    scan_count=128,
)

TINY_BUTTON = CidConfig(
    provider="simulated_button",
    budget=2,
    init_count=2,
    master_seed=1,
    scan_count=64,
    episodes_per_eval=2,
    adapt_episodes=2,
    horizon=200,
    sensory_delay=10,
    dwell_limit=100,
)


def small_meta(config):
    return MetaPolicy(
        init_policy(0, layer_sizes=(5, 8, 1)),
        inner_lr=config.inner_lr,
        adapt_episodes=config.adapt_episodes,
    )


def mid_design():
    return np.array([0.5 * (lo + hi) for lo, hi in (DESIGN_BOUNDS[f] for f in DESIGN_FIELDS)])


def test_evaluate_design_is_deterministic_and_bounded():
    meta = MetaPolicy(init_policy(0, layer_sizes=(5, 8, 1)), 0.05, 2)
    design = mid_design()
    [(a, _)] = evaluate_designs([design], meta, episodes=3, seeds=[5], horizon=150)
    [(b, _)] = evaluate_designs([design], meta, episodes=3, seeds=[5], horizon=150)
    [(c, _)] = evaluate_designs([design], meta, episodes=3, seeds=[6], horizon=150)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (3,)
    assert 0.0 <= a[1] <= 1.0
    assert 0.0 < a[0] <= 150 * 0.001 + 1e-12
    assert a[2] >= 0.0


def test_evaluate_design_rejects_bad_input():
    meta = MetaPolicy(init_policy(0, layer_sizes=(5, 8, 1)), 0.05, 0)
    bad = mid_design()
    bad[0] = 99.0
    with pytest.raises(ValueError):
        evaluate_designs([bad], meta, episodes=2, seeds=[0])
    with pytest.raises(ValueError):
        evaluate_designs([mid_design()], meta, episodes=0, seeds=[0])
    with pytest.raises(ValueError, match="seed per design"):
        evaluate_designs([mid_design(), mid_design()], meta, episodes=2, seeds=[0])


def initial_designs(config):
    """The raw initial design set ``initial_state`` evaluates under ``config``."""
    _, _, lower, upper, _ = run_space(config)
    unit = scan_candidates(lower.size, config.init_count, seeds.seed_int(config.master_seed, "doe"))
    return lower + unit * (upper - lower)


def traced_peak(fn):
    """``fn()`` and the tracemalloc peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_evaluation_memory_stays_near_one_design():
    # Adaptation runs all designs' episodes in one lockstep, and so does
    # evaluation.  The lockstep records by chunks of ticks, so a batch holds
    # memory by the ticks its episodes run, and evaluation records no
    # observations: this one peaks near 1.55 times one design's.
    config = CidConfig(master_seed=1, init_count=8)
    designs = initial_designs(config)
    eval_seeds = [seeds.seed_int(config.master_seed, "evaluate", i) for i in range(config.init_count)]
    # The benchmark's fixed user: every episode runs long.
    meta = MetaPolicy(init_policy(seeds.seed_for(0, "meta_init")))

    def evaluate(rows, row_seeds):
        return evaluate_designs(rows, meta, 20, row_seeds, horizon=300)

    singles = [traced_peak(lambda: evaluate([d], [s])) for d, s in zip(designs, eval_seeds)]
    batch, peak = traced_peak(lambda: evaluate(designs, eval_seeds))
    for (got, got_summaries), ([(want, want_summaries)], _) in zip(batch, singles, strict=True):
        assert got.tobytes() == want.tobytes()
        assert repr(got_summaries) == repr(want_summaries)
    assert peak < 2.5 * max(p for _, p in singles)


def test_initial_state_batch_matches_per_design_evaluation(tmp_path):
    # The simulated provider evaluates the initial set in one batch; its
    # run state holds the bits of evaluating the designs one at a time.
    config = dataclasses.replace(TINY_BUTTON, init_count=4, adapt_episodes=8, episodes_per_eval=4)
    provider = make_provider(config, small_meta(config))
    assert provider.evaluate_batch is not None
    saved = []
    for name, source in (("batch", provider), ("mapped", dataclasses.replace(provider, evaluate_batch=None))):
        path = tmp_path / f"{name}.json"
        save_artifact(str(path), initial_state(config, source))
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_schaffer_provider_evaluates_exactly():
    provider = make_provider(SCHAFFER)
    objectives, summaries, used = provider.evaluate(np.array([1.0]), 0)
    assert np.array_equal(objectives, np.array([1.0, 1.0]))
    assert summaries == () and used == ()
    assert provider.objective_names == ("f1", "f2")
    assert np.array_equal(provider.fixed_reference, np.array([4.0, 4.0]))


def test_run_space_follows_provider():
    names, objectives, lower, upper, _ = run_space(TINY_BUTTON)
    assert names == DESIGN_FIELDS
    assert lower[0] == DESIGN_BOUNDS["travel"][0]
    assert objectives == ("completion_time_s", "error_rate", "effort")

    names, objectives, lower, upper, _ = run_space(SCHAFFER)
    assert names == ("x0",)
    assert objectives == ("f1", "f2")


def brute_nondominated(objs):
    keep = []
    for i in range(objs.shape[0]):
        dominated = False
        for j in range(objs.shape[0]):
            if j == i:
                continue
            if np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def test_initial_state_invariants():
    schaffer = make_provider(SCHAFFER)
    # Rows 0 and 2 are exact copies; the archive keeps every copy.
    rows = iter(np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0]]))
    copies = dataclasses.replace(schaffer, evaluate=lambda design, seed: (next(rows), (), ()))
    for provider in (schaffer, copies):
        state = initial_state(SCHAFFER, provider)
        assert len(state.records) == SCHAFFER.init_count
        assert state.iteration == 0
        assert len(state.models) == 2
        assert np.array_equal(state.reference.values, np.array([4.0, 4.0]))
        for rec in state.records:
            assert np.all(rec.design >= provider.lower - 1e-12)
            assert np.all(rec.design <= provider.upper + 1e-12)

        objs = np.array([r.objectives for r in state.records])
        assert [e.record_id for e in state.archive.entries] == brute_nondominated(objs)
    assert [e.record_id for e in state.archive.entries] == [0, 1, 2]


def test_initial_state_seeds_are_reproducible():
    a = initial_state(SCHAFFER)
    b = initial_state(SCHAFFER)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.design, rb.design)
        assert np.array_equal(ra.objectives, rb.objectives)


def test_cid_step_appends_and_preserves_invariants():
    provider = make_provider(SCHAFFER)
    state = initial_state(SCHAFFER, provider)
    ref = state.reference.values
    previous_hv = hypervolume(
        np.array([r.objectives for r in state.records])[
            pareto_front(np.array([r.objectives for r in state.records]))
        ],
        ref,
    ).value
    for _ in range(SCHAFFER.budget):
        state = cid_step(state, provider)
        assert len(state.records) == SCHAFFER.init_count + state.iteration
        newest = state.records[-1]
        assert np.all(newest.design >= provider.lower - 1e-12)
        assert np.all(newest.design <= provider.upper + 1e-12)

        front = state.archive.objective_matrix
        assert len(brute_nondominated(front)) == front.shape[0]
        hv = hypervolume(front, ref).value
        assert hv >= previous_hv - 1e-12
        previous_hv = hv

    with pytest.raises(StateError):
        cid_step(state, provider)


def test_refits_start_from_the_state_kernels_and_the_first_fit_from_none(monkeypatch):
    config = dataclasses.replace(SCHAFFER, budget=HYPEROPT_PERIOD)
    provider = make_provider(config)
    search = loop.optimize_hyperparams
    starts = []

    def recorded(inputs, targets, **kwargs):
        starts.append(kwargs["start"])
        return search(inputs, targets, **kwargs)

    monkeypatch.setattr(loop, "optimize_hyperparams", recorded)
    state = initial_state(config, provider)
    assert starts == [None, None]
    for _ in range(HYPEROPT_PERIOD - 1):
        state = cid_step(state, provider)
    assert len(starts) == 2
    refit = cid_step(state, provider)
    assert refit.iteration == HYPEROPT_PERIOD
    assert len(starts) == 4 and all(got is want for got, want in zip(starts[2:], state.kernels, strict=True))


def test_run_produces_exactly_init_plus_budget_records():
    state, archive = run(SCHAFFER)
    assert len(state.records) == SCHAFFER.init_count + SCHAFFER.budget
    assert state.iteration == SCHAFFER.budget
    assert archive is state.archive


def test_run_resume_matches_uninterrupted():
    provider = make_provider(SCHAFFER)
    full, _ = run(SCHAFFER)

    half = initial_state(SCHAFFER, provider)
    for _ in range(2):
        half = cid_step(half, provider)
    resumed, _ = run(SCHAFFER, resume_from=half)

    assert len(resumed.records) == len(full.records)
    for ra, rb in zip(resumed.records, full.records):
        assert np.array_equal(ra.design, rb.design)
        assert np.array_equal(ra.objectives, rb.objectives)
    assert {e.record_id for e in resumed.archive.entries} == {
        e.record_id for e in full.archive.entries
    }


def test_run_rejects_foreign_resume_state():
    state = initial_state(SCHAFFER)
    other = dataclasses.replace(SCHAFFER, master_seed=99)
    with pytest.raises(ValueError):
        run(other, resume_from=state)


def test_no_duplicate_designs_in_a_run():
    state, _ = run(SCHAFFER)
    designs = np.array([r.design for r in state.records])
    for i in range(designs.shape[0]):
        for j in range(i + 1, designs.shape[0]):
            assert np.max(np.abs(designs[i] - designs[j])) > 1e-9


def test_persist_callback_sees_every_state():
    seen = []
    run(SCHAFFER, persist=seen.append)
    assert len(seen) == 1 + SCHAFFER.budget
    assert [len(s.records) for s in seen] == [
        SCHAFFER.init_count + k for k in range(SCHAFFER.budget + 1)
    ]


@pytest.mark.parametrize("provider, m", [("zdt1", 2), ("simulated_button", 3)])
def test_archive_and_curve_are_sequential_insertion_bit_for_bit(provider, m):
    # Five random levels per objective give exact duplicates, ties in one
    # coordinate and dominated rows; some rows are copied outright.
    rng = np.random.default_rng(20 + m)
    config = CidConfig(provider=provider, init_count=3)
    _, _, lower, upper, _ = run_space(config)
    for trial in range(40):
        n = int(rng.integers(3, 30))
        levels = rng.random((5, m))
        objs = levels[rng.integers(0, 5, size=(n, m)), np.arange(m)]
        copies = rng.integers(0, n, size=n // 4)
        objs[rng.integers(0, n, size=copies.size)] = objs[copies]
        records = tuple(
            EvaluationRecord(lower + rng.random(lower.size) * (upper - lower), row, (), ()) for row in objs
        )
        reference = ReferencePoint(np.full(m, 1.1) if trial % 2 else np.full(m, 0.8))
        state = RunState(config, records, (), reference)

        archive, expected_curve = ParetoArchive(()), []
        for i, (unit, rec) in enumerate(zip(unit_designs(config, records), records)):
            archive = archive.inserted(unit, rec.objectives, i)
            if i + 1 >= config.init_count:
                expected_curve.append(hypervolume(archive.objective_matrix, reference).value)
        got = state.archive
        assert [e.record_id for e in got.entries] == [e.record_id for e in archive.entries], trial
        assert got.design_matrix.tobytes() == archive.design_matrix.tobytes(), trial
        assert got.objective_matrix.tobytes() == archive.objective_matrix.tobytes(), trial
        curve = state.hypervolume_curve()
        assert np.array(curve).tobytes() == np.array(expected_curve).tobytes(), trial


def test_button_loop_with_objective_subset():
    config = dataclasses.replace(
        TINY_BUTTON, objectives=("error_rate", "completion_time_s")
    )
    meta = small_meta(config)
    provider = make_provider(config, meta)
    assert provider.objective_names == ("error_rate", "completion_time_s")

    state = initial_state(config, provider)
    state = cid_step(state, provider)
    assert len(state.records) == 3
    assert state.records[-1].objectives.shape == (2,)

    # The subset provider reorders the canonical triple.
    design = state.records[0].design
    seed = state.records[0].seeds[0]
    [(full, _)] = evaluate_designs(
        [design],
        meta,
        config.episodes_per_eval,
        [seed],
        config.horizon,
        config.sensory_delay,
        config.dwell_limit,
    )
    assert np.array_equal(state.records[0].objectives, full[[1, 0]])


def test_button_records_keep_episode_summaries():
    meta = small_meta(TINY_BUTTON)
    provider = make_provider(TINY_BUTTON, meta)
    state = initial_state(TINY_BUTTON, provider)
    for rec in state.records:
        assert len(rec.episodes) == TINY_BUTTON.episodes_per_eval
        assert len(rec.seeds) == 1
        for ep in rec.episodes:
            assert isinstance(ep.success, bool)
            assert ep.time_to_activation_s is None or ep.time_to_activation_s >= 0.0


def test_provider_box_must_be_the_config_design_box():
    # The loop proposes in the provider's box but fits and archives in the
    # config's; a ZDT1 provider cut to [0, 0.5] would mix two cubes.
    config = dataclasses.replace(SCHAFFER, provider="zdt1")
    provider = make_provider(config)
    cut = dataclasses.replace(provider, upper=np.full_like(provider.upper, 0.5))
    with pytest.raises(ValueError, match="design box"):
        initial_state(config, cut)
    state = initial_state(config, provider)
    with pytest.raises(ValueError, match="design box"):
        cid_step(state, cut)
    assert cid_step(state, provider).iteration == 1


def test_initial_state_refuses_an_objective_vector_of_the_wrong_length():
    # A two-objective button config whose provider returns the full triple.
    config = dataclasses.replace(TINY_BUTTON, objectives=("completion_time_s", "error_rate"))
    provider = make_provider(config, small_meta(config))
    triple = dataclasses.replace(
        provider, evaluate=lambda design, seed: (np.ones(3), (), (seed,)), evaluate_batch=None
    )
    with pytest.raises(ValueError, match="3 objective values for 2 objectives"):
        initial_state(config, triple)


def test_cid_step_refuses_an_objective_vector_of_the_wrong_length():
    config = dataclasses.replace(SCHAFFER, provider="zdt1")
    provider = make_provider(config)
    state = initial_state(config, provider)
    triple = dataclasses.replace(provider, evaluate=lambda design, seed: (np.ones(3), (), ()))
    with pytest.raises(ValueError, match="3 objective values for 2 objectives"):
        cid_step(state, triple)
