"""Closed-loop optimizer: evaluation, stepping, resuming, bookkeeping."""

import dataclasses

import numpy as np
import pytest

from buttonlab import (
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    CidConfig,
    MetaPolicy,
    StateError,
    cid_step,
    evaluate_design,
    hypervolume,
    init_policy,
    initial_state,
    make_provider,
    pareto_front,
    run,
)
from buttonlab.loop import design_box, objective_names, restore_state

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
    a, _ = evaluate_design(design, meta, episodes=3, seed=5, horizon=150)
    b, _ = evaluate_design(design, meta, episodes=3, seed=5, horizon=150)
    c, _ = evaluate_design(design, meta, episodes=3, seed=6, horizon=150)
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
        evaluate_design(bad, meta, episodes=2, seed=0)
    with pytest.raises(ValueError):
        evaluate_design(mid_design(), meta, episodes=0, seed=0)


def test_schaffer_provider_evaluates_exactly():
    provider = make_provider(SCHAFFER)
    objectives, summaries, used = provider.evaluate(np.array([1.0]), 0)
    assert np.array_equal(objectives, np.array([1.0, 1.0]))
    assert summaries == () and used == ()
    assert provider.objective_names == ("f1", "f2")
    assert np.array_equal(provider.fixed_reference, np.array([4.0, 4.0]))


def test_design_box_and_objective_names_follow_provider():
    names, lower, upper = design_box(TINY_BUTTON)
    assert names == DESIGN_FIELDS
    assert lower[0] == DESIGN_BOUNDS["travel"][0]
    assert objective_names(TINY_BUTTON) == ("completion_time_s", "error_rate", "effort")

    names, lower, upper = design_box(SCHAFFER)
    assert names == ("x0",)
    assert objective_names(SCHAFFER) == ("f1", "f2")


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
    provider = make_provider(SCHAFFER)
    state = initial_state(SCHAFFER, provider)
    assert len(state.records) == SCHAFFER.init_count
    assert state.iteration == 0
    assert len(state.models) == 2
    assert np.array_equal(state.reference.values, np.array([4.0, 4.0]))
    for rec in state.records:
        assert np.all(rec.design >= provider.lower - 1e-12)
        assert np.all(rec.design <= provider.upper + 1e-12)

    objs = np.array([r.objectives for r in state.records])
    expected_ids = set()
    for i in brute_nondominated(objs):
        # Duplicated objective rows keep only the first insertion.
        if not any(np.array_equal(objs[i], objs[j]) for j in expected_ids):
            expected_ids.add(i)
    got_ids = {e.record_id for e in state.archive.entries}
    assert got_ids == expected_ids


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


def test_rebuild_archive_matches_live_archive():
    state, _ = run(SCHAFFER)
    kernels = [m.kernel for m in state.models]
    rebuilt = restore_state(SCHAFFER, state.records, kernels, state.reference).archive
    assert [e.record_id for e in rebuilt.entries] == [e.record_id for e in state.archive.entries]
    assert rebuilt.design_matrix.tobytes() == state.archive.design_matrix.tobytes()
    assert rebuilt.objective_matrix.tobytes() == state.archive.objective_matrix.tobytes()


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
    full, _ = evaluate_design(
        design,
        meta,
        config.episodes_per_eval,
        seed,
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
            assert np.isnan(ep.time_to_activation_s) or ep.time_to_activation_s >= 0.0


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
