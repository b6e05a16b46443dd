"""Acceptance gate: eleven end-to-end checks with independent oracles.

Each test measures one release criterion and prints a single PASS/FAIL
line with the observed margins (visible with -s, or in captured output).
The oracles here and in the sibling test modules share no code with the
package implementations they judge.
"""

import os
import tempfile
import time

import numpy as np

from buttonlab import (
    ButtonDesignParams,
    CidConfig,
    KernelSpec,
    MetaPolicy,
    ParetoArchive,
    ReferencePoint,
    TaskSpec,
    adapt,
    cid_step,
    compensate_drive,
    design_to_fdvv,
    export_front,
    fit_bspline_bic,
    fit_fdvv,
    force_at,
    get_problem,
    gp_fit,
    hypervolume,
    init_policy,
    initial_state,
    load_artifact,
    meta_train,
    pareto_front,
    policy_gradient,
    rollout,
    rollouts,
    run,
    save_artifact,
    scripted_press_trace,
    seeds,
)
from buttonlab.button import ACTIVATION, RELEASE

from test_bspline import cox_de_boor, random_curve
from test_button import (
    MASS,
    PRESS_N,
    SPRING_K,
    closed_form,
    linear_model,
    press_release_profile,
    press_ticks,
    random_design,
    rk4_reference,
)
from test_capture import constant_velocity_trace
from test_gp import oracle_predict, predict_one, random_problem
from test_policy import EASY, default_task_sampler, linear_params, surrogate_objective


def _verdict(label: str, ok: bool, detail: str, t0: float) -> None:
    line = f"{label} {'PASS' if ok else 'FAIL'} {detail} [{time.monotonic() - t0:.1f}s]"
    print(line)
    assert ok, line


def test_c01_gp_matches_dense_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_mean = worst_var = 0.0
    for _ in range(100):
        x, y, spec = random_problem(rng)
        model = gp_fit(x, y, spec)
        for _ in range(2):
            q = rng.uniform(-2.5, 2.5, size=x.shape[1])
            mean, var = oracle_predict(spec, x, y, q)
            pred_mean, pred_var = predict_one(model, q)
            worst_mean = max(worst_mean, abs(pred_mean - mean))
            worst_var = max(worst_var, abs(pred_var - max(var, 0.0)))

    worst_interp = 0.0
    for _ in range(20):
        x, y, spec = random_problem(rng)
        exact = KernelSpec(spec.signal_variance, spec.lengthscales, 0.0)
        model = gp_fit(x, y, exact)
        preds = np.array([predict_one(model, xi)[0] for xi in x])
        worst_interp = max(worst_interp, float(np.max(np.abs(preds - y))))

    ok = worst_mean < 1e-8 and worst_var < 1e-8 and worst_interp < 1e-6
    _verdict(
        "C01",
        ok,
        f"gp vs dense oracle on 100 problems: mean err {worst_mean:.1e}, "
        f"var err {worst_var:.1e}, noise-free interp err {worst_interp:.1e}",
        t0,
    )


def _grid_hypervolume(points: np.ndarray, per_axis: int) -> float:
    """Inclusion count on a rectilinear grid whose lines include every
    point coordinate, which makes each cell wholly in or out."""
    m = points.shape[1]
    axes = []
    for j in range(m):
        coords = np.unique(np.clip(points[:, j], 0.0, 1.0))
        fill = np.linspace(0.0, 1.0, max(per_axis + 1 - coords.size, 2))
        axes.append(np.unique(np.concatenate([coords, fill])))
    marks = np.zeros([a.size - 1 for a in axes], dtype=bool)
    for p in points:
        idx = tuple(
            slice(int(np.searchsorted(axes[j][:-1], p[j], side="left")), None) for j in range(m)
        )
        marks[idx] = True
    vol = marks.astype(float)
    for j, a in enumerate(axes):
        shape = [1] * m
        shape[j] = a.size - 1
        vol = vol * np.diff(a).reshape(shape)
    return float(vol.sum())


def test_c02_hypervolume_matches_grid_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 30)), 2))
        mine = hypervolume(pts, ReferencePoint(np.ones(2))).value
        worst = max(worst, abs(mine - _grid_hypervolume(pts, 1000)))
    for _ in range(50):
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 25)), 3))
        mine = hypervolume(pts, ReferencePoint(np.ones(3))).value
        worst = max(worst, abs(mine - _grid_hypervolume(pts, 100)))

    one = ReferencePoint(np.ones(2))
    empty_ok = hypervolume(np.empty((0, 2)), one).value == 0.0
    unit_ok = hypervolume(np.array([[0.0, 0.0]]), one).value == 1.0
    three = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    three_err = abs(hypervolume(three, one).value - 0.37)

    ok = worst < 1e-3 and empty_ok and unit_ok and three_err < 1e-12
    _verdict(
        "C02",
        ok,
        f"hypervolume vs 1e6-cell grid on 100 sets: max diff {worst:.1e}; "
        f"hand cases empty={empty_ok} unit={unit_ok} three-point err {three_err:.1e}",
        t0,
    )


def test_c03_pareto_matches_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(2, 5))
        # Coarse values create ties and exact duplicates on purpose.
        objs = np.round(rng.uniform(0.0, 1.0, size=(n, m)), 2)
        keep = np.ones(n, dtype=bool)
        for r in range(n):
            le = np.all(objs <= objs[r], axis=1)
            lt = np.any(objs < objs[r], axis=1)
            keep[r] = not np.any(le & lt)
        got = np.sort(np.asarray(pareto_front(objs)))
        want = np.nonzero(keep)[0]
        assert np.array_equal(got, want), f"set {i} mismatch"
        checked += 1
    _verdict("C03", checked == 1000, f"pareto_front equals O(n^2) filter on {checked} sets", t0)


def test_c04_mobo_sample_efficiency():
    t0 = time.monotonic()
    schaffer = get_problem("schaffer")
    truth_s = hypervolume(schaffer.true_front(2048), ReferencePoint(schaffer.reference)).value
    ratios_s, wins = [], 0
    for seed in range(10):
        cfg = CidConfig(provider="schaffer", budget=40, init_count=8, master_seed=seed)
        state, archive = run(cfg)
        got = hypervolume(archive.objective_matrix, state.reference).value
        ratios_s.append(got / truth_s)
        # Paired random search with the same evaluation count.
        rng = np.random.default_rng(seed)
        xs = rng.uniform(schaffer.lower, schaffer.upper, size=(48, schaffer.dim))
        objs = np.array([schaffer.evaluate(x) for x in xs])
        front = objs[pareto_front(objs)]
        mask = np.all(front <= schaffer.reference[None, :], axis=1)
        rand_hv = hypervolume(front[mask], ReferencePoint(schaffer.reference)).value if np.any(mask) else 0.0
        wins += got > rand_hv

    zdt1 = get_problem("zdt1")
    truth_z = hypervolume(zdt1.true_front(2048), ReferencePoint(zdt1.reference)).value
    ratios_z = []
    for seed in range(10):
        cfg = CidConfig(provider="zdt1", budget=60, init_count=8, master_seed=seed)
        state, archive = run(cfg)
        ratios_z.append(hypervolume(archive.objective_matrix, state.reference).value / truth_z)

    mean_s, mean_z = float(np.mean(ratios_s)), float(np.mean(ratios_z))
    ok = mean_s >= 0.95 and wins >= 9 and mean_z >= 0.90
    _verdict(
        "C04",
        ok,
        f"schaffer mean hv ratio {mean_s:.4f} (>=0.95), beats random {wins}/10 (>=9); "
        f"zdt1 mean hv ratio {mean_z:.4f} (>=0.90)",
        t0,
    )


def test_c05_bspline_bic_recovery():
    t0 = time.monotonic()
    worst_rmse, in_window = 0.0, 0
    for seed in range(20):
        local = np.random.default_rng(seed)
        truth = random_curve(local, interior=8)
        # x spans [0, 1] exactly so the candidate knot grid for interior=8
        # coincides with the generating spline's knots.
        x = np.linspace(0.0, 1.0, 400)
        y = truth(x) + local.normal(0.0, 0.01, size=400)
        curve, interior, _ = fit_bspline_bic(np.column_stack([x, y]))
        dense = np.linspace(0.0, 1.0, 1000)
        rmse = float(np.sqrt(np.mean((curve(dense) - truth(dense)) ** 2)))
        worst_rmse = max(worst_rmse, rmse)
        in_window += 6 <= interior <= 10 and rmse < 0.02

    rng = np.random.default_rng(505)
    worst_eval = 0.0
    for _ in range(5):
        curve = random_curve(rng)
        xs = rng.uniform(0.0, 1.0, size=10)
        for x in xs:
            oracle = sum(
                c * cox_de_boor(curve.knots, i, curve.degree, float(x))
                for i, c in enumerate(curve.coefficients)
            )
            worst_eval = max(worst_eval, abs(float(curve(x)) - oracle))

    ok = in_window == 20 and worst_rmse < 0.02 and worst_eval < 1e-10
    _verdict(
        "C05",
        ok,
        f"bic recovery {in_window}/20 seeds in [6,10] knots, worst rmse {worst_rmse:.4f} (<0.02); "
        f"de boor err {worst_eval:.1e} on 50 points",
        t0,
    )


def test_c06_simulator_physics():
    t0 = time.monotonic()
    trace = scripted_press_trace(linear_model(), np.full(500, PRESS_N), dt=1e-4, mass_kg=MASS)
    reference = closed_form(trace.time)
    spring_err = float(np.max(np.abs(trace.displacement - reference)) / (PRESS_N / SPRING_K))

    rk = rk4_reference(0.05, 1e-5)
    rk_err = float(np.max(np.abs(closed_form(rk[:, 0]) - rk[:, 1])))

    rng = np.random.default_rng(606)
    alternating = 0
    for _ in range(1000):
        design = random_design(rng)
        fdvv = design_to_fdvv(design)
        expect = ACTIVATION
        good = True
        for _, _, event in press_ticks(fdvv, press_release_profile(rng)):
            if event is not None:
                good = good and event == expect
                expect = RELEASE if expect == ACTIVATION else ACTIVATION
        alternating += good

    design = random_design(np.random.default_rng(7))
    fdvv = design_to_fdvv(design)
    profile = press_release_profile(np.random.default_rng(8))
    a = scripted_press_trace(fdvv, profile)
    b = scripted_press_trace(fdvv, profile)
    identical = all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("time", "displacement", "force", "vibration")
    )

    ok = spring_err < 0.02 and rk_err < 1e-8 and alternating == 1000 and identical
    _verdict(
        "C06",
        ok,
        f"linear spring rel err {spring_err:.4f} (<0.02), rk4 cross-check {rk_err:.1e}; "
        f"alternation {alternating}/1000 profiles; repeat bit-identical={identical}",
        t0,
    )


def test_c07_drive_compensation():
    t0 = time.monotonic()
    h = np.array([0.7, 0.3])
    rng = np.random.default_rng(707)
    worst_final = 0.0
    monotone = True
    for k in range(20):
        target = rng.standard_normal(int(rng.integers(32, 129)))
        drive, rmse = compensate_drive(target, h, max_iters=50)
        resid = np.convolve(drive, h)[: target.size] - target
        check = float(np.sqrt(np.mean(resid**2)))
        assert abs(check - rmse) < 1e-12
        worst_final = max(worst_final, check)
        history = [
            compensate_drive(target, h, max_iters=i, tol=0.0)[1] for i in range(1, 51)
        ]
        monotone = monotone and all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    ok = worst_final < 1e-3 and monotone
    _verdict(
        "C07",
        ok,
        f"20 targets: worst rmse {worst_final:.1e} (<1e-3) within 50 iters, monotone={monotone}",
        t0,
    )


def test_c08_policy_gradient_correctness():
    t0 = time.monotonic()
    # The reduced linear policy has 7 parameters (5 weights, bias,
    # log-std); finite differences reuse the frozen trajectories so the
    # random numbers are common to both sides.
    params = linear_params(weights=[0.4, -0.3, 0.2, 0.1, -0.1], bias=1.5, log_std=-0.4)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=120, sensory_delay=10, dwell_limit=60)
    batch = [rollout(params, task, model, seed) for seed in range(4)]
    baseline = float(np.mean([t.return_ for t in batch]))
    grad = policy_gradient(batch, params, baseline=baseline)
    fd = np.empty_like(grad)
    eps = 1e-4
    for i in range(grad.size):
        up = params.vector.copy()
        dn = params.vector.copy()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (
            surrogate_objective(batch, params.replaced(up), baseline=baseline)
            - surrogate_objective(batch, params.replaced(dn), baseline=baseline)
        ) / (2.0 * eps)
    rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))

    from test_policy import zeroed_trajectory

    zp = linear_params(weights=[0.1, 0.2, 0.3, 0.4, 0.5])
    zero_grad = policy_gradient([zeroed_trajectory(zp)], zp)
    zeros_exact = bool(np.all(zero_grad == 0.0))

    ok = rel < 1e-2 and zeros_exact
    _verdict(
        "C08",
        ok,
        f"analytic vs central fd on 7-parameter policy: rel err {rel:.1e} (<1e-2); "
        f"zero-advantage gradient exactly zero={zeros_exact}",
        t0,
    )


def test_c09_meta_adaptation_efficacy():
    t0 = time.monotonic()
    meta = meta_train(default_task_sampler, iterations=300, seed=0)

    def mean_return(params, task, model, master, *idx, episodes):
        trajs = rollouts(
            [params] * episodes,
            [task] * episodes,
            [model] * episodes,
            [seeds.seed_for(master, "evaluate", *idx, r) for r in range(episodes)],
        )
        return float(np.mean([t.return_ for t in trajs]))

    heldout10 = [default_task_sampler(np.random.default_rng(10_000 + i)) for i in range(10)]
    meta_scores, rand_scores = [], []
    for s in range(10):
        rand_init = init_policy(seeds.seed_for(9000 + s, "meta_init"), meta.init_params.layer_sizes)
        rand_meta = MetaPolicy(rand_init, meta.inner_lr, meta.adapt_episodes)
        for i, design in enumerate(heldout10):
            model = design_to_fdvv(design)
            task = TaskSpec(design)
            a_meta = adapt(meta, task, model, seeds.seed_int(9000, "adapt", 0, s, i))
            a_rand = adapt(rand_meta, task, model, seeds.seed_int(9000, "adapt", 1, s, i))
            meta_scores.append(mean_return(a_meta, task, model, 9000, s, i, episodes=4))
            rand_scores.append(mean_return(a_rand, task, model, 9000, s, i, episodes=4))
    meta_mean, rand_mean = float(np.mean(meta_scores)), float(np.mean(rand_scores))

    # Post-adaptation return per design is an expectation over the
    # adaptation episodes too, so it is averaged over adaptation seeds.
    heldout20 = [default_task_sampler(np.random.default_rng(20_000 + i)) for i in range(20)]
    improved = 0
    changes = []
    for i, design in enumerate(heldout20):
        model = design_to_fdvv(design)
        task = TaskSpec(design)
        pre = mean_return(meta.init_params, task, model, 9100, i, episodes=20)
        posts = [
            mean_return(
                adapt(meta, task, model, seeds.seed_int(9100, "adapt", i, a)),
                task,
                model,
                9100,
                i,
                episodes=20,
            )
            for a in range(5)
        ]
        post = float(np.mean(posts))
        improved += post > pre
        changes.append(post - pre)

    ok = meta_mean > rand_mean and improved >= 16
    worst = int(np.argmin(changes))
    flat = sum(abs(c) < 0.01 for c in changes)
    _verdict(
        "C09",
        ok,
        f"post-adaptation return {meta_mean:.3f} vs random-init {rand_mean:.3f} over 10 seeds; "
        f"adaptation improved {improved}/20 held-out designs (>=16); "
        f"{flat} changed by less than 0.01; worst change {changes[worst]:+.3f} on held-out design {worst}",
        t0,
    )


def test_c10_end_to_end_design_loop(tmp_path):
    t0 = time.monotonic()
    cfg = CidConfig(provider="simulated_button", budget=20, init_count=8, master_seed=11)

    hv_trail = []
    nondominated = True

    def persist(state):
        nonlocal nondominated
        objs = state.archive.objective_matrix
        for r in range(objs.shape[0]):
            le = np.all(objs <= objs[r], axis=1)
            lt = np.any(objs < objs[r], axis=1)
            nondominated = nondominated and not np.any(le & lt)
        hv_trail.append(hypervolume(state.archive.objective_matrix, state.reference).value)

    state_a, _ = run(cfg, persist=persist)
    monotone = all(b >= a - 1e-12 for a, b in zip(hv_trail, hv_trail[1:]))

    half = initial_state(cfg)
    for _ in range(10):
        half = cid_step(half)
    half_path = os.fspath(tmp_path / "half.json")
    save_artifact(half_path, half)
    state_b, _ = run(cfg, resume_from=load_artifact(half_path))

    pa, pb = os.fspath(tmp_path / "a.json"), os.fspath(tmp_path / "b.json")
    save_artifact(pa, state_a)
    save_artifact(pb, state_b)
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        resume_identical = fa.read() == fb.read()

    state_c, _ = run(cfg)
    fr_a, hv_a = os.fspath(tmp_path / "fa.csv"), os.fspath(tmp_path / "ha.csv")
    fr_c, hv_c = os.fspath(tmp_path / "fc.csv"), os.fspath(tmp_path / "hc.csv")
    export_front(state_a, fr_a, hv_a)
    export_front(state_c, fr_c, hv_c)
    with open(fr_a, "rb") as fa, open(fr_c, "rb") as fc:
        front_identical = fa.read() == fc.read()
    with open(hv_a, "rb") as fa, open(hv_c, "rb") as fc:
        front_identical = front_identical and fa.read() == fc.read()

    ok = nondominated and monotone and resume_identical and front_identical
    _verdict(
        "C10",
        ok,
        f"button budget 20: nondominated={nondominated}, hv monotone={monotone} "
        f"({len(hv_trail)} states), resume byte-identical={resume_identical}, "
        f"repeated front byte-identical={front_identical}",
        t0,
    )


def test_c11_fdvv_round_trip():
    t0 = time.monotonic()
    params = ButtonDesignParams(
        travel=3.0,
        activation_fraction=0.5,
        peak_force=2.0,
        snap_ratio=0.4,
        velocity_stiffening=0.3,
        damping=0.01,
    )
    model = design_to_fdvv(params)
    speeds = (10.0, 100.0, 300.0)
    refit = fit_fdvv([[constant_velocity_trace(model, v)] for v in speeds])

    act_err = abs(refit.activation_disp - model.activation_disp)
    dense = np.linspace(0.0, model.travel, 600)
    worst_ratio = 0.0
    for v in speeds:
        true_f = np.array([force_at(model, float(d), v) for d in dense])
        fit_f = np.array([force_at(refit, float(d), v) for d in dense])
        rmse = float(np.sqrt(np.mean((fit_f - true_f) ** 2)))
        worst_ratio = max(worst_ratio, rmse / float(np.max(true_f)))

    ok = act_err < 0.1 and worst_ratio < 0.05
    _verdict(
        "C11",
        ok,
        f"refit from scripted presses at 3 speeds: activation err {act_err:.3f} mm (<0.1), "
        f"worst fd rmse {worst_ratio * 100.0:.2f}% of peak (<5%)",
        t0,
    )
