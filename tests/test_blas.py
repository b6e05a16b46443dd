"""The policy gradient and the GP posterior run on one OpenBLAS thread,
and the caller's thread count comes back afterwards."""

import numpy as np
import pytest

from buttonlab import ButtonDesignParams, KernelSpec, TaskSpec, _blas, design_to_fdvv, gp, gp_fit, init_policy, policy


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the caller's count set to 2 for
    the test and the count it had restored after it."""
    controls = _blas._controls()
    if controls is None:
        pytest.skip(
            "no thread controls (scipy_openblas_* or openblas_*_num_threads) in an "
            "OpenBLAS that numpy bundles (numpy.libs or numpy/.dylibs) and has loaded"
        )
    get, set_ = controls
    before = get()
    set_(2)
    yield get
    set_(before)


def spy(read, seen, inner):
    """``inner`` that appends ``read()`` to ``seen`` on every call."""

    def wrapper(*args, **kwargs):
        seen.append(read())
        return inner(*args, **kwargs)

    return wrapper


def test_gradient_and_posterior_run_on_one_thread_and_restore_the_callers(blas_threads, monkeypatch):
    params = init_policy(0)
    design = ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.1, 0.01)
    episodes = policy.rollouts([params] * 4, [TaskSpec(design)] * 4, [design_to_fdvv(design)] * 4, range(4))
    x = np.random.default_rng(0).uniform(size=(20, 2))
    model = gp_fit(x, x.sum(axis=1), KernelSpec(1.0, np.full(2, 0.5)))
    seen = []
    monkeypatch.setattr(policy, "_mean_batch", spy(blas_threads, seen, policy._mean_batch))
    monkeypatch.setattr(gp, "_kernel_matrix", spy(blas_threads, seen, gp._kernel_matrix))

    policy.policy_gradient(episodes, params)
    gp.gp_predict_batch([model], x)
    assert seen == [1, 1]
    assert blas_threads() == 2

    with pytest.raises(ValueError, match="at least one trajectory"):
        policy.policy_gradient([], params)
    assert blas_threads() == 2

    # Nested holders: the count comes back when the outermost leaves.
    with _blas.one_thread():
        with _blas.one_thread():
            pass
        assert blas_threads() == 1
    assert blas_threads() == 2
