import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfsv import simulate
from varfsv.exceptions import NumericalError

GRID = [(2, 1.0, 1, 20, 1)]  # (n, theta, r_true, T, p)


def test_selection_experiment_runs_a_lambda_candidate():
    cells = simulate.selection_experiment(
        GRID, 2, [0, 1], lambda bundle, r, seed: -abs(r - bundle.truth.r)
    )
    assert len(cells) == 1
    cell = cells[0]
    assert cell.winners == [1, 1]
    assert cell.frequencies == {0: 0.0, 1: 1.0}
    assert cell.failures == 0


def test_selection_experiment_counts_package_errors_as_failures():
    def fails(bundle, r, seed):
        raise NumericalError("no estimate")

    cell = simulate.selection_experiment(GRID, 2, [0, 1], fails)[0]
    assert cell.failures == 2 and cell.winners == []
    assert cell.frequencies == {0: 0.0, 1: 0.0}
    assert all("NumericalError: no estimate" in m for m in cell.failure_messages)


def test_selection_experiment_propagates_programming_errors():
    with pytest.raises(AttributeError):
        simulate.selection_experiment(
            GRID, 2, [0, 1], lambda bundle, r, seed: bundle.no_such_field
        )


def _scaled_var_draw(n, p, scale, seed):
    rng = np.random.default_rng(seed)
    _, mats = simulate.draw_var_coefficients(simulate.DgpConfig(n=n, p=p, r=0, T=1), rng)
    return [scale * a for a in mats]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8), st.sampled_from([1, 2, 3]), st.floats(0.5, 2.5),
    st.integers(0, 2**32 - 1),
)
def test_real_root_pretest_never_rejects_a_draw_eigvals_accepts(n, p, scale, seed):
    # the scale spreads the companion radii on both sides of the bound
    mats = _scaled_var_draw(n, p, scale, seed)
    bound = simulate._STABILITY_RADIUS
    if simulate.real_root_beyond(mats, bound):
        assert simulate.companion_radius(mats) >= bound


@pytest.mark.parametrize("p", [1, 2, 3])
def test_real_root_pretest_rejects_some_unstable_draws(p):
    bound = simulate._STABILITY_RADIUS
    draws = [_scaled_var_draw(5, p, 1.5, seed) for seed in range(100)]
    rejected = [simulate.real_root_beyond(m, bound) for m in draws]
    unstable = [simulate.companion_radius(m) >= bound for m in draws]
    assert 0 < sum(rejected) <= sum(unstable)
    assert all(u for r, u in zip(rejected, unstable) if r)
