import pytest

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
