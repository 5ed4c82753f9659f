"""Mutation gate: each law test must fail on a solver with a physics mistake.

Each case breaks one seam of the grid solver, or of the ensemble's job
plan, with monkeypatch and runs the law's own check, the same function its
law test calls, with the same tolerance; the check must fail. A mutant that
survives means the law test cannot see that mistake.
"""

import math

import numpy as np
import pytest

from gravimean import grid as gridmod
from gravimean import montecarlo

from test_cli import check_under_resolved
from test_grid import (check_boosted_packet_energy, check_edge_hit,
                       check_ehrenfest, check_smooth_closed_form)
from test_montecarlo import check_grid_rows_once_per_block, check_job_plan

# what a failing check raises: a failed assert, or pytest.raises that saw
# nothing
CHECK_FAILED = (AssertionError, pytest.fail.Exception)


def scale_column(monkeypatch, table, column, factor):
    """Make grid.<table> return its weights with one column scaled."""
    real = getattr(gridmod, table)

    def mutant(spec):
        weights = real(spec).copy()
        weights[:, column] *= factor
        return weights

    monkeypatch.setattr(gridmod, table, mutant)


def test_kinetic_column_off(monkeypatch):
    scale_column(monkeypatch, "_k_weights", 2, 1.01)
    with pytest.raises(CHECK_FAILED):
        check_boosted_packet_energy()


def test_edge_column_zeroed(monkeypatch):
    scale_column(monkeypatch, "_moment_weights", 3, 0.0)
    with pytest.raises(CHECK_FAILED):
        check_edge_hit()


def test_alias_column_zeroed(monkeypatch, tmp_path, capsys):
    scale_column(monkeypatch, "_k_weights", 3, 0.0)
    with pytest.raises(CHECK_FAILED):
        check_under_resolved(tmp_path, capsys, 32, 3)


def test_kinetic_step_off(monkeypatch):
    # the half kinetic phase 1% too large
    monkeypatch.setattr(gridmod, "_kinetic_half", lambda spec: np.exp(
        -0.25j * 1.01 * spec.k() ** 2 * spec.dt))
    with pytest.raises(CHECK_FAILED):
        check_ehrenfest(0.3, 1.0, 0.2, 0.5)


def test_force_sign_flipped(monkeypatch):
    monkeypatch.setattr(gridmod, "_SIGN", -gridmod._SIGN)
    with pytest.raises(CHECK_FAILED):
        check_smooth_closed_form()


def one_chunk_per_worker(n_trials, workers, cpus):
    """A job plan that ignores BLOCK: one chunk per worker left after the
    CPU cap, cut wherever the trials divide."""
    chunk = math.ceil(n_trials / min(workers, cpus))
    return [(s, min(s + chunk, n_trials)) for s in range(0, n_trials, chunk)]


def test_job_plan_ignores_blocks(monkeypatch):
    monkeypatch.setattr(montecarlo, "_job_bounds", one_chunk_per_worker)
    # the job plan first: the grid check leaves BLOCK patched to 8
    with pytest.raises(CHECK_FAILED):
        check_job_plan(monkeypatch, 16, 2, 64, [(0, 16)])
    with pytest.raises(CHECK_FAILED):
        check_grid_rows_once_per_block(monkeypatch)


def test_cpu_cap_dropped(monkeypatch):
    real = montecarlo._job_bounds
    monkeypatch.setattr(montecarlo, "_job_bounds",
                        lambda n_trials, workers, cpus: real(n_trials, workers,
                                                             workers))
    with pytest.raises(CHECK_FAILED):
        check_job_plan(monkeypatch, 10**6, 10**6, 2,
                       [(0, 8 * montecarlo.BLOCK),
                        (8 * montecarlo.BLOCK, 10**6)])
