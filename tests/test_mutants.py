"""Mutation gate: each law test must fail on a solver with a physics mistake.

Each case breaks one seam of the grid solver, or of the ensemble's job
plan, with monkeypatch and runs the law's own check, the same function its
law test calls, with the same tolerance; the check must fail. A mutant that
survives means the law test cannot see that mistake.
"""

import inspect
import math
import textwrap

import numpy as np
import pytest

from gravimean import grid as gridmod
from gravimean import io as iomod
from gravimean import montecarlo

from test_cli import (check_box_holds_the_vertex,
                      check_no_wrap_between_samples,
                      check_non_finite_row_refused, check_run_steps,
                      check_under_resolved)
from test_grid import (check_aliasing_mid_run, check_block_product_per_row,
                       check_boosted_packet_energy, check_box_holds_the_widths,
                       check_drift_checked_between_samples, check_edge_hit,
                       check_ehrenfest, check_second_order_in_dt,
                       check_smooth_closed_form)
from test_montecarlo import check_job_plan

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


def edit_source(monkeypatch, module, name, old, new):
    """Make module.<name> the function its source defines with old, which
    must occur once, replaced by new; it reads the module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} not once in {name}"
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    monkeypatch.setattr(module, name, scope[name])


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


def test_moment_weights_off_by_one_cell(monkeypatch):
    # every column read one cell over: the means move by dx
    real = gridmod._moment_weights
    monkeypatch.setattr(gridmod, "_moment_weights",
                        lambda spec: np.roll(real(spec), 1, axis=0))
    with pytest.raises(CHECK_FAILED):
        check_smooth_closed_form()


def test_fine_phase_offsets_shifted(monkeypatch):
    # the fine offsets dx l of _linear_phase rolled by one point, so that
    # the first point of every coarse cell gets the phase of the last
    real = gridmod._phase_points

    def mutant(spec):
        points = real(spec).copy()
        m = 1 << (spec.n.bit_length() - 1) // 2
        points[-m:] = np.roll(points[-m:], 1)
        return points

    monkeypatch.setattr(gridmod, "_phase_points", mutant)
    # the comb of wrong phases scatters weight to large |k|, and the edge
    # guard ends the law's run before its closed-form assert
    with pytest.raises(CHECK_FAILED + (gridmod.NumericalError,)):
        check_smooth_closed_form()


def test_midpoint_edge_guard_dropped(monkeypatch, tmp_path, capsys):
    # the step _advance builds sees its midpoint product with the edge
    # column zeroed; the samples keep their guard
    real_advance, real_stats = gridmod._advance, gridmod._stats

    def blind_stats(*args):
        stats = real_stats(*args)
        stats[..., 3] = 0.0
        return stats

    def mutant(*build):
        advance = real_advance(*build)

        def blind(*args):
            gridmod._stats = blind_stats
            try:
                return advance(*args)
            finally:
                gridmod._stats = real_stats

        return blind

    monkeypatch.setattr(gridmod, "_advance", mutant)
    with pytest.raises(CHECK_FAILED):
        check_no_wrap_between_samples(tmp_path, capsys)


def test_aliasing_guard_at_samples_only(monkeypatch):
    # the step-end aliasing guard holds its product until the step turns
    # out to be a sample, whose energy reads that product; every other
    # step goes unchecked
    real_aliasing, real_energy = gridmod._aliasing, gridmod._energy
    pending = []

    def held(*args):
        pending[:] = [args]

    def energy_after_guard(*args):
        if pending:
            real_aliasing(*pending.pop())
        return real_energy(*args)

    monkeypatch.setattr(gridmod, "_aliasing", held)
    monkeypatch.setattr(gridmod, "_energy", energy_after_guard)
    with pytest.raises(CHECK_FAILED):
        check_aliasing_mid_run()


@pytest.mark.parametrize("factor", ["_potential", "_kinetic_half"])
def test_drift_guard_dropped(monkeypatch, factor):
    real = gridmod._check
    monkeypatch.setattr(gridmod, "_check", lambda values, guard, *rest: (
        None if guard is gridmod._DRIFT else real(values, guard, *rest)))
    with pytest.raises(CHECK_FAILED):
        check_drift_checked_between_samples(monkeypatch, factor)


def test_moments_before_half_kinetic_step(monkeypatch):
    # the coupling reads the moments of the step-start state,
    # ifft(phi * conj(kin)), instead of the midpoint's: a first-order
    # splitting. The midpoint product keeps its guards
    real_kinetic, real_advance = gridmod._kinetic_half, gridmod._advance
    real_weighted = gridmod._weighted
    kin = []

    def recorded_kinetic(spec):
        kin[:] = [real_kinetic(spec)]
        return kin[0]

    def mutant(grid, f_meas, f_div, weights, psi, x_weights):
        advance = real_advance(grid, f_meas, f_div, weights, psi, x_weights)

        def lagged_advance(phi, step_no, t):
            start = np.fft.ifft(phi * kin[0].conj())
            _, lagged = real_weighted(gridmod._stats(start, x_weights),
                                      weights, step_no, t)
            gridmod._weighted = lambda *args: (real_weighted(*args)[0], lagged)
            try:
                return advance(phi, step_no, t)
            finally:
                gridmod._weighted = real_weighted

        return lagged_advance

    monkeypatch.setattr(gridmod, "_kinetic_half", recorded_kinetic)
    monkeypatch.setattr(gridmod, "_advance", mutant)
    with pytest.raises(CHECK_FAILED):
        check_second_order_in_dt(vbar0=0.5)


def test_block_product_flattened(monkeypatch):
    # one (2B, n) @ (n, 4) product over the whole block instead of one
    # (2, n) @ (n, 4) per row
    edit_source(monkeypatch, gridmod, "_stats", "return density @ weights",
                "return (density.reshape(-1, density.shape[-1]) @ weights"
                ").reshape(density.shape[:-1] + (4,))")
    with pytest.raises(CHECK_FAILED):
        check_block_product_per_row()


def test_step_end_product_on_moment_weights(monkeypatch):
    # the product that ends each step reads the k-space block with the
    # x-space table: its norm is n times too large, so the drift guard
    # fires at step 1, before the aliasing the law waits for
    edit_source(monkeypatch, gridmod, "evolve_block",
                "kstats = _stats(phi, k_weights)\n        before",
                "kstats = _stats(phi, x_weights)\n        before")
    with pytest.raises(CHECK_FAILED):
        check_aliasing_mid_run()


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


def test_preflight_vertex_dropped(monkeypatch, tmp_path, capsys):
    # the box bound reads the mean's parabola at t = 0 and t_max only
    edit_source(monkeypatch, gridmod, "_preflight",
                "for t in (0.0, t_max, vertex)]", "for t in (0.0, t_max)]")
    with pytest.raises(CHECK_FAILED):
        check_box_holds_the_vertex(tmp_path, capsys, monkeypatch)


def test_preflight_widths_dropped(monkeypatch):
    # the box bound counts the mean and the margin, not the packet widths
    edit_source(monkeypatch, gridmod, "_preflight",
                "8.0 + max_mean + 3.0 * width", "8.0 + max_mean")
    with pytest.raises(CHECK_FAILED):
        check_box_holds_the_widths()


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_step_check_dropped(monkeypatch, tmp_path, capsys, command):
    # step_plan without its MAX_STEPS refusal: ceil(t_max/dt) equal steps
    def unbounded(t_max, dt):
        n_steps = max(1, math.ceil(t_max / dt))
        return n_steps, t_max / n_steps

    monkeypatch.setattr(gridmod, "step_plan", unbounded)
    with pytest.raises(CHECK_FAILED):
        check_run_steps(tmp_path, capsys, monkeypatch, command)


def test_non_finite_cell_check_dropped(monkeypatch, tmp_path, capsys):
    # emit_trajectory writes inf and nan cells as it finds them
    monkeypatch.setattr(iomod, "_finite_cells", lambda *args: None)
    with pytest.raises(CHECK_FAILED):
        check_non_finite_row_refused(tmp_path, capsys)


def one_chunk_per_worker(n_trials, workers, cpus):
    """A job plan that ignores BLOCK: one chunk per worker left after the
    CPU cap, cut wherever the trials divide."""
    chunk = math.ceil(n_trials / min(workers, cpus))
    return [(s, min(s + chunk, n_trials)) for s in range(0, n_trials, chunk)]


def test_job_plan_ignores_blocks(monkeypatch):
    monkeypatch.setattr(montecarlo, "_job_bounds", one_chunk_per_worker)
    with pytest.raises(CHECK_FAILED):
        check_job_plan(monkeypatch, 16, 2, 64, [(0, 16)])


def test_cpu_cap_dropped(monkeypatch):
    real = montecarlo._job_bounds
    monkeypatch.setattr(montecarlo, "_job_bounds",
                        lambda n_trials, workers, cpus: real(n_trials, workers,
                                                             workers))
    with pytest.raises(CHECK_FAILED):
        check_job_plan(monkeypatch, 10**6, 10**6, 2,
                       [(0, 8 * montecarlo.BLOCK),
                        (8 * montecarlo.BLOCK, 10**6)])
