import dataclasses
import inspect
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from condwalk import (CensoringExcess, Censored, CondwalkError, DomainError,
                      HarmonicTable, IncrementLaw, LadderEstimate, McEstimate,
                      MismatchedTilt, Statistic, TargetFunction, cramer_tilt,
                      estimate_V_ladder, harmonicity_residual, mc_estimate,
                      mc_estimates, mc_max_abs_walk, mc_scaled_cdf_curve,
                      mc_tilted_survival, mc_unconditioned, simulate_exit)
from condwalk import rngstream, walk
from condwalk.oracle import exact_joint_law, sparre_andersen_survival
from condwalk.rngstream import CHUNK_SIZE, chunk_generator, stream_key

from conftest import combined_z, within_stderr


def test_simulate_exit_deterministic_paths():
    down = IncrementLaw.finite([-1.0], [1.0])
    s = simulate_exit(down, 0.5, 10, chunk_generator(0, 0))
    assert s.exit_time == 1 and not s.survived and s.terminal == -0.5

    up = IncrementLaw.finite([1.0], [1.0])
    s = simulate_exit(up, 0.0, 10, chunk_generator(0, 0))
    assert s.survived and s.exit_time == Censored(10) and s.terminal == 10.0


@pytest.mark.parametrize("x, n", [(math.nan, 10), (math.inf, 10),
                                  (-1.0, 10), (0.0, 0), (0.0, 10.5),
                                  (0.0, True), ("1.0", 10)])
def test_invalid_start_rejected(gauss_law, x, n):
    tilt = cramer_tilt(gauss_law)
    calls = [
        lambda: mc_estimate(gauss_law, x, n, Statistic.survival(), 1000, 1),
        lambda: mc_tilted_survival(gauss_law, tilt, x, n,
                                   Statistic.survival(), 1000, 1),
        lambda: simulate_exit(gauss_law, x, n, chunk_generator(0, 0)),
    ]
    if x == 0.0:
        calls.append(lambda: mc_unconditioned(gauss_law, n,
                                              Statistic.survival(), 1000, 1))
    else:
        calls.append(lambda: estimate_V_ladder(gauss_law, x, cap=1000,
                                               samples=1000, seed=1))
        table = HarmonicTable((0.0, 1.0), (McEstimate(0.7, 0.0, 10, 5),) * 2)
        calls.append(lambda: harmonicity_residual(gauss_law, table, x, 1000,
                                                  1))
    for call in calls:
        with pytest.raises(DomainError):
            call()


# each entry point with m paths and horizon n (estimate_V_ladder's cap)
_ENTRY_POINTS = {
    "mc_estimate": lambda law, m, n=5: mc_estimate(
        law, 0.0, n, Statistic.survival(), m, 1),
    "mc_estimates": lambda law, m, n=5: mc_estimates(
        law, 0.0, n, [Statistic.survival()], m, 1),
    "mc_unconditioned": lambda law, m, n=5: mc_unconditioned(
        law, n, Statistic.survival(), m, 1),
    "mc_tilted_survival": lambda law, m, n=5: mc_tilted_survival(
        law, cramer_tilt(law), 0.0, n, Statistic.survival(), m, 1),
    "mc_scaled_cdf_curve": lambda law, m, n=5: mc_scaled_cdf_curve(
        law, 0.0, n, [1.0], m, 1),
    "mc_max_abs_walk": lambda law, m, n=5: mc_max_abs_walk(law, n, 1.0, m, 1),
    "estimate_V_ladder": lambda law, m, n=1000: estimate_V_ladder(
        law, 0.0, cap=n, samples=m, seed=1),
    "harmonicity_residual": lambda law, m, n=None: harmonicity_residual(
        law, HarmonicTable((0.0, 1.0), tuple(
            McEstimate(v, 0.0, 1, 0) for v in (0.7, 1.7))), 0.5, m, 1),
}


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_samples_below_one_rejected(gauss_law, entry, samples):
    with pytest.raises(DomainError, match="samples"):
        _ENTRY_POINTS[entry](gauss_law, samples)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_non_integer_count_rejected(gauss_law, entry):
    # a float count used to raise TypeError inside the kernel, and
    # samples=True to return an estimate over one path
    call = _ENTRY_POINTS[entry]
    for samples in (1000.0, 1e5, True):
        with pytest.raises(DomainError, match="samples must be an integer"):
            call(gauss_law, samples)
    if entry == "harmonicity_residual":  # it takes one step, no horizon
        return
    for n in (10.5, 1000.0, True):
        with pytest.raises(DomainError, match="(n|cap) must be an integer"):
            call(gauss_law, 1000, n)


@pytest.mark.parametrize("x", [1e8, 1e9])
def test_stderr_stable_far_from_zero(gauss_law, x):
    # nothing dies, so the stderr is sqrt(Var S_5 / samples) = 0.005; a
    # sum of squares minus S * mean^2 cancels at this x
    est = mc_estimate(gauss_law, x, 5, Statistic.killed_position(),
                      2 * 10 ** 5, seed=1 if x == 1e8 else 0)
    assert est.stderr == pytest.approx(math.sqrt(5.0 / 2e5), rel=0.05)


def _drawn_per_path(sampler, x, n, kill=True):
    """Increments ``_advance`` draws per path, and its block lengths."""
    drawn, widths = [0], {}

    def count(d, done, row, neg, died):
        drawn[0] += d.size
        widths[done] = d.shape[1]  # the tiles of one block share done

    walk._advance(sampler, np.full(CHUNK_SIZE, float(x)), n,
                  chunk_generator(3, 0), kill=kill, observe=count)
    return drawn[0] / CHUNK_SIZE, list(widths.values())


@pytest.mark.parametrize("spec", ["gaussian", "laplace", "uniform", "pm1"])
def test_killed_blocks_follow_path_age(spec):
    # live path-steps per path: sum_{j<n} P(tau_0 > j), exactly
    if spec == "pm1":
        law, n = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5]), 60
        live = 1.0 + math.fsum(exact_joint_law(law, 0.0, j).survived_mass
                               for j in range(1, n))
    else:
        law = {"gaussian": IncrementLaw.gaussian(0.0, 1.0),
               "laplace": IncrementLaw.laplace(0.0, 1.0),
               "uniform": IncrementLaw.uniform(-1.0, 1.0)}[spec]
        n = 400
        live = math.fsum(sparre_andersen_survival(j) for j in range(n))
    drawn, _ = _drawn_per_path(law, 0.0, n)
    assert drawn / live <= 1.15


def test_unkilled_blocks_take_the_budget(gauss_law):
    n = 200
    _, lengths = _drawn_per_path(gauss_law, 0.0, n, kill=False)
    budget = walk._BLOCK_ELEMS // CHUNK_SIZE
    assert lengths == [budget] * (n // budget) + [n % budget]


class _TwoArgumentSampler:
    """A sampler whose sample_block takes no ``out``, as a timing wrapper's."""

    def __init__(self, law):
        self.law = law
        self.sigma = law.sigma

    def sample_block(self, rng, shape):
        return self.law.sample_block(rng, shape)


def test_sampler_without_out_draws_the_same(gauss_law):
    stats = [Statistic.survival(), Statistic.exit_at_n(),
             Statistic.killed_position()]
    args = (0.0, 50, stats, 3000, 8)
    assert walk._mc_many(_TwoArgumentSampler(gauss_law), *args) == \
        walk._mc_many(gauss_law, *args)


class _RecordingSampler:
    """A sampler that keeps a copy of every block it draws."""

    def __init__(self, law):
        self.law, self.blocks = law, []

    def sample_block(self, rng, shape, out=None):
        d = self.law.sample_block(rng, shape, out=out)
        self.blocks.append(d.copy())
        return d


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _set_tile(monkeypatch, floats):
    """Walk in tiles of ``floats``, on scratch arrays of that size."""
    monkeypatch.setattr(walk, "_TILE", floats)
    monkeypatch.setattr(walk, "_SPARE", [])


def _age_for(b):
    """A killed walk's age, from 28 on, whose next block is b wide."""
    done = 28
    while done // 2 < b:
        done += done // 2
    return done


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("kill", [True, False])
@pytest.mark.parametrize("b", [*range(1, 13), walk._STEP_MAJOR - 1,
                               walk._STEP_MAJOR, walk._STEP_MAJOR + 1])
def test_blocks_match_cumsum_reference(gauss_law, b, kill, negate,
                                       monkeypatch):
    # blocks up to walk._STEP_MAJOR wide are summed and scanned step-major;
    # every block must hold the bits of cumsum(axis=1) + pos, any(axis=1)
    # and the compacted last column.  A killed walk reaches done = 28 in
    # blocks 1, 1, 1, 1, 2, 3, 4, 6 and 9 wide (141 after 14, 21, 31 and
    # 47 more), so its last block is b.
    # At the default tile each block of these 300 paths is one tile; at a
    # 100-float tile it is tiles of 100 // b rows, the last one short,
    # which must reassemble into the same block.
    steps = _age_for(b) + b if kill else b
    start = np.linspace(0.0, 12.0, 300)
    runs = []
    for tile in (walk._TILE, 100):
        _set_tile(monkeypatch, tile)
        tiles = []

        def keep(d, done, row, neg, died):
            tiles.append((done, row, d.copy(),
                          None if neg is None else neg.copy(),
                          None if died is None else died.copy()))

        sampler = _RecordingSampler(gauss_law)
        surv = walk._advance(sampler, start, steps, chunk_generator(9, 1),
                             negate=negate, kill=kill, observe=keep)
        blocks = {}  # done -> the block's tiles, in row order
        for draws, (at, row, d, neg, died) in zip(sampler.blocks, tiles,
                                                  strict=True):
            assert d.shape[0] <= max(1, tile // d.shape[1])
            parts = blocks.setdefault(at, [])
            assert row == sum(p[1].shape[0] for p in parts)
            parts.append((draws, d, neg, died))
        # each whole block as (done, draws, d, neg, died)
        blocks = [(at, *(None if f[0] is None else np.concatenate(f)
                         for f in zip(*parts)))
                  for at, parts in blocks.items()]
        assert blocks[-1][2].shape[1] == b
        pos, done = start, 0
        for at, draws, d, neg, died in blocks:
            ref = np.cumsum(-draws if negate else draws, axis=1) + pos[:, None]
            assert at == done
            assert np.array_equal(_bits(d), _bits(ref))
            if kill:
                assert np.array_equal(neg, ref < 0.0)
                assert np.array_equal(died, (ref < 0.0).any(axis=1))
                pos = ref[~died, -1]
            else:
                assert neg is None and died is None
                pos = ref[:, -1]
            done += ref.shape[1]
        assert done == steps
        if kill:
            assert 0 < surv.size < start.size
        assert np.array_equal(_bits(surv), _bits(pos))
        runs.append((blocks, surv))
    # both runs match the reference of their own draws: their draws must
    # be the same too
    (whole, surv), (tiled, tiled_surv) = runs
    assert [blk[0] for blk in tiled] == [blk[0] for blk in whole]
    for a, c in zip(whole, tiled):
        assert np.array_equal(_bits(a[1]), _bits(c[1]))
    assert np.array_equal(_bits(surv), _bits(tiled_surv))


@pytest.mark.parametrize("negate", [False, True])
def test_unobserved_free_walk_matches_cumsum_reference(gauss_law, negate,
                                                       monkeypatch):
    # an unkilled walk that nothing observes keeps only the running sum of
    # each block's steps; its survivors must hold the bits of
    # pos + cumsum(draws, axis=1)[:, -1], block after block.  A budget of
    # w steps walks 2w + 1 steps in blocks w, w and 1 wide.
    start = np.linspace(0.0, 12.0, 300)
    for tile in (walk._TILE, 100):
        _set_tile(monkeypatch, tile)
        for w in (1, 12, walk._STEP_MAJOR, walk._STEP_MAJOR + 1):
            monkeypatch.setattr(walk, "_BLOCK_ELEMS", w * start.size)
            sampler = _RecordingSampler(gauss_law)
            surv = walk._advance(sampler, start, 2 * w + 1,
                                 chunk_generator(9, 2), negate=negate,
                                 kill=False)
            pos, rows, widths = start, [], []
            for draws in sampler.blocks:
                rows.append(-draws if negate else draws)
                if sum(d.shape[0] for d in rows) == start.size:
                    block = np.concatenate(rows)
                    pos = np.cumsum(block, axis=1)[:, -1] + pos
                    widths.append(block.shape[1])
                    rows = []
            assert not rows and widths == [w, w, 1]
            assert np.array_equal(_bits(surv), _bits(pos))


_GAUSS = IncrementLaw.gaussian(0.0, 1.0)
_DRIFTED = IncrementLaw.laplace(-0.3, 1.0)


def _three():
    return [Statistic.survival(), Statistic.exit_at_n(),
            Statistic.interval(0.5, 1.5)]


# every estimator family on a few thousand paths
_TILE_CASES = {
    "primal": lambda: mc_estimates(_GAUSS, 0.0, 400, _three(), 3000,
                                   seed=21),
    "dual": lambda: mc_estimates(IncrementLaw.uniform(-1.0, 1.0), 1.0, 60,
                                 _three(), 3000, seed=22, dual=True),
    "unconditioned": lambda: [mc_unconditioned(
        _GAUSS, 150, Statistic.interval(0.0, 3.0), 3000, seed=23)],
    "unconditioned_uniform": lambda: [mc_unconditioned(
        IncrementLaw.uniform(-1.0, 1.0), 150, Statistic.interval(0.0, 3.0),
        3000, seed=27)],
    "max_abs": lambda: [mc_max_abs_walk(_GAUSS, 150, 8.0, 3000, seed=24)],
    "tilted": lambda: [mc_tilted_survival(
        _DRIFTED, cramer_tilt(_DRIFTED), 0.0, 100, Statistic.survival(), 3000,
        seed=25)],
    "ladder": lambda: [estimate_V_ladder(_GAUSS, 1.0, cap=10 ** 3,
                                         samples=2000, seed=26)],
}


@pytest.mark.parametrize("name", sorted(_TILE_CASES))
def test_tiles_give_the_same_bits(name, monkeypatch):
    # 100 floats is no multiple of the block widths, so tiles end short
    # of a block's last row, and blocks over 100 steps wide run one row
    # per tile
    call = _TILE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoringExcess)
        whole = call()
        _set_tile(monkeypatch, 100)
        assert call() == whole


_GUARDED = {
    "unkilled": lambda law: mc_unconditioned(
        law, 400, Statistic.interval(0.0, 1.0), CHUNK_SIZE, seed=31),
    "unkilled_uniform": lambda law: mc_unconditioned(
        IncrementLaw.uniform(-1.0, 1.0), 400, Statistic.interval(0.0, 1.0),
        CHUNK_SIZE, seed=34),
    "killed_far": lambda law: mc_estimates(
        law, 20.0, 400, [Statistic.survival(), Statistic.interval(20.0, 1.0)],
        CHUNK_SIZE, seed=32),
    "max_abs": lambda law: mc_max_abs_walk(law, 400, 10.0, CHUNK_SIZE,
                                           seed=33),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_walk_memory_stays_tile_sized(gauss_law, name, monkeypatch):
    # a chunk walks in 0.5 MiB tiles, not in whole blocks of up to 2^21
    # floats (16 MiB) with their kill masks; an empty scratch pool counts
    # the scratch arrays' allocation too
    monkeypatch.setattr(walk, "_SPARE", [])
    tracemalloc.start()
    try:
        _GUARDED[name](gauss_law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_scratch_pool_under_thread_contention(gauss_law, monkeypatch):
    # each running walk must hold its own scratch set: a set shared by two
    # walks would mix their positions and move the estimate
    monkeypatch.setattr(walk, "_SPARE", [])
    stats = [Statistic.survival(), Statistic.killed_position()]
    args = (gauss_law, 0.5, 60, stats, 12 * CHUNK_SIZE, 5)
    serial = mc_estimates(*args, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        crowded = mc_estimates(*args, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert crowded == serial
    sets = walk._SPARE
    assert 1 <= len(sets) <= 8
    assert len({id(a) for s in sets for a in s}) == 5 * len(sets)


def test_bad_thread_setting_rejected(gauss_law, monkeypatch):
    monkeypatch.setenv("CONDWALK_THREADS", "abc")
    with pytest.raises(DomainError, match="CONDWALK_THREADS"):
        mc_estimate(gauss_law, 0.0, 5, Statistic.survival(), 1000, seed=1)


def test_tie_at_zero_survives():
    law = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
    # path from x=1 taking -1 lands exactly on 0 and must survive
    est = mc_estimate(law, 1.0, 1, Statistic.survival(), 4096, seed=5)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_survival_small_n_sparre_andersen(gauss_law):
    est = mc_estimate(gauss_law, 0.0, 3, Statistic.survival(), 10 ** 6, seed=42)
    assert within_stderr(est, 5.0 / 16.0)
    est = mc_estimate(gauss_law, 0.0, 10, Statistic.survival(), 10 ** 6, seed=43)
    assert within_stderr(est, sparre_andersen_survival(10))


def test_exit_at_two(gauss_law):
    est = mc_estimate(gauss_law, 0.0, 2, Statistic.exit_at_n(), 10 ** 6, seed=44)
    assert within_stderr(est, 0.125)


def test_unreachable_interval_is_zero(gauss_law):
    est = mc_estimate(gauss_law, 0.0, 5, Statistic.interval(1e9, 1.0),
                      10 ** 5, seed=4)
    assert est.mean == 0.0


def test_determinism_across_thread_counts(gauss_law):
    kw = dict(law=gauss_law, x=0.0, n=10, stat=Statistic.survival(),
              samples=3 * 10 ** 5, seed=99)
    assert mc_estimate(**kw, threads=1) == mc_estimate(**kw, threads=4)


def test_shared_paths_across_statistics(gauss_law):
    surv, killed = mc_estimates(
        gauss_law, 0.0, 8, [Statistic.survival(), Statistic.killed_position()],
        10 ** 5, seed=17)
    solo = mc_estimate(gauss_law, 0.0, 8, Statistic.survival(), 10 ** 5, seed=17)
    assert surv == solo
    assert killed.mean > 0.0


def test_survival_monotone_in_n_and_x(gauss_law):
    by_n = [mc_estimate(gauss_law, 0.0, n, Statistic.survival(), 2 * 10 ** 5,
                        seed=50 + n) for n in (5, 10, 20)]
    for a, b in zip(by_n, by_n[1:]):
        assert combined_z(b, a) <= 3.0
    by_x = [mc_estimate(gauss_law, x, 10, Statistic.survival(), 2 * 10 ** 5,
                        seed=60 + int(2 * x)) for x in (0.0, 1.0, 2.0)]
    for a, b in zip(by_x, by_x[1:]):
        assert combined_z(a, b) <= 3.0


def test_distribution_free_survival_at_zero():
    laws = [IncrementLaw.gaussian(0, 1), IncrementLaw.laplace(0, 1),
            IncrementLaw.uniform(-1, 1)]
    for n in (5, 10):
        ests = [mc_estimate(law, 0.0, n, Statistic.survival(), 4 * 10 ** 5,
                            seed=70 + n + i) for i, law in enumerate(laws)]
        exact = sparre_andersen_survival(n)
        for e in ests:
            assert within_stderr(e, exact)
        for a in ests:
            for b in ests:
                assert abs(combined_z(a, b)) <= 4.0


def test_exit_at_consistency_with_survival_differencing(gauss_law):
    n = 6
    exit_est = mc_estimate(gauss_law, 0.0, n, Statistic.exit_at_n(),
                           4 * 10 ** 5, seed=81)
    s_prev = mc_estimate(gauss_law, 0.0, n - 1, Statistic.survival(),
                         4 * 10 ** 5, seed=82)
    s_now = mc_estimate(gauss_law, 0.0, n, Statistic.survival(),
                        4 * 10 ** 5, seed=83)
    diff = s_prev.mean - s_now.mean
    se = math.sqrt(exit_est.stderr ** 2 + s_prev.stderr ** 2 + s_now.stderr ** 2)
    assert abs(exit_est.mean - diff) <= 4.0 * se


def test_dual_symmetry_for_symmetric_law(gauss_law):
    a = mc_estimate(gauss_law, 0.5, 8, Statistic.survival(), 3 * 10 ** 5, seed=91)
    b = mc_estimate(gauss_law, 0.5, 8, Statistic.survival(), 3 * 10 ** 5,
                    seed=92, dual=True)
    assert abs(combined_z(a, b)) <= 4.0


def test_dual_walk_is_the_mirror_law_walk():
    # the walk of -X for X ~ N(-0.5, 1) is the walk of N(0.5, 1)
    a = mc_estimate(IncrementLaw.gaussian(-0.5, 1.0), 1.0, 5,
                    Statistic.survival(), 2 * 10 ** 5, seed=93, dual=True)
    b = mc_estimate(IncrementLaw.gaussian(0.5, 1.0), 1.0, 5,
                    Statistic.survival(), 2 * 10 ** 5, seed=94)
    assert abs(combined_z(a, b)) <= 4.0
    assert a.mean > 0.8


def test_dual_is_an_argument_of_the_walk():
    # a statistic carried its own dual flag, and mc_tilted_survival walked
    # -X under the weight of X: 0.3119 for a dual survival of 0.8581
    # (gaussian:-0.5,1 from x = 1, n = 3)
    assert [f.name for f in dataclasses.fields(Statistic)] == [
        "kind", "f", "y", "delta", "t"]
    with pytest.raises(TypeError):
        Statistic.survival(dual=True)
    for fn in (mc_tilted_survival, mc_unconditioned, mc_scaled_cdf_curve):
        assert "dual" not in inspect.signature(fn).parameters
    for fn in (mc_estimate, mc_estimates):
        assert inspect.signature(fn).parameters["dual"].default is False


def test_target_statistic_matches_interval(gauss_law):
    f = TargetFunction.indicator(0.0, 1.0)
    a = mc_estimate(gauss_law, 0.0, 6, Statistic.target(f, y_shift=2.0),
                    10 ** 5, seed=33)
    b = mc_estimate(gauss_law, 0.0, 6, Statistic.interval(2.0, 1.0), 10 ** 5,
                    seed=33)
    # same paths, same event up to the half-open right endpoint (null set)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)


# -- scaled cdf curve -----------------------------------------------------------


def test_scaled_cdf_reduces_to_survival(gauss_law):
    curve = mc_scaled_cdf_curve(gauss_law, 0.0, 10, [100.0], 10 ** 5, seed=5)
    surv = mc_estimate(gauss_law, 0.0, 10, Statistic.survival(), 10 ** 5, seed=5)
    assert curve[0] == surv


def test_scaled_cdf_at_zero_is_null_event(gauss_law):
    curve = mc_scaled_cdf_curve(gauss_law, 0.0, 10, [0.0], 10 ** 5, seed=6)
    assert curve[0].mean == 0.0


def test_scaled_cdf_conditional_shape(gauss_law):
    # the conditional law at n=400 still sits ~4.5% above the limit shape
    # at t=1; the band accommodates that finite-n offset plus noise
    curve = mc_scaled_cdf_curve(gauss_law, 0.0, 400, [1.0, 50.0],
                                2 * 10 ** 6, seed=9, threads=2)
    ratio = curve[0].mean / curve[1].mean
    assert 0.95 * (1 - math.exp(-0.5)) <= ratio <= 1.05 * (1 - math.exp(-0.5))


def test_scaled_cdf_requires_sorted_grid(gauss_law):
    with pytest.raises(ValueError):
        mc_scaled_cdf_curve(gauss_law, 0.0, 5, [1.0, 0.5], 10 ** 4, seed=1)


# -- tilted estimation -----------------------------------------------------------


def test_tilted_agrees_with_direct_at_small_n():
    law = IncrementLaw.gaussian(-0.5, 1.0)
    tilt = cramer_tilt(law)
    for n in (3, 5, 10):
        direct = mc_estimate(law, 0.0, n, Statistic.survival(), 10 ** 6,
                             seed=100 + n)
        tilted = mc_tilted_survival(law, tilt, 0.0, n, Statistic.survival(),
                                    10 ** 6, seed=200 + n)
        assert abs(combined_z(direct, tilted)) <= 4.0


def test_identity_tilt_reproduces_direct(gauss_law):
    tilt = cramer_tilt(gauss_law)
    a = mc_tilted_survival(gauss_law, tilt, 1.0, 10, Statistic.survival(),
                           10 ** 5, seed=9)
    b = mc_estimate(gauss_law, 1.0, 10, Statistic.survival(), 10 ** 5, seed=9)
    assert a == b


def test_mismatched_tilt_rejected(gauss_law):
    other = cramer_tilt(IncrementLaw.gaussian(-0.5, 1.0))
    with pytest.raises(MismatchedTilt):
        mc_tilted_survival(gauss_law, other, 0.0, 5, Statistic.survival(),
                           10 ** 4, seed=1)


def test_degenerate_law_cannot_be_tilted():
    from condwalk import NoTiltExists
    with pytest.raises(NoTiltExists):
        cramer_tilt(IncrementLaw.finite([-1.0], [1.0]))


# -- unconditioned ---------------------------------------------------------------


def test_unconditioned_interval_matches_normal_mass(gauss_law):
    from condwalk.special import norm_cdf
    n = 100
    est = mc_unconditioned(gauss_law, n, Statistic.interval(0.0, 5.0),
                           4 * 10 ** 5, seed=55)
    exact = float(norm_cdf(0.5) - norm_cdf(0.0))
    assert within_stderr(est, exact)
    with pytest.raises(ValueError, match="killed walk"):
        mc_unconditioned(gauss_law, 10, Statistic.exit_at_n(), 1000, seed=1)


# a drifted gaussian, and the mean-zero Cramér tilt of another
_FREE_GAUSSIANS = {
    "drifted": IncrementLaw.gaussian(0.3, 2.0),
    "tilted": cramer_tilt(IncrementLaw.gaussian(-0.5, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_FREE_GAUSSIANS))
def test_free_gaussian_walk_draws_the_normal_law_of_s_n(name):
    from condwalk.special import norm_cdf
    law, n = _FREE_GAUSSIANS[name], 100
    mean, sd = n * law.mean, math.sqrt(n) * law.sigma
    for y, delta in ((mean - 0.5 * sd, 0.3 * sd), (mean + sd, 2.0 * sd)):
        est = mc_unconditioned(law, n, Statistic.interval(y, delta),
                               2 * 10 ** 5, seed=56)
        exact = float(norm_cdf((y + delta - mean) / sd)
                      - norm_cdf((y - mean) / sd))
        assert within_stderr(est, exact), (y, delta)
    est = mc_unconditioned(law, n, Statistic.killed_position(), 2 * 10 ** 5,
                           seed=57)
    assert within_stderr(est, mean)
    # the walk of -X ends at x - S_n
    mirrored = walk._mc_many(law, 0.0, n, [Statistic.killed_position()],
                             2 * 10 ** 5, 57, kill=False, dual=True)[0]
    assert mirrored.mean == -est.mean and mirrored.stderr == est.stderr


def test_free_tilted_gaussian_scaled_cdf_is_phi():
    from condwalk.special import norm_cdf
    law = _FREE_GAUSSIANS["tilted"]
    for t in (-1.0, 0.5):
        est = mc_unconditioned(law, 100, Statistic.scaled_cdf(t), 2 * 10 ** 5,
                               seed=58)
        assert within_stderr(est, float(norm_cdf(t))), t


def test_free_gaussian_walk_bits_ignore_threads():
    law = _FREE_GAUSSIANS["drifted"]
    args = (law, 100, Statistic.interval(25.0, 10.0), 3 * CHUNK_SIZE + 5, 59)
    assert mc_unconditioned(*args, threads=2) == \
        mc_unconditioned(*args, threads=1)


def test_free_gaussian_walk_takes_no_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a step was walked")

    monkeypatch.setattr(walk, "_advance", refuse)
    for law in (*_FREE_GAUSSIANS.values(), IncrementLaw.gaussian(0.0, 1.0)):
        mc_unconditioned(law, 400, Statistic.interval(0.0, 1.0), 3000,
                         seed=60)
    with pytest.raises(AssertionError, match="step"):
        mc_unconditioned(IncrementLaw.uniform(-1.0, 1.0), 400,
                         Statistic.interval(0.0, 1.0), 3000, seed=60)


# -- invalid statistics -------------------------------------------------------

_BAD_STATISTICS = {
    "interval_width": lambda law: Statistic.interval(1.0, 0.0),
    "interval_nan_width": lambda law: Statistic.interval(1.0, math.nan),
    "interval_nan_y": lambda law: Statistic.interval(math.nan, 1.0),
    "interval_inf_y": lambda law: Statistic.interval(math.inf, 1.0),
    "interval_inf_width": lambda law: Statistic.interval(1.0, math.inf),
    "scaled_cdf_nan": lambda law: Statistic.scaled_cdf(math.nan),
    "target_nan_shift": lambda law: Statistic.target(
        TargetFunction.exponential(1.0), math.nan),
    "target_inf_shift": lambda law: Statistic.target(
        TargetFunction.indicator(0.0, 1.0), -math.inf),
    "target_nan_rate": lambda law: Statistic.target(
        TargetFunction.exponential(math.nan)),
    "unknown_kind": lambda law: mc_estimate(
        law, 0.0, 5, Statistic("median"), 1000, seed=1),
    "unkilled_exit_at_n": lambda law: mc_unconditioned(
        law, 5, Statistic.exit_at_n(), 1000, seed=1),
    "tilted_interval": lambda law: mc_tilted_survival(
        law, cramer_tilt(law), 0.0, 5, Statistic.interval(0.0, 1.0), 1000,
        seed=1),
    "unsorted_t_grid": lambda law: mc_scaled_cdf_curve(
        law, 0.0, 5, [1.0, 0.5], 1000, seed=1),
}


@pytest.mark.parametrize("site", sorted(_BAD_STATISTICS))
def test_invalid_statistic_raises_condwalk_error(gauss_law, site):
    with pytest.raises(CondwalkError) as info:
        _BAD_STATISTICS[site](gauss_law)
    assert isinstance(info.value, ValueError)


# -- stream keying ------------------------------------------------------------


def test_chunk_generator_repeats_its_draws():
    for seed, chunk in ((0, 0), (11, 1), (2 ** 63 + 5, 1000)):
        first = chunk_generator(seed, chunk).standard_normal(64)
        again = chunk_generator(seed, chunk).standard_normal(64)
        assert np.array_equal(first, again)


def test_chunk_streams_start_apart():
    firsts = {chunk_generator(seed, chunk).bit_generator.random_raw()
              for seed in range(64) for chunk in range(64)}
    assert len(firsts) == 64 * 64


@pytest.mark.parametrize("seed, masked", [
    (-1, 2 ** 64 - 1), (-12345, 2 ** 64 - 12345), (2 ** 64, 0),
    (2 ** 64 + 7, 7), (3 * 2 ** 64 + 2 ** 63, 2 ** 63)])
def test_out_of_range_seeds_are_masked(seed, masked):
    assert stream_key(seed, 3) == stream_key(masked, 3)
    assert np.array_equal(chunk_generator(seed, 3).random(16),
                          chunk_generator(masked, 3).random(16))


# -- stream pin ----------------------------------------------------------------

PIN_SAMPLES = 2 ** 16 + 777  # one whole chunk and a partial last chunk


def _pin_case(name):
    """The estimates of one pinned call, as (mean, stderr[, censor_rate])."""
    gauss = IncrementLaw.gaussian(0.0, 1.0)
    n = PIN_SAMPLES
    if name == "gauss_n400":
        return mc_estimates(gauss, 0.0, 400, [
            Statistic.survival(), Statistic.exit_at_n(),
            Statistic.killed_position()], n, seed=11, threads=2)
    if name == "pm1_n60":
        pm1 = IncrementLaw.finite([-1.0, 1.0], [0.5, 0.5])
        return mc_estimates(pm1, 0.0, 60, [
            Statistic.survival(), Statistic.exit_at_n(),
            Statistic.killed_position(), Statistic.interval(2.0, 2.0)],
            n, seed=12)
    if name == "uniform_dual_killed":
        unif = IncrementLaw.uniform(-1.0, 1.0)
        return [mc_estimate(unif, 0.5, 50, Statistic.killed_position(), n,
                            seed=13, dual=True)]
    if name == "unconditioned":
        return [mc_unconditioned(gauss, 30, Statistic.interval(0.0, 3.0), n,
                                 seed=14, threads=2)]
    if name == "unconditioned_uniform":
        unif = IncrementLaw.uniform(-1.0, 1.0)
        return [mc_unconditioned(unif, 30, Statistic.interval(0.0, 3.0), n,
                                 seed=18, threads=2)]
    if name == "tilted":
        drifted = IncrementLaw.laplace(-0.3, 1.0)
        return [mc_tilted_survival(drifted, cramer_tilt(drifted), 0.0, 40,
                                   Statistic.survival(), n, seed=15)]
    if name == "max_abs":
        return [mc_max_abs_walk(gauss, 50, 10.0, n, seed=16, threads=2)]
    if name in ("ladder", "ladder_dual"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CensoringExcess)
            est = estimate_V_ladder(gauss, 1.0, cap=1000, samples=n, seed=17,
                                    dual=name == "ladder_dual",
                                    threads=2 if name == "ladder" else 1)
        return [est]
    if name == "residual":
        table = HarmonicTable((0.0, 1.0, 2.0), tuple(
            McEstimate(v, 0.0, 1, 0) for v in (0.6, 1.5, 2.5)),
            extrapolation_offset=0.5)
        return [harmonicity_residual(gauss, table, 0.5, n, seed=19)]
    raise KeyError(name)


def _pin_values(estimates):
    out = []
    for e in estimates:
        out += [e.mean, e.stderr]
        if isinstance(e, LadderEstimate):
            out.append(e.censor_rate)
    return [v.hex() for v in out]


# float.hex of every mean and stderr (and the ladder's censor rate) at the
# current block schedule, sampler calls, summation order and SFC64 streams;
# a change here is a change of the random stream
_PINNED = {
    "gauss_n400": [
        "0x1.d56f3182ba38dp-6", "0x1.53a7d38091094p-11",
        "0x1.fa00355e05a0fp-16", "0x1.65cb3da30ba41p-16",
        "0x1.5f4015ce6fc01p-1", "0x1.231c3741b3178p-6",
    ],
    "pm1_n60": [
        "0x1.a0603bea2651bp-4", "0x1.33a13c228dd27p-10", "0x0.0p+0",
        "0x0.0p+0", "0x1.c1e28772e4492p-1", "0x1.8744b70745f02p-7",
        "0x1.7b8028068438bp-6", "0x1.3240ebe4475f9p-11",
    ],
    "uniform_dual_killed": [
        "0x1.8222e3a04a42ep-1", "0x1.0637b7d788137p-7",
    ],
    "unconditioned": [
        "0x1.af3b257b3cf40p-3", "0x1.9f0af5999bc18p-10",
    ],
    "unconditioned_uniform": [
        "0x1.4d60272924215p-2", "0x1.dd03c3913b059p-10",
    ],
    "tilted": [
        "0x1.31dd126304f94p-7", "0x1.4ca8dda6d6932p-13",
    ],
    "max_abs": [
        "0x1.1718e56fa032cp-2", "0x1.c548fe1de16cep-10",
    ],
    "ladder": [
        "0x1.85d697efe2188p+0", "0x1.28d2ecbab6c30p-9", "0x1.525d03afcf639p-5",
    ],
    "ladder_dual": [
        "0x1.86f6173b6010cp+0", "0x1.27af45470e521p-9", "0x1.40b2a1d2d7114p-5",
    ],
    "residual": [
        "0x1.9200150a4df80p-7", "0x1.ccf0b9db86d9fp-9",
    ],
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_stream_pinned(name):
    # re-pinning the stream bumps its version, which retires every
    # cached row estimate
    assert rngstream.STREAM_VERSION == 4
    got = _pin_values(_pin_case(name))
    if name == "tilted":
        # the tilt's quadratures may move in the last digits
        assert [float.fromhex(v) for v in got] == pytest.approx(
            [float.fromhex(v) for v in _PINNED[name]], rel=1e-9)
    else:
        assert got == _PINNED[name]
