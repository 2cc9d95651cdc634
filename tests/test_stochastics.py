import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aibmon import (
    ChartKind,
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    SimulationConfig,
    make_limits,
    sample_subgroup,
    shifted_means,
    standardized_shift,
    trace,
)
from aibmon.stochastics import (
    SubgroupStream,
    normals_from_words,
    pairs_from_normals,
    substream_keys,
    words_per_subgroup,
)


def standard(rho, n=1):
    return ProcessModel.standard(rho, n)


# ---------------------------------------------------------------- validation


def test_model_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ProcessModel(0, 0, sigma_y=0.0, sigma_x=1.0, rho=0.5)
    with pytest.raises(ValueError):
        ProcessModel(0, 0, sigma_y=1.0, sigma_x=-2.0, rho=0.5)
    with pytest.raises(ValueError):
        ProcessModel(0, 0, 1.0, 1.0, rho=1.0)
    with pytest.raises(ValueError):
        ProcessModel(0, 0, 1.0, 1.0, rho=-1.0)
    with pytest.raises(ValueError):
        ProcessModel(0, 0, 1.0, 1.0, rho=0.5, n=0)
    with pytest.raises(ValueError):
        ProcessModel(0, 0, 1.0, 1.0, rho=0.5, n=True)
    with pytest.raises(ValueError):
        ProcessModel(math.nan, 0, 1.0, 1.0, rho=0.5)
    with pytest.raises(ValueError):
        ProcessModel(0, -math.inf, 1.0, 1.0, rho=0.5)
    with pytest.raises(ValueError):
        ProcessModel(0, 0, math.inf, 1.0, rho=0.5)


def test_beta_is_rho_sigma_ratio():
    m = ProcessModel(0, 0, sigma_y=2.0, sigma_x=0.5, rho=0.6)
    assert m.beta() == pytest.approx(2.4)


def test_scenario_rejects_negative_changepoint():
    for changepoint in (-1, True):
        with pytest.raises(ValueError):
            ShiftScenario(changepoint=changepoint)


@pytest.mark.parametrize(
    "kwargs", [{"delta_y": math.nan}, {"delta_x": math.inf}, {"delta_y": -math.inf}]
)
def test_scenario_rejects_non_finite_shift(kwargs):
    with pytest.raises(ValueError):
        ShiftScenario(**kwargs)


def study(master_seed=5):
    model = standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    return SimulationConfig(model, ShiftScenario(), spec, reps=1, master_seed=master_seed)


def test_stream_key_rejects_out_of_range():
    # A replication's substream is addressed by two integers in [0, 2**64),
    # wherever they are given: a seed to sample_subgroup or a study's config,
    # a replication to sample_subgroup or trace.
    for seed, replication, name, value in [
        (-1, 0, "master_seed", -1), (0, 2**64, "replication_index", 2**64),
        (True, 0, "master_seed", True), (0, False, "replication_index", False),
    ]:
        message = re.escape(f"{name} must be an integer in [0, {2**64}), got {value!r}")
        with pytest.raises(ValueError, match=message):
            sample_subgroup(standard(0.5), 0, 0, seed, replication, 0)
        with pytest.raises(ValueError, match=message):
            trace(study(seed), replication, 1)


@pytest.mark.parametrize("value", [True, np.True_, 2.0, np.float64(2.0)], ids=repr)
def test_counts_refuse_bools_and_floats(value):
    stream = SubgroupStream(1, 1, [0])
    makers = [
        ("subgroup size n", lambda v: ProcessModel.standard(0.5, n=v)),
        ("changepoint", lambda v: ShiftScenario(changepoint=v)),
        ("master_seed", lambda v: sample_subgroup(standard(0.5), 0, 0, v, 0, 0)),
        ("master_seed", lambda v: study(v)),
        ("replication_index", lambda v: sample_subgroup(standard(0.5), 0, 0, 0, v, 0)),
        ("replication_index", lambda v: trace(study(), v, 1)),
        ("start_index", lambda v: sample_subgroup(standard(0.5), 0, 0, 1, 0, v)),
        ("start_index", lambda v: stream.take_words(1, v)),
        ("count", lambda v: stream.take_words(v)),
    ]
    for name, make in makers:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make(value)


def test_numpy_integer_counts_are_stored_as_python_ints():
    model = ProcessModel.standard(0.5, n=np.int64(2))
    scenario = ShiftScenario(changepoint=np.int32(3))
    config = study(np.uint64(2**64 - 1))
    stored = (model.n, scenario.changepoint, config.master_seed)
    assert all(type(value) is int for value in stored)
    assert model == standard(0.5, n=2)
    assert scenario == ShiftScenario(changepoint=3)
    assert config == study(2**64 - 1)
    y, x = sample_subgroup(model, 0, 0, np.uint64(2**64 - 1), np.int64(5), np.uint8(3))
    y_ref, x_ref = sample_subgroup(standard(0.5, 2), 0, 0, 2**64 - 1, 5, 3)
    assert np.array_equal(y, y_ref) and np.array_equal(x, x_ref)
    assert trace(config, np.int64(5), np.int64(3)) == trace(study(2**64 - 1), 5, 3)


# ------------------------------------------------------------ substream keys


SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)
INDICES = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(master_seed=SEEDS, indices=st.lists(INDICES, min_size=1, max_size=8))
def test_substream_keys_equal_numpy_seed_sequence(master_seed, indices):
    keys = substream_keys(master_seed, indices)
    assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
    for index, key in zip(indices, keys):
        expected = np.random.SeedSequence(
            master_seed, spawn_key=(index,)
        ).generate_state(2, np.uint64)
        assert np.array_equal(key, expected)


def test_substream_keys_reject_out_of_range_seed():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            substream_keys(seed, [0])


@pytest.mark.parametrize(
    "indices",
    [[2.7], [True], [-1], [0, 2**64], np.array([2.0]), np.array([True]), np.array([3, -1])],
    ids=repr,
)
def test_substream_keys_refuse_floats_bools_and_negatives(indices):
    # 2.7 would truncate to replication 2's key and True alias replication 1.
    with pytest.raises(ValueError, match="replication"):
        substream_keys(3, indices)
    with pytest.raises(ValueError, match="replication"):
        SubgroupStream(1, 3, indices)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_rekeyed_words_equal_numpy_philox_streams(n):
    # One re-keyed generator reproduces each replication's own Philox
    # stream, for any rows, in any order, from any subgroup offset, and a
    # one-row reader of a replication reads that replication's row.
    wps = words_per_subgroup(n)
    indices = [0, 5, 2**32 + 3, 2**64 - 1]
    reference = [
        np.random.Philox(np.random.SeedSequence(77, spawn_key=(i,)))
        .random_raw(30 * wps)
        .reshape(30, wps)
        for i in indices
    ]
    words = SubgroupStream(n, 77, indices)
    for rows, start, count in (
        ([0, 1, 2, 3], 0, 7), ([3, 1], 7, 16), ([2], 23, 7), (None, 5, 9)
    ):
        block = words.take_words(count, start, rows)
        rows = range(len(indices)) if rows is None else rows
        assert block.shape == (len(rows), count, wps)
        for row, got in zip(rows, block):
            assert np.array_equal(got, reference[row][start : start + count])
            one_row = SubgroupStream(n, 77, [indices[row]]).take_words(count, start)
            assert np.array_equal(one_row[0], got)


@pytest.mark.parametrize("n", [1, 3])
def test_words_past_a_64_bit_counter_equal_numpy_philox_advance(n):
    # Subgroup t starts at counter t * wps // 4, which from 2**64 on spans
    # more than one of Philox's four 64-bit counter words.
    wps = words_per_subgroup(n)
    keys = substream_keys(5, [0, 9])
    words = SubgroupStream(n, 5, [0, 9])
    for t in (2**64, 2**64 + 5, 2**130 + 3, 2**258 // wps - 1):
        block = words.take_words(3, t, [1, 0])
        for row, got in zip([1, 0], block):
            stream = np.random.Philox(key=keys[row]).advance(t * wps // 4)
            assert np.array_equal(got.ravel(), stream.random_raw(3 * wps))


def test_subgroup_past_a_64_bit_counter_and_beyond_the_counter():
    m = standard(0.5)
    y, x = sample_subgroup(m, 0.0, 0.0, 1, 2, 2**64)
    raw = np.random.Philox(key=substream_keys(1, [2])[0]).advance(2**64).random_raw(4)
    y_ref, x_ref = pairs_from_normals(m, 0.0, 0.0, *normals_from_words(1, raw))
    assert np.array_equal(y, y_ref) and np.array_equal(x, x_ref)
    with pytest.raises(ValueError, match="256-bit counter"):
        sample_subgroup(m, 0.0, 0.0, 1, 2, 2**256)


# ------------------------------------------------------------- shifted_means


def test_no_shift_keeps_in_control_means():
    assert shifted_means(standard(0.5), ShiftScenario()) == (0.0, 0.0)


def test_masking_coupled_shift_divides_by_beta():
    # beta = 0.5, so the X mean must move twice the Y move: (2, 4)
    m = standard(0.5)
    sc = ShiftScenario(delta_y=2.0, mode=ShiftMode.MASKING)
    assert shifted_means(m, sc) == (2.0, 4.0)


def test_scenario_mode_takes_its_string_value_and_refuses_others():
    # The string selects the member, so "masking" couples the X shift and the
    # statistic sees no shift; an unknown mode is refused, not run unmasked.
    sc = ShiftScenario(delta_y=2.0, mode="masking")
    assert sc.mode is ShiftMode.MASKING
    assert shifted_means(standard(0.5), sc) == (2.0, 4.0)
    assert standardized_shift(standard(0.5), sc) == 0.0
    with pytest.raises(ValueError, match="ShiftMode"):
        ShiftScenario(mode="bogus")


@pytest.mark.parametrize("mode", [ShiftMode.MASKING, "masking"], ids=["member", "string"])
def test_masking_refuses_an_x_shift(mode):
    # The X shift is derived from delta_y; a given one would otherwise be ignored.
    with pytest.raises(ValueError, match="X shift is derived from delta_y, got 5.0"):
        ShiftScenario(delta_y=1.0, delta_x=5.0, mode=mode)
    assert ShiftScenario(delta_y=1.0, delta_x=-0.0, mode=mode).mode is ShiftMode.MASKING


def test_masking_zero_shift_is_zero():
    sc = ShiftScenario(delta_y=0.0, mode=ShiftMode.MASKING)
    assert shifted_means(standard(0.5), sc) == (0.0, 0.0)


def test_masking_requires_nonzero_correlation():
    sc = ShiftScenario(delta_y=1.0, mode=ShiftMode.MASKING)
    with pytest.raises(ValueError, match="undefined at beta = 0"):
        shifted_means(standard(0.0), sc)
    # rho != 0, but beta underflows to 0: refused, not a ZeroDivisionError.
    tiny = ProcessModel(mu_y0=0.0, mu_x0=0.0, sigma_y=0.1, sigma_x=10.0, rho=5e-324)
    with pytest.raises(ValueError, match="undefined at beta = 0"):
        shifted_means(tiny, sc)


def test_independent_shift_in_raw_units():
    m = ProcessModel(mu_y0=10.0, mu_x0=-3.0, sigma_y=2.0, sigma_x=4.0, rho=0.3, n=4)
    mu_y1, mu_x1 = shifted_means(m, ShiftScenario(delta_y=1.5, delta_x=-0.5))
    assert mu_y1 == pytest.approx(10.0 + 1.5 * 2.0 / 2.0)
    assert mu_x1 == pytest.approx(-3.0 - 0.5 * 4.0 / 2.0)


@settings(max_examples=200, deadline=None)
@given(
    rho=st.floats(-0.99, 0.99).filter(lambda r: abs(r) > 1e-3),
    sigma_y=st.floats(0.1, 10.0),
    sigma_x=st.floats(0.1, 10.0),
    delta_y=st.floats(-5.0, 5.0),
    n=st.integers(1, 10),
)
def test_masking_shift_cancels_in_the_statistic(rho, sigma_y, sigma_x, delta_y, n):
    # The coupled shift satisfies raw_y_shift - beta * raw_x_shift = 0.
    m = ProcessModel(0.0, 0.0, sigma_y, sigma_x, rho, n)
    mu_y1, mu_x1 = shifted_means(m, ShiftScenario(delta_y=delta_y, mode=ShiftMode.MASKING))
    residual = mu_y1 - m.beta() * mu_x1
    assert abs(residual) <= 1e-9 * max(1.0, abs(mu_y1), abs(m.beta() * mu_x1))


# ------------------------------------------------------------------ sampling


def test_replay_is_bit_identical():
    m = standard(0.6, n=5)
    ya, xa = sample_subgroup(m, 1.0, -1.0, 123, 45, 9)
    yb, xb = sample_subgroup(m, 1.0, -1.0, 123, 45, 9)
    assert np.array_equal(ya, yb) and np.array_equal(xa, xb)


def test_distinct_keys_and_indices_differ():
    m = standard(0.6)
    base, _ = sample_subgroup(m, 0, 0, 1, 0, 0)
    assert not np.array_equal(base, sample_subgroup(m, 0, 0, 1, 1, 0)[0])
    assert not np.array_equal(base, sample_subgroup(m, 0, 0, 2, 0, 0)[0])
    assert not np.array_equal(base, sample_subgroup(m, 0, 0, 1, 0, 1)[0])


@pytest.mark.parametrize("index", [-1, 2.5, True])
def test_subgroup_index_must_be_a_nonnegative_int(index):
    # 2.5 and True would otherwise alias subgroups 2 and 1.
    with pytest.raises(ValueError, match="start_index must be an integer"):
        sample_subgroup(standard(0.6), 0, 0, 1, 0, index)


def test_x_stream_does_not_depend_on_rho():
    # Conditional construction draws X first: its words are rho-independent.
    _, x0 = sample_subgroup(standard(0.0, 4), 0, 0, 7, 3, 2)
    _, x9 = sample_subgroup(standard(0.9, 4), 0, 0, 7, 3, 2)
    assert np.array_equal(x0, x9)


def test_subgroup_offsets_match_sequential_stream():
    # advance() into the middle of a stream lands on the same slots.
    m = standard(0.3, n=3)
    stream = SubgroupStream(m.n, 99, [7])
    zx, ze = normals_from_words(m.n, stream.take_words(40)[0])
    for t in (0, 1, 17, 39):
        zxt, zet = normals_from_words(m.n, stream.take_words(1, t)[0])
        assert np.array_equal(zxt[0], zx[t])
        assert np.array_equal(zet[0], ze[t])


def test_words_per_subgroup_pads_to_counter_block():
    assert words_per_subgroup(1) == 4
    assert words_per_subgroup(2) == 4
    assert words_per_subgroup(3) == 8
    assert words_per_subgroup(4) == 8


def test_zero_correlation_factorizes():
    m = standard(0.0)
    zx, ze = normals_from_words(1, SubgroupStream(1, 11, [0]).take_words(200_000)[0])
    x = zx.ravel()
    y = ze.ravel()
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 4.0 / math.sqrt(x.size)


def test_correlation_recovery_at_075():
    # Empirical correlation of 1e6 pairs within +/- 0.002 of rho.
    m = standard(0.75)
    zx, ze = normals_from_words(1, SubgroupStream(1, 5, [0]).take_words(1_000_000)[0])
    x = zx.ravel()
    y = m.rho * zx.ravel() + math.sqrt(1 - m.rho**2) * ze.ravel()
    r = np.corrcoef(x, y)[0, 1]
    assert r == pytest.approx(0.75, abs=0.002)


def test_marginal_moments_recovered():
    # Mean and SD of 1e6 draws within 4 standard errors.
    m = ProcessModel(mu_y0=2.0, mu_x0=-1.0, sigma_y=1.5, sigma_x=0.5, rho=0.4)
    zx, ze = normals_from_words(1, SubgroupStream(1, 21, [0]).take_words(1_000_000)[0])
    from aibmon.stochastics import pairs_from_normals

    y, x = pairs_from_normals(m, m.mu_y0, m.mu_x0, zx.ravel(), ze.ravel())
    N = y.size
    assert y.mean() == pytest.approx(2.0, abs=4 * 1.5 / math.sqrt(N))
    assert x.mean() == pytest.approx(-1.0, abs=4 * 0.5 / math.sqrt(N))
    assert y.std(ddof=1) == pytest.approx(1.5, abs=4 * 1.5 / math.sqrt(2 * N))
    assert x.std(ddof=1) == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(2 * N))


def test_conditional_mean_slope_equals_beta():
    # Regressing Y on X in a large in-control sample recovers beta.
    m = ProcessModel(mu_y0=1.0, mu_x0=3.0, sigma_y=2.0, sigma_x=0.8, rho=0.65)
    zx, ze = normals_from_words(1, SubgroupStream(1, 31, [0]).take_words(500_000)[0])
    from aibmon.stochastics import pairs_from_normals

    y, x = pairs_from_normals(m, m.mu_y0, m.mu_x0, zx.ravel(), ze.ravel())
    slope = np.cov(y, x)[0, 1] / np.var(x, ddof=1)
    assert slope == pytest.approx(m.beta(), rel=0.01)
