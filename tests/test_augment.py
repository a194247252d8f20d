import numpy as np
import pytest

from nst.augment import (
    AugmentError,
    AugmentPolicy,
    apply_policy,
    freq_mask,
    identity_policy,
    time_mask,
    time_warp,
    warp_frames,
)
from nst.seeding import derive_rng


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPolicy:
    def test_exactly_one_time_mode(self):
        with pytest.raises(AugmentError):
            AugmentPolicy(time_mask_param=10, time_mask_ratio=0.05)
        with pytest.raises(AugmentError):
            AugmentPolicy(time_mask_param=None, time_mask_ratio=None)

    def test_ratio_range(self):
        with pytest.raises(AugmentError):
            AugmentPolicy(time_mask_param=None, time_mask_ratio=1.5)

    def test_max_time_mask(self):
        fixed = AugmentPolicy(time_mask_param=40)
        adaptive = AugmentPolicy(time_mask_param=None, time_mask_ratio=0.05)
        assert fixed.max_time_mask(100) == 40
        assert fixed.max_time_mask(25) == 25
        assert adaptive.max_time_mask(100) == 5
        assert adaptive.max_time_mask(119) == 5

    def test_dict_roundtrip(self):
        for policy in (
            AugmentPolicy(27, 2, 40, None, 2, 40, 0.0),
            AugmentPolicy(27, 2, None, 0.05, 10, 0, -1.0),
        ):
            assert AugmentPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_both_modes(self):
        with pytest.raises(AugmentError):
            AugmentPolicy.from_dict({"time_mask_param": 3, "time_mask_ratio": 0.1})

    def test_from_dict_takes_defaults_and_null_time_mask(self):
        assert AugmentPolicy.from_dict({}) == AugmentPolicy()
        adaptive = AugmentPolicy.from_dict({"time_mask_param": None, "time_mask_ratio": 1})
        assert adaptive.time_mask_ratio == 1.0

    @pytest.mark.parametrize(
        "record",
        [
            {"mode": "x"},
            {"time_mask_ratoi": 0.1},
            {"freq_mask_param": [1]},
            {"num_time_masks": "2"},
            {"time_warp_param": 1.5},
            {"num_freq_masks": True},
            {"masked_value": None},
            [1, 2],
        ],
    )
    def test_from_dict_rejects_malformed_records(self, record):
        with pytest.raises(AugmentError):
            AugmentPolicy.from_dict(record)


class TestFreqMask:
    def test_zero_param_is_identity(self):
        features = rng(1).standard_normal((10, 27))
        out = freq_mask(features, 0, 2, rng(2))
        assert np.array_equal(out, features)

    def test_param_above_channels_rejected(self):
        with pytest.raises(AugmentError):
            freq_mask(np.ones((4, 3)), 4, 1, rng(0))

    def test_unmasked_entries_unchanged_and_shape_kept(self):
        features = rng(3).standard_normal((12, 9))
        out = freq_mask(features, 4, 2, rng(4))
        assert out.shape == features.shape
        changed = out != features
        # A changed column is changed for all rows; untouched columns match exactly.
        column_changed = changed.any(axis=0)
        assert np.array_equal(out[:, ~column_changed], features[:, ~column_changed])
        assert np.all(out[:, column_changed] == 0.0)

    def test_seed_determinism(self):
        features = np.ones((10, 27))
        a = freq_mask(features, 5, 2, derive_rng(99, "x"))
        b = freq_mask(features, 5, 2, derive_rng(99, "x"))
        c = freq_mask(features, 5, 2, derive_rng(100, "x"))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_masked_fraction_matches_uniform_mean(self):
        # Expected masked columns per single mask: E[f] = F/2.
        channels, param, trials = 27, 8, 3000
        features = np.ones((2, channels))
        generator = rng(12345)
        fractions = np.empty(trials)
        for t in range(trials):
            out = freq_mask(features, param, 1, generator)
            fractions[t] = (out[0] == 0.0).sum() / channels
        expected = (param / 2) / channels
        stderr = fractions.std(ddof=1) / np.sqrt(trials)
        assert abs(fractions.mean() - expected) < 3 * stderr


class TestTimeMask:
    def test_zero_ratio_is_identity(self):
        policy = AugmentPolicy(0, 0, None, 0.0, 10, 0)
        features = rng(5).standard_normal((40, 6))
        assert np.array_equal(time_mask(features, policy, rng(6)), features)

    def test_adaptive_width_bounded(self):
        policy = AugmentPolicy(0, 0, None, 0.05, 1, 0)
        features = np.ones((100, 4))
        for seed in range(300):
            out = time_mask(features, policy, rng(seed))
            masked_rows = int((out == 0.0).all(axis=1).sum())
            assert masked_rows <= 5

    def test_fixed_width_bounded(self):
        policy = AugmentPolicy(0, 0, 40, None, 1, 0)
        features = np.ones((100, 4))
        widths = set()
        for seed in range(300):
            out = time_mask(features, policy, rng(seed))
            masked_rows = int((out == 0.0).all(axis=1).sum())
            assert masked_rows <= 40
            widths.add(masked_rows)
        assert max(widths) > 30  # the cap is actually exercised

    def test_cap_clamped_to_length(self):
        policy = AugmentPolicy(0, 0, 500, None, 1, 0)
        features = np.ones((8, 2))
        out = time_mask(features, policy, rng(1))
        assert out.shape == features.shape


class TestTimeWarp:
    def test_zero_param_is_identity(self):
        features = rng(7).standard_normal((20, 5))
        assert np.array_equal(time_warp(features, 0, rng(8)), features)

    def test_short_input_is_noop(self):
        features = rng(9).standard_normal((8, 3))
        assert np.array_equal(time_warp(features, 4, rng(10)), features)

    def test_constant_rows_are_invariant(self):
        features = np.tile(np.array([[1.5, -2.0, 0.25]]), (30, 1))
        for seed in range(20):
            out = time_warp(features, 5, rng(seed))
            assert np.allclose(out, features, atol=1e-12)

    def test_hand_computed_ramp_remap(self):
        # Rows are the ramp i -> i; moving anchor 5 to 7 on 10 frames gives
        # sources j*5/7 on [0,7] and 5 + 2*(j-7) beyond, evaluated by hand.
        features = np.arange(10, dtype=np.float64)[:, None] * np.ones((1, 3))
        out = warp_frames(features, anchor=5, new_anchor=7)
        expected = [
            0.0,
            5.0 / 7.0,
            10.0 / 7.0,
            15.0 / 7.0,
            20.0 / 7.0,
            25.0 / 7.0,
            30.0 / 7.0,
            5.0,
            7.0,
            9.0,
        ]
        assert np.allclose(out, np.array(expected)[:, None] * np.ones((1, 3)), atol=1e-12)

    def test_endpoints_fixed_and_shape_kept(self):
        features = rng(11).standard_normal((50, 4))
        for seed in range(20):
            out = time_warp(features, 8, rng(seed))
            assert out.shape == features.shape
            assert np.allclose(out[0], features[0], atol=1e-12)
            assert np.allclose(out[-1], features[-1], atol=1e-12)

    def test_anchor_validation(self):
        with pytest.raises(AugmentError):
            warp_frames(np.ones((10, 2)), anchor=0, new_anchor=5)


class TestApplyPolicy:
    def test_identity_policy(self):
        features = rng(13).standard_normal((60, 16))
        out = apply_policy(features, identity_policy(), rng(14))
        assert np.array_equal(out, features)

    def test_bit_identical_across_runs(self):
        features = rng(15).standard_normal((200, 80))
        policy = AugmentPolicy(27, 2, 40, None, 2, 40)
        a = apply_policy(features, policy, derive_rng(7, "gen0"))
        b = apply_policy(features, policy, derive_rng(7, "gen0"))
        assert np.array_equal(a, b)

    def test_input_not_mutated(self):
        features = rng(16).standard_normal((30, 10))
        copy = features.copy()
        apply_policy(features, AugmentPolicy(5, 2, 10, None, 2, 3), rng(17))
        assert np.array_equal(features, copy)

    def test_fully_masked_row_fraction_bounded(self):
        features = rng(18).standard_normal((100, 20)) + 10.0
        policy = AugmentPolicy(4, 1, None, 0.05, 10, 0)
        bound = 10 * 5 / 100
        for seed in range(200):
            out = apply_policy(features, policy, rng(seed))
            fully_masked = float((out == 0.0).all(axis=1).mean())
            assert fully_masked <= bound

