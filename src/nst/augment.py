"""Feature-matrix augmentation: frequency masks, time masks, time warping.

All operations take an explicit numpy Generator and return a new matrix of
the same shape; entries outside the masks are untouched. Mask widths are
drawn from UniformInt inclusive of both 0 and the maximum, so degenerate
zero-width masks are legal. Time masks are either fixed-width-capped or
adaptive, capped at a fixed ratio of the utterance length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NstError, read_record


class AugmentError(NstError):
    pass


# Each ``AugmentPolicy`` field with the JSON types its value may take.
_POLICY_SPEC = {
    "freq_mask_param": int,
    "num_freq_masks": int,
    "time_mask_param": (int, None),
    "time_mask_ratio": (float, None),
    "num_time_masks": int,
    "time_warp_param": int,
    "masked_value": float,
}


@dataclass(frozen=True)
class AugmentPolicy:
    """One augmentation setting.

    Exactly one of ``time_mask_param`` (fixed max width) and
    ``time_mask_ratio`` (max width as a fraction of the utterance length)
    must be set.
    """

    freq_mask_param: int = 0
    num_freq_masks: int = 2
    time_mask_param: int | None = 0
    time_mask_ratio: float | None = None
    num_time_masks: int = 2
    time_warp_param: int = 0
    masked_value: float = 0.0

    def __post_init__(self):
        if (self.time_mask_param is None) == (self.time_mask_ratio is None):
            raise AugmentError(
                "exactly one of time_mask_param and time_mask_ratio must be set"
            )
        if self.freq_mask_param < 0 or self.time_warp_param < 0:
            raise AugmentError("mask and warp parameters must be >= 0")
        if self.num_freq_masks < 0 or self.num_time_masks < 0:
            raise AugmentError("mask counts must be >= 0")
        if self.time_mask_param is not None and self.time_mask_param < 0:
            raise AugmentError("time_mask_param must be >= 0")
        if self.time_mask_ratio is not None and not 0.0 <= self.time_mask_ratio <= 1.0:
            raise AugmentError("time_mask_ratio must be in [0, 1]")
        if not math.isfinite(self.masked_value):
            raise AugmentError("masked_value must be finite")

    @property
    def adaptive(self) -> bool:
        return self.time_mask_ratio is not None

    def max_time_mask(self, n_frames: int) -> int:
        """Largest legal time-mask width for an utterance of ``n_frames``."""
        if self.adaptive:
            return int(math.floor(self.time_mask_ratio * n_frames))
        return min(self.time_mask_param, n_frames)

    def to_dict(self) -> dict:
        record: dict[str, object] = {
            "freq_mask_param": self.freq_mask_param,
            "num_freq_masks": self.num_freq_masks,
            "num_time_masks": self.num_time_masks,
            "time_warp_param": self.time_warp_param,
            "masked_value": self.masked_value,
        }
        if self.adaptive:
            record["time_mask_ratio"] = self.time_mask_ratio
        else:
            record["time_mask_param"] = self.time_mask_param
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "AugmentPolicy":
        """The policy a ``to_dict`` record describes; absent keys take their defaults.

        A record that sets ``time_mask_ratio`` leaves ``time_mask_param``
        unset rather than at its fixed-width default.
        """
        values = read_record(record, _POLICY_SPEC, AugmentError, "augment policy")
        if values.get("time_mask_ratio") is not None:
            values.setdefault("time_mask_param", None)
        return cls(**values)


def identity_policy() -> AugmentPolicy:
    """A policy whose application is the identity for every input and seed."""
    return AugmentPolicy(
        freq_mask_param=0,
        num_freq_masks=0,
        time_mask_param=0,
        num_time_masks=0,
        time_warp_param=0,
    )


def freq_mask(
    features: np.ndarray,
    mask_param: int,
    count: int,
    rng: np.random.Generator,
    masked_value: float = 0.0,
) -> np.ndarray:
    """Apply ``count`` channel masks of width UniformInt[0, mask_param]."""
    out = np.array(features, copy=True)
    n_channels = out.shape[1]
    if mask_param > n_channels:
        raise AugmentError(
            f"freq mask parameter {mask_param} exceeds channel count {n_channels}"
        )
    for _ in range(count):
        width = int(rng.integers(0, mask_param + 1))
        start = int(rng.integers(0, n_channels - width + 1))
        out[:, start : start + width] = masked_value
    return out


def time_mask(
    features: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator
) -> np.ndarray:
    """Apply the policy's time masks; widths are capped per ``max_time_mask``."""
    out = np.array(features, copy=True)
    n_frames = out.shape[0]
    cap = policy.max_time_mask(n_frames)
    for _ in range(policy.num_time_masks):
        width = int(rng.integers(0, cap + 1))
        start = int(rng.integers(0, n_frames - width + 1))
        out[start : start + width, :] = policy.masked_value
    return out


def warp_frames(features: np.ndarray, anchor: int, new_anchor: int) -> np.ndarray:
    """Piecewise-linear time remap moving frame ``anchor`` to ``new_anchor``.

    Endpoints stay fixed; every output frame is the linear interpolation of
    the two input frames bracketing its source position. Deterministic core
    of ``time_warp``, exposed for direct testing.
    """
    n_frames = features.shape[0]
    if not 0 < anchor < n_frames - 1 or not 0 < new_anchor < n_frames - 1:
        raise AugmentError("warp anchors must be interior frames")
    positions = np.arange(n_frames, dtype=np.float64)
    source = np.empty(n_frames, dtype=np.float64)
    left = positions <= new_anchor
    source[left] = positions[left] * (anchor / new_anchor)
    right = ~left
    source[right] = anchor + (positions[right] - new_anchor) * (
        (n_frames - 1 - anchor) / (n_frames - 1 - new_anchor)
    )
    low = np.floor(source).astype(np.int64)
    low = np.clip(low, 0, n_frames - 1)
    high = np.minimum(low + 1, n_frames - 1)
    frac = (source - low)[:, None]
    values = features.astype(np.float64)
    out = values[low] * (1.0 - frac) + values[high] * frac
    return out.astype(features.dtype)


def time_warp(
    features: np.ndarray, warp_param: int, rng: np.random.Generator
) -> np.ndarray:
    """Randomly displace one interior anchor frame by up to ``warp_param``.

    A no-op (copy) when the warp parameter is 0 or the utterance is too short
    for an interior anchor window.
    """
    n_frames = features.shape[0]
    if warp_param <= 0 or n_frames <= 2 * warp_param:
        return np.array(features, copy=True)
    anchor = int(rng.integers(warp_param, n_frames - warp_param))
    displacement = int(rng.integers(-warp_param, warp_param + 1))
    # Clamp so both linear segments keep nonzero length.
    new_anchor = min(max(anchor + displacement, 1), n_frames - 2)
    return warp_frames(features, anchor, new_anchor)


def apply_policy(
    features: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator
) -> np.ndarray:
    """Warp, then frequency masks, then time masks."""
    out = time_warp(features, policy.time_warp_param, rng)
    out = freq_mask(
        out, policy.freq_mask_param, policy.num_freq_masks, rng, policy.masked_value
    )
    out = time_mask(out, policy, rng)
    return out

