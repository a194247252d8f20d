"""Independent test oracles, kept deliberately naive.

These must not share code or formulation tricks with the package; they trade
speed for obvious correctness.
"""
from __future__ import annotations

import math

import numpy as np


def reference_am(features, centroids, frames_per_token: int) -> np.ndarray:
    """(n_blocks, V) acoustic scores, one (block, token) cell at a time.

    A token's raw score is minus the squared distance of the block's frames
    to the token's centroid, averaged over the frames; each block's raw
    scores are then shifted by their log-sum-exp.
    """
    features = np.asarray(features, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    rows = []
    for start in range(0, features.shape[0], frames_per_token):
        raw = []
        for centroid in centroids:
            total = 0.0
            for frame in features[start : start + frames_per_token]:
                total += sum((float(x) - float(c)) ** 2 for x, c in zip(frame, centroid))
            raw.append(-total / frames_per_token)
        peak = max(raw)
        norm = peak + math.log(sum(math.exp(r - peak) for r in raw))
        rows.append([r - norm for r in raw])
    return np.array(rows)


def reference_decode(am, bigram_log, beam: int, lm_weight: float) -> list[tuple]:
    """Exact top-``beam`` lattice search, one utterance at a time, unpruned.

    ``am`` is the (n_blocks, V) acoustic matrix and ``bigram_log`` the
    (V + 1, V) bigram table whose last row is the start context. State is
    (position, last token) with ``beam`` best partial paths kept per state;
    every (state, rank, token) candidate is ranked by one stable sort per
    block, so ties break toward lower token ids, then better incoming ranks.
    Returns (tokens, am score, lm score, coverage) tuples sorted by
    am + lm_weight * lm.
    """
    am = np.asarray(am, dtype=np.float64)
    lm = np.asarray(bigram_log, dtype=np.float64)
    n_blocks, v = am.shape
    start = v

    keys = np.full((v, beam), -np.inf)
    am_tot = np.zeros((v, beam))
    lm_tot = np.zeros((v, beam))
    backptr: list[np.ndarray] = []

    lm_tot[:, 0] = lm[start, :]
    am_tot[:, 0] = am[0, :]
    keys[:, 0] = am_tot[:, 0] + lm_weight * lm_tot[:, 0]

    for i in range(1, n_blocks):
        # candidates[s * beam + r, t]: extend rank-r path in state s with t
        cand_keys = (
            keys.reshape(-1, 1)
            + lm_weight * np.repeat(lm[:v, :], beam, axis=0)
            + am[i][None, :]
        )
        order = np.argsort(-cand_keys, axis=0, kind="stable")[:beam]
        cand_am = np.repeat(am_tot.reshape(-1, 1), v, axis=1) + am[i][None, :]
        cand_lm = np.repeat(lm_tot.reshape(-1, 1), v, axis=1) + np.repeat(
            lm[:v, :], beam, axis=0
        )
        cols = np.arange(v)[None, :]
        keys = cand_keys[order, cols].T
        am_tot = cand_am[order, cols].T
        lm_tot = cand_lm[order, cols].T
        backptr.append(order.T)

    flat_keys = keys.ravel()
    final_order = np.argsort(-flat_keys, kind="stable")
    hyps = []
    for flat in final_order:
        if len(hyps) >= beam or not np.isfinite(flat_keys[flat]):
            break
        state, rank = divmod(int(flat), beam)
        tokens = [state]
        s, r = state, rank
        for i in range(n_blocks - 1, 0, -1):
            s, r = divmod(int(backptr[i - 1][s, r]), beam)
            tokens.append(s)
        tokens.reverse()
        hyps.append(
            (tuple(tokens), float(am_tot[state, rank]), float(lm_tot[state, rank]), float(n_blocks))
        )
    # Python's sort is stable, so equal scores keep the search's order.
    hyps.sort(key=lambda h: -(h[1] + lm_weight * h[2]))
    return hyps


def reference_sentence(initial, transition, length_range, rng) -> list[int]:
    """One sentence drawn token by token with ``Generator.choice``.

    The length is drawn uniformly from ``length_range`` (inclusive), the first
    token from ``initial`` and each later one from the ``transition`` row of
    the token before it.
    """
    initial = np.asarray(initial, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    lo, hi = length_range
    length = int(rng.integers(lo, hi + 1))
    v = initial.size
    tokens = [int(rng.choice(v, p=initial))]
    for _ in range(length - 1):
        tokens.append(int(rng.choice(v, p=transition[tokens[-1]])))
    return tokens


def exhaustive_edit_distance(reference, hypothesis) -> int:
    """Minimal edit distance by exhaustive recursion over all alignments.

    Branch-and-bound pruning keeps it tractable for short sequences without
    changing the result: a branch is abandoned only when it provably cannot
    beat the best complete alignment found so far.
    """
    n, m = len(reference), len(hypothesis)
    best = abs(n - m) + sum(1 for a, b in zip(reference, hypothesis) if a != b)

    def explore(i: int, j: int, cost: int) -> None:
        nonlocal best
        if cost + abs((n - i) - (m - j)) >= best:
            return
        if i == n and j == m:
            best = cost
            return
        if i < n and j < m:
            explore(i + 1, j + 1, cost + (1 if reference[i] != hypothesis[j] else 0))
        if i < n:
            explore(i + 1, j, cost + 1)
        if j < m:
            explore(i, j + 1, cost + 1)

    explore(0, 0, 0)
    return best


def reference_score_curves(entries, thresholds) -> list[tuple]:
    """Survival and WER-above-score rows, one threshold at a time.

    ``entries`` are (filter score, reference, hypothesis) triples. For each
    threshold the kept entries are those scoring strictly above it, or all of
    them at -inf; the row is (threshold, kept utterance fraction, kept
    hypothesis-token fraction, kept WER or None when nothing is kept). Raises
    ValueError on no entries, or on a nonempty kept set whose references hold
    no tokens.
    """
    if not entries:
        raise ValueError("no entries")
    total_tokens = sum(len(hyp) for _, _, hyp in entries)
    rows = []
    for threshold in thresholds:
        if threshold == -math.inf:
            kept = list(entries)
        else:
            kept = [e for e in entries if e[0] > threshold]
        tokens = sum(len(hyp) for _, _, hyp in kept)
        token_fraction = tokens / total_tokens if total_tokens > 0 else 0.0
        if kept:
            ref_length = sum(len(ref) for _, ref, _ in kept)
            if ref_length == 0:
                raise ValueError("kept references hold no tokens")
            errors = sum(exhaustive_edit_distance(ref, hyp) for _, ref, hyp in kept)
            kept_wer = errors / ref_length
        else:
            kept_wer = None
        rows.append((float(threshold), len(kept) / len(entries), token_fraction, kept_wer))
    return rows


def _smoothed(vec: list[float], epsilon: float) -> list[float]:
    total = sum(vec) + epsilon * len(vec)
    return [(v + epsilon) / total for v in vec]


def _kl_of_counts(counts: list[float], target_probs: list[float], epsilon: float) -> float:
    """Smoothed KL of the normalized ``counts`` against the target; all-zero reads as uniform."""
    total = sum(counts)
    probs = [c / total for c in counts] if total > 0 else [0.0] * len(counts)
    ps = _smoothed(probs, epsilon)
    qs = _smoothed(list(target_probs), epsilon)
    return sum(p * (math.log(p) - math.log(q)) for p, q in zip(ps, qs))


def reference_gain(
    counts: list[float], sentence: list[int], target_probs: list[float], epsilon: float
) -> float:
    """KL decrease from adding ``sentence`` (token ids) to ``counts``, per token.

    With all-zero counts the starting point is the uniform distribution.
    """
    new_counts = list(counts)
    for t in sentence:
        new_counts[t] += 1.0
    before = _kl_of_counts(counts, target_probs, epsilon)
    return (before - _kl_of_counts(new_counts, target_probs, epsilon)) / len(sentence)


def reference_balance(
    pool: list[tuple[str, list[int]]],
    target_probs: list[float],
    cap: int,
    batch_fraction: float,
    min_tokens: int,
    epsilon: float,
) -> tuple[list[int], bool]:
    """Step-by-step greedy balanced sampling in plain Python.

    pool entries are (utterance id, token id list). Returns the per-entry
    selection counts (pool order) and the infeasible-floor flag.
    """
    n = len(pool)
    batch = math.ceil(batch_fraction * n)
    selections = [0] * n
    counts = [0.0] * len(target_probs)
    total_tokens = 0
    kl_current = _kl_of_counts(counts, target_probs, epsilon)
    while True:
        eligible = [i for i in range(n) if selections[i] < cap and len(pool[i][1]) >= 1]
        if not eligible:
            return selections, total_tokens < min_tokens
        scored = [(i, reference_gain(counts, pool[i][1], target_probs, epsilon)) for i in eligible]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        for i, _ in scored[:batch]:
            selections[i] += 1
            for t in pool[i][1]:
                counts[t] += 1.0
            total_tokens += len(pool[i][1])
        kl_next = _kl_of_counts(counts, target_probs, epsilon)
        if total_tokens >= min_tokens and kl_next >= kl_current:
            return selections, False
        kl_current = kl_next


def reference_best(
    hyps: list[tuple], lm_weight: float, coverage_weight: float, nonblank_reward: float,
    mode: str,
) -> tuple[int, float]:
    """Rank and fused score of the first hypothesis with maximal fused score, one at a time.

    ``hyps`` are (token ids, am, lm, coverage). The fused score is am plus
    ``lm_weight`` times lm, plus ``coverage_weight`` times coverage in
    "attention" mode or ``nonblank_reward`` per token in "transducer" mode.
    """
    best, best_score = None, -math.inf
    for rank, (tokens, am, lm, coverage) in enumerate(hyps):
        score = am + lm_weight * lm
        if mode == "attention":
            score = score + coverage_weight * coverage
        else:
            score = score + nonblank_reward * len(tokens)
        if score > best_score:
            best, best_score = rank, score
    return best, best_score
