"""The keyword decoder against a plain-loop oracle: smoothed posteriors,
window scores and events, on random class counts, keyword subsets and
window lengths, with logits large enough that some probabilities
underflow to exactly 0."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.decoder import (
    DecoderConfig,
    KeywordDecoder,
    PosteriorFrame,
    posterior_from_logits,
    softmax,
)
from liconet.errors import InvalidInputError
from reference import decode_loops


@st.composite
def decoder_cases(draw):
    n_classes = draw(st.integers(1, 12))
    keyword_ids = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, unique=True))
    window = draw(st.integers(1, 40))
    smooth = draw(st.integers(1, window))
    threshold = draw(st.floats(0.0, 1.0))
    cfg = DecoderConfig(window, smooth, tuple(keyword_ids), threshold)
    n_steps = draw(st.integers(1, 100))
    scale = draw(st.sampled_from([0.1, 3.0, 1000.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, scale, size=(n_steps, n_classes))
    return cfg, [softmax(row) for row in logits]


def _decode(decoder, probs):
    return [decoder.update(PosteriorFrame(k, p)) for k, p in enumerate(probs)]


@settings(max_examples=100, deadline=None)
@given(case=decoder_cases())
def test_decoder_matches_the_loop_oracle(case):
    cfg, probs = case
    expected = decode_loops(
        [list(p) for p in probs], cfg.window_steps, cfg.smooth_steps,
        cfg.keyword_ids, cfg.threshold,
    )
    got = _decode(KeywordDecoder(cfg), probs)
    for k, ((smoothed, score, event), (want_smoothed, want_score, want_event)) in enumerate(
        zip(got, expected)
    ):
        assert smoothed.timestamp == k
        np.testing.assert_allclose(smoothed.probs, want_smoothed, rtol=0, atol=1e-12)
        assert abs(score - want_score) <= 1e-12
        assert (event is None) == (want_event is None)
        if event is not None:
            assert event.step == k
            assert abs(event.score - want_event) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(case=decoder_cases())
def test_reset_replays_like_a_fresh_decoder(case):
    cfg, probs = case
    decoder = KeywordDecoder(cfg)
    fresh = _decode(decoder, probs)
    decoder.reset()
    replay = _decode(decoder, probs)
    for (s1, score1, event1), (s2, score2, event2) in zip(fresh, replay):
        assert s1.probs.tobytes() == s2.probs.tobytes()
        assert (score1, event1) == (score2, event2)


@pytest.mark.parametrize("logits", [[np.inf, 1.0], [np.nan, 0.0], [-np.inf, -np.inf]])
def test_non_finite_logits_are_rejected(logits):
    """A NaN posterior would give a NaN score that never crosses the threshold."""
    with pytest.raises(InvalidInputError):
        posterior_from_logits(0, logits)


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]])
def test_non_finite_probabilities_are_rejected(probs):
    with pytest.raises(InvalidInputError):
        PosteriorFrame(0, probs)
