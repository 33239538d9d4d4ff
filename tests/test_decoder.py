"""The keyword decoder against a plain-loop oracle: smoothed posteriors,
window scores and events, on random class counts, keyword subsets and
window lengths, with logits large enough that some probabilities
underflow to exactly 0."""

import re

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
from liconet.errors import ConfigError, InvalidInputError
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


def test_a_frame_copies_the_callers_probabilities():
    """The caller's array stays writable, even one the frame could have
    used as it is, and writing to it leaves the frame's read-only probs as
    they were."""
    p = np.array([0.25, 0.75])
    frame = PosteriorFrame(0, p)
    p[0] = 1.0
    assert p.flags.writeable
    assert frame.probs.tolist() == [0.25, 0.75]
    assert not frame.probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        frame.probs[0] = 1.0


@pytest.mark.parametrize(
    "logits",
    [[], np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 3, 4)), np.zeros((1, 2, 3, 4))],
    ids=["empty", "no-rows", "no-classes", "3d", "4d"],
)
@pytest.mark.parametrize("entry", ["softmax", "posterior_from_logits"])
def test_empty_and_many_dimensional_logits_are_refused_naming_their_shape(entry, logits):
    """Logits enter through softmax, which refuses them before numpy's
    argmin of an empty array can escape; posterior_from_logits hands it
    one column per step, so it sees the logits transposed."""
    if entry == "softmax":
        refuse, shape = softmax, np.shape(logits)
    else:
        refuse, shape = (lambda z: posterior_from_logits(0, z)), np.shape(np.transpose(logits))
    with pytest.raises(InvalidInputError, match=re.escape(f"got shape {shape}")):
        refuse(logits)


def _decode_blocks(decoder, probs, cuts):
    """Smoothed rows, scores and events of one update per block between cuts."""
    rows, scores, events = [], [], []
    for lo, hi in zip([0, *cuts], [*cuts, len(probs)]):
        if hi > lo:
            smoothed, block_scores, block_events = decoder.update(
                PosteriorFrame(lo, np.stack(probs[lo:hi]))
            )
            rows += [f.probs.tobytes() for f in smoothed.frames()]
            scores += block_scores
            events += block_events
    return rows, scores, events


def _decode_frames(decoder, probs):
    rows, scores, events = [], [], []
    for smoothed, score, event in _decode(decoder, probs):
        rows.append(smoothed.probs.tobytes())
        scores.append(score)
        events += [event] if event else []
    return rows, scores, events


@settings(max_examples=150, deadline=None)
@given(case=decoder_cases(), data=st.data())
def test_any_split_into_blocks_decodes_like_one_block_and_like_single_frames(case, data):
    cfg, probs = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(probs)), max_size=12)))
    whole = _decode_blocks(KeywordDecoder(cfg), probs, [])
    assert _decode_blocks(KeywordDecoder(cfg), probs, cuts) == whole
    assert _decode_frames(KeywordDecoder(cfg), probs) == whole
    expected = decode_loops(
        [list(p) for p in probs], cfg.window_steps, cfg.smooth_steps,
        cfg.keyword_ids, cfg.threshold,
    )
    rows, scores, events = whole
    for row, score, (want_row, want_score, _) in zip(rows, scores, expected):
        np.testing.assert_allclose(np.frombuffer(row), want_row, rtol=0, atol=1e-12)
        assert abs(score - want_score) <= 1e-12
    want_events = [(k, e) for k, (*_, e) in enumerate(expected) if e is not None]
    assert [e.step for e in events] == [k for k, _ in want_events]
    for event, (_, want_score) in zip(events, want_events):
        assert abs(event.score - want_score) <= 1e-12


# Two keyword classes, window 4, no smoothing: both keywords high in one
# window fires at steps 5 and 15; the crossing at step 9 is the last step
# of the refractory period after step 5's event (steps 6-9).
QUIET, BOTH = [0.98, 0.01, 0.01], [0.0, 0.5, 0.5]
A_HIGH, B_HIGH = [0.09, 0.9, 0.01], [0.09, 0.01, 0.9]
EDGE_PROBS = [np.array(p) for p in [QUIET] * 2 + [B_HIGH] + [QUIET] * 2 + [A_HIGH]
              + [QUIET] * 3 + [BOTH] + [QUIET] * 5 + [BOTH] + [QUIET] * 4]
EDGE_CUTS = {
    "event-in-column-0": [5, 15],
    "refractory-across-an-edge": [7],
    "suppressed-crossing-in-column-0": [9],
    "blocks-shorter-than-the-window": list(range(3, 20, 3)),
    "one-step-blocks": list(range(1, 20)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CUTS))
def test_split_block_edges_at_events_and_refractory_periods(case):
    cfg = DecoderConfig(4, 1, (1, 2), 0.4)
    expected = decode_loops([list(p) for p in EDGE_PROBS], 4, 1, (1, 2), 0.4)
    assert [k for k, (*_, e) in enumerate(expected) if e is not None] == [5, 15]
    assert expected[8][1] < 0.4 <= expected[9][1]
    whole = _decode_blocks(KeywordDecoder(cfg), EDGE_PROBS, [])
    assert [e.step for e in whole[2]] == [5, 15]
    assert _decode_blocks(KeywordDecoder(cfg), EDGE_PROBS, EDGE_CUTS[case]) == whole
    assert _decode_frames(KeywordDecoder(cfg), EDGE_PROBS) == whole


@pytest.mark.parametrize(
    "args",
    [(True, 1, (2,), 0.5), (4, True, (2,), 0.5), (4, 1, (True,), 0.5), (4, 1, (2, False), 0.5),
     (4, 1, (2,), True), (4, 1, (2,), np.True_), (True, True, (True,), True)],
)
def test_decoder_config_rejects_bools_where_it_needs_numbers(args):
    DecoderConfig(4, 1, (2,), 0.5)
    with pytest.raises(ConfigError):
        DecoderConfig(*args)


def test_frames_of_a_one_step_frame_is_that_frame():
    """A (C,) frame is already one step: frames() lists it as it is, and a
    (1, C) block lists one frame over its row with the same bits."""
    probs = [0.25, 0.75]
    one = PosteriorFrame(7, probs)
    [same] = one.frames()
    assert same is one
    [row] = PosteriorFrame(7, [probs]).frames()
    assert row.timestamp == 7 and row.probs.tobytes() == one.probs.tobytes()
    assert not row.probs.flags.writeable


def test_reset_takes_a_new_class_count():
    """A stream keeps the class count of its first frame; after reset the
    next frame sets it again."""
    decoder = KeywordDecoder(DecoderConfig(3, 2, (2,)))
    decoder.update(PosteriorFrame(0, [0.25, 0.25, 0.5]))
    with pytest.raises(InvalidInputError, match="a frame of 4 classes, the stream has 3"):
        decoder.update(PosteriorFrame(1, [0.25] * 4))
    decoder.reset()
    _, scores, _ = decoder.update(PosteriorFrame(0, [[0.1, 0.1, 0.6, 0.2]] * 3))
    assert scores == pytest.approx([0.6] * 3)
