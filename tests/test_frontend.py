"""Feature frames must not depend on how the PCM is split across pushes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.frontend import FeatureStream, FrontendConfig

CFG = FrontendConfig()
PCM = np.random.default_rng(31).normal(0.0, 0.2, size=3000)
PCM_INT16 = np.clip(np.round(PCM * 32768.0), -32768, 32767).astype(np.int16)
WHOLE = {
    "float": FeatureStream(CFG).push(PCM),
    "int16": FeatureStream(CFG).push(PCM_INT16),
}


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(st.integers(0, PCM.size), max_size=8),
    dtype=st.sampled_from(sorted(WHOLE)),
)
def test_frames_are_bit_identical_however_the_pcm_is_split(cuts, dtype):
    pcm = PCM if dtype == "float" else PCM_INT16
    stream = FeatureStream(CFG)
    frames = [stream.push(piece) for piece in np.split(pcm, sorted(cuts))]
    got = np.concatenate(frames, axis=1)
    assert WHOLE[dtype].shape == (CFG.n_mels, 17)
    assert got.tobytes() == WHOLE[dtype].tobytes()
