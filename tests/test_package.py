"""The top-level package exports every name the benchmark imports from it."""

import liconet
from liconet import (
    FeatureStream,
    KeywordDecoder,
    PosteriorFrame,
    Tensor2D,
    count_macs_per_step,
    load_model,
    make_engine,
    network_forward,
    posterior_from_logits,
    run_stream,
    softmax,
    write_wav,
)
from liconet import decoder, frontend, model, modelfile, runtime, tensor

EXPORTS = {
    frontend: [FeatureStream],
    decoder: [KeywordDecoder, PosteriorFrame, posterior_from_logits, softmax],
    tensor: [Tensor2D],
    model: [count_macs_per_step, network_forward],
    modelfile: [load_model],
    runtime: [make_engine, run_stream, write_wav],
}


def test_each_benchmark_name_is_the_one_its_module_defines():
    for module, objects in EXPORTS.items():
        for obj in objects:
            assert getattr(module, obj.__name__) is obj
            assert getattr(liconet, obj.__name__) is obj
