"""Layer-separated distributed training over a byte-accounted simulated network.

Submodules:
    tensor_core      float32 layers, gradients, momentum SGD, serialization
    model_partition  model specs, CONV/FC split, parameter counting, profiles
    transport        simulated in-process network with a traffic ledger
    collectives      recursive-doubling allreduce with surplus folding
    checkpointing    training-state snapshots and digests
    ps_runtime       parameter-server protocol (contiguous-range shards, BSP)
    stanza_runtime   layer-separated protocol (CONV/FC worker groups)
    perf_model       closed-form iteration-time models and node planner
    harness          experiment configs, synthetic data, run/compare drivers
    cli              `stanza` command line front end
"""

__version__ = "0.1.0"
