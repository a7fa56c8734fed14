// Layer probes that time public calls directly: nn forward at fixed batch
// sizes on the workload's own model, with computed FLOP and weight-byte
// counts.
#pragma once

#include <span>

#include "mobility/dataset.hpp"
#include "nn/model.hpp"
#include "util.hpp"

namespace pelican::bench {

/// FLOPs of one forward row, computed from the tensor shapes: per step and
/// LSTM, the input product (4 one-hot entries for the first layer, which
/// takes the sparse path) plus the recurrent product, then the head.
[[nodiscard]] double forward_flops_per_row(const nn::SequenceClassifier& model);

/// Sets nn.fwd_us_per_row.b{1,32,1024}, nn.gflops.b1024 and
/// nn.weight_bytes_per_row.b1 from SequenceClassifier::forward on `model`
/// over batches cycled from `windows`.
void probe_nn(RunResult& result, nn::SequenceClassifier& model,
              std::span<const mobility::Window> windows,
              const mobility::EncodingSpec& spec);

}  // namespace pelican::bench
