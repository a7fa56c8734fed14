#include "probe.hpp"

#include <vector>

#include "models/window_dataset.hpp"
#include "nn/lstm.hpp"

namespace pelican::bench {

double forward_flops_per_row(const nn::SequenceClassifier& model) {
  constexpr double kOneHotEntries = 4.0;  // entry, duration, location, day
  double flops = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const auto* lstm = dynamic_cast<const nn::Lstm*>(&model.layer(i));
    if (lstm == nullptr) continue;
    const double gates = 4.0 * static_cast<double>(lstm->hidden_dim());
    const double in =
        first ? kOneHotEntries : static_cast<double>(lstm->input_dim());
    const double hidden = static_cast<double>(lstm->hidden_dim());
    flops += static_cast<double>(mobility::kWindowSteps) * 2.0 * gates *
             (in + hidden);
    first = false;
  }
  flops += 2.0 * static_cast<double>(model.head().input_dim()) *
           static_cast<double>(model.num_classes());
  return flops;
}

void probe_nn(RunResult& result, nn::SequenceClassifier& model,
              std::span<const mobility::Window> windows,
              const mobility::EncodingSpec& spec) {
  for (const std::size_t batch : {std::size_t{1}, std::size_t{32},
                                  std::size_t{1024}}) {
    std::vector<mobility::Window> rows;
    rows.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      rows.push_back(windows[i % windows.size()]);
    }
    const nn::SparseSequence input = models::encode_windows_sparse(rows, spec);
    (void)model.forward(input, /*training=*/false);  // warm caches
    std::vector<double> us_per_row;
    const auto start = Clock::now();
    while (us_per_row.size() < 5 || seconds_since(start) < 0.1) {
      const auto call = Clock::now();
      (void)model.forward(input, /*training=*/false);
      us_per_row.push_back(seconds_since(call) * 1e6 /
                           static_cast<double>(batch));
    }
    const double us = median(us_per_row);
    result.set_layer("nn.fwd_us_per_row.b" + std::to_string(batch), us, "us");
    if (batch == 1024) {
      result.set_layer("nn.gflops.b1024",
                       forward_flops_per_row(model) / (us * 1e3), "GFLOP/s");
    }
  }
  result.set_layer("nn.weight_bytes_per_row.b1",
                   4.0 * static_cast<double>(model.parameter_count()), "B");
}

}  // namespace pelican::bench
