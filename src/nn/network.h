// Neural-network description and float reference inference (golden model).
//
// Networks are the §VI workload: the DPE maps these layer descriptions onto
// crossbar tiles, the baselines execute them on roofline CPU/GPU models, and
// this module's float forward pass is the accuracy reference.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/tensor.h"

namespace cim::nn {

enum class Activation : std::uint8_t { kNone = 0, kRelu, kSigmoid };

// Fully connected: y = W^T x + b. Weights stored row-major [in x out].
struct DenseLayer {
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  std::vector<double> weights;
  std::vector<double> bias;
  Activation activation = Activation::kRelu;
};

// 2-D convolution over CHW tensors, square kernel, valid-or-same padding.
struct Conv2dLayer {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;
  // Weights [out_c][in_c][k][k] flattened; bias [out_c].
  std::vector<double> weights;
  std::vector<double> bias;
  Activation activation = Activation::kRelu;
};

// Max pooling over CHW tensors.
struct MaxPoolLayer {
  std::size_t window = 2;
  std::size_t stride = 2;
};

using Layer = std::variant<DenseLayer, Conv2dLayer, MaxPoolLayer>;

struct Network {
  std::string name;
  // Input shape: {features} for MLPs, {C, H, W} for CNNs.
  std::vector<std::size_t> input_shape;
  std::vector<Layer> layers;

  // The layer walk's status: InvalidArgument for a missing input shape, a
  // layer that does not fit its input, a zero kernel/window/stride or wrong
  // weight/bias sizes.
  [[nodiscard]] Status Validate() const;
  // Multiply-accumulates per inference (the walk's macs); 0 if invalid.
  [[nodiscard]] std::uint64_t TotalMacs() const;
  // Total weight parameters.
  [[nodiscard]] std::uint64_t TotalWeights() const;
};

[[nodiscard]] double Activate(double v, Activation act);

// Max pooling of a CHW tensor onto the layer's profiled output shape.
[[nodiscard]] Tensor MaxPool(const MaxPoolLayer& pool, const Tensor& in,
                             std::vector<std::size_t> out_shape);

// Float reference forward pass.
[[nodiscard]] Expected<Tensor> Forward(const Network& net,
                                       const Tensor& input);

// One layer as the walk over a network sees it: the one geometry source
// for the float model, both DPE models, the baselines and the partitioner.
struct LayerProfile {
  std::string kind;  // "dense" / "conv" / "pool"
  // Consumed shape (after the implicit conv→dense flatten), produced shape.
  std::vector<std::size_t> in_shape;
  std::vector<std::size_t> out_shape;
  // An mvm_rows x mvm_cols weight matrix (ic*k*k x oc for an im2col conv)
  // driven mvm_calls times per inference: 1 dense, oh*ow conv, 0 pool.
  std::size_t mvm_rows = 0;
  std::size_t mvm_cols = 0;
  std::uint64_t mvm_calls = 0;
  std::uint64_t macs = 0;
  std::uint64_t weight_count = 0;
  std::uint64_t in_elements = 0;
  std::uint64_t out_elements = 0;
};
// One profile per layer, in order; fails with Network::Validate's status.
[[nodiscard]] Expected<std::vector<LayerProfile>> ProfileNetwork(
    const Network& net);

// Slice a dense layer to the output features [begin, begin + count): weight
// columns and bias entries, same activation. Feeding the full input through
// each slice and concatenating the outputs in order reproduces the unsliced
// layer exactly — column math is independent of its neighbors — which is
// what makes fabric column-splits bit-exact on noise-free devices.
[[nodiscard]] Expected<DenseLayer> SliceDenseOutputs(const DenseLayer& layer,
                                                     std::size_t begin,
                                                     std::size_t count);

// --- builders -------------------------------------------------------------

// MLP with the given layer widths (first entry = input features), random
// weights in [-scale, scale], ReLU hidden activations, no final activation.
[[nodiscard]] Network BuildMlp(const std::string& name,
                               const std::vector<std::size_t>& widths,
                               Rng& rng, double scale = 0.5);

// Small LeNet-style CNN for CHW inputs.
[[nodiscard]] Network BuildCnn(const std::string& name, std::size_t channels,
                               std::size_t height, std::size_t width,
                               std::size_t classes, Rng& rng);

// The §VI sweep: a family of networks from tiny to large.
[[nodiscard]] std::vector<Network> BuildBenchmarkSuite(Rng& rng);

}  // namespace cim::nn
