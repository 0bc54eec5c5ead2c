#include "nn/network.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace cim::nn {
namespace {

// Fixed-rank shape, so walking a network allocates nothing: rank 1 {n} or
// rank 3 {c, h, w}. Rank 0 marks an input shape no layer accepts.
struct Shape {
  std::size_t rank = 0;
  std::array<std::size_t, 3> dims{};

  [[nodiscard]] std::uint64_t elements() const {
    std::uint64_t n = 1;
    for (std::size_t d = 0; d < rank; ++d) n *= dims[d];
    return n;
  }
  [[nodiscard]] std::vector<std::size_t> vec() const {
    return {dims.begin(), dims.begin() + static_cast<std::ptrdiff_t>(rank)};
  }
};

// One layer's geometry: what LayerProfile publishes, minus the vectors.
struct Step {
  Shape in;  // after the implicit conv→dense flatten
  Shape out;
  std::size_t mvm_rows = 0;
  std::size_t mvm_cols = 0;
  std::uint64_t mvm_calls = 0;

  [[nodiscard]] std::uint64_t macs() const {
    return mvm_calls * mvm_rows * mvm_cols;
  }
};

// Output spatial size of a conv/pool stage.
std::size_t OutDim(std::size_t in, std::size_t kernel, std::size_t stride,
                   std::size_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

std::uint64_t WeightCount(const Layer& layer) {
  if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
    return dense->weights.size() + dense->bias.size();
  }
  if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
    return conv->weights.size() + conv->bias.size();
  }
  return 0;
}

// Geometry of one layer on input `in`, or the reason the layer is invalid.
const char* LayerStep(const Layer& layer, Shape in, Step* step) {
  // A dense layer after a conv stack implicitly flattens.
  if (std::holds_alternative<DenseLayer>(layer) && in.rank == 3) {
    in = Shape{1, {in.elements(), 0, 0}};
  }
  constexpr const char* kMismatch = "incompatible with input shape";
  constexpr const char* kWeights = "weight/bias size mismatch";
  if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
    if (in.rank != 1 || in.dims[0] != dense->in_features) return kMismatch;
    if (dense->weights.size() != dense->in_features * dense->out_features ||
        dense->bias.size() != dense->out_features) {
      return kWeights;
    }
    *step = {in, Shape{1, {dense->out_features, 0, 0}}, dense->in_features,
             dense->out_features, 1};
  } else if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
    const std::size_t k = conv->kernel;
    const std::size_t pad = conv->padding;
    const std::size_t rows = conv->in_channels * k * k;  // im2col
    if (k == 0 || conv->stride == 0) return "needs kernel and stride > 0";
    if (in.rank != 3 || in.dims[0] != conv->in_channels ||
        in.dims[1] + 2 * pad < k || in.dims[2] + 2 * pad < k) {
      return kMismatch;
    }
    if (conv->weights.size() != rows * conv->out_channels ||
        conv->bias.size() != conv->out_channels) {
      return kWeights;
    }
    const std::size_t oh = OutDim(in.dims[1], k, conv->stride, pad);
    const std::size_t ow = OutDim(in.dims[2], k, conv->stride, pad);
    *step = {in, Shape{3, {conv->out_channels, oh, ow}}, rows,
             conv->out_channels, static_cast<std::uint64_t>(oh) * ow};
  } else if (const auto* pool = std::get_if<MaxPoolLayer>(&layer)) {
    const std::size_t w = pool->window;
    if (w == 0 || pool->stride == 0) return "needs window and stride > 0";
    if (in.rank != 3 || in.dims[1] < w || in.dims[2] < w) return kMismatch;
    *step = {in, Shape{3, {in.dims[0], OutDim(in.dims[1], w, pool->stride, 0),
                           OutDim(in.dims[2], w, pool->stride, 0)}}};
  }
  return nullptr;
}

// The one walk over a network's layers: calls visit(layer, step) for each
// layer, in order, once it has passed its checks; returns the first failure.
template <typename Visit>
Status WalkLayers(const Network& net, Visit&& visit) {
  if (net.input_shape.empty()) return InvalidArgument("missing input shape");
  Shape shape;
  if (net.input_shape.size() == 1 || net.input_shape.size() == 3) {
    shape.rank = net.input_shape.size();
    std::copy(net.input_shape.begin(), net.input_shape.end(),
              shape.dims.begin());
  }
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    Step step;
    if (const char* error = LayerStep(net.layers[i], shape, &step)) {
      return InvalidArgument("layer " + std::to_string(i) + " " + error);
    }
    visit(net.layers[i], step);
    shape = step.out;
  }
  return Status::Ok();
}

}  // namespace

Status Network::Validate() const {
  return WalkLayers(*this, [](const Layer&, const Step&) {});
}

std::uint64_t Network::TotalMacs() const {
  std::uint64_t macs = 0;
  const Status s = WalkLayers(
      *this, [&macs](const Layer&, const Step& step) { macs += step.macs(); });
  return s.ok() ? macs : 0;
}

std::uint64_t Network::TotalWeights() const {
  std::uint64_t weights = 0;
  for (const Layer& layer : layers) weights += WeightCount(layer);
  return weights;
}

double Activate(double v, Activation act) {
  switch (act) {
    case Activation::kNone: return v;
    case Activation::kRelu: return std::max(v, 0.0);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

Tensor MaxPool(const MaxPoolLayer& pool, const Tensor& in,
               std::vector<std::size_t> out_shape) {
  Tensor out(std::move(out_shape));
  const std::vector<std::size_t>& shape = out.shape();
  for (std::size_t c = 0; c < shape[0]; ++c) {
    for (std::size_t oy = 0; oy < shape[1]; ++oy) {
      for (std::size_t ox = 0; ox < shape[2]; ++ox) {
        double best = -1e300;
        for (std::size_t ky = 0; ky < pool.window; ++ky) {
          for (std::size_t kx = 0; kx < pool.window; ++kx) {
            best = std::max(best, in.at3(c, oy * pool.stride + ky,
                                         ox * pool.stride + kx));
          }
        }
        out.at3(c, oy, ox) = best;
      }
    }
  }
  return out;
}

Expected<Tensor> Forward(const Network& net, const Tensor& input) {
  if (input.shape() != net.input_shape) {
    return InvalidArgument("input shape mismatch");
  }
  Tensor current = input;
  const Status s = WalkLayers(net, [&current](const Layer& layer,
                                              const Step& step) {
    if (current.rank() != step.in.rank) {
      current = Tensor(step.in.vec(), std::move(current.vec()));
    }
    if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
      // Input-major over the row-major weights: each output still sums
      // bias + x0*w0 + x1*w1 + ... in order, and the sums do not chain.
      Tensor out(step.out.vec(), dense->bias);
      double* y = out.data();
      for (std::size_t i = 0; i < dense->in_features; ++i) {
        const double x = current[i];
        const double* w = dense->weights.data() + i * dense->out_features;
        for (std::size_t o = 0; o < dense->out_features; ++o) y[o] += x * w[o];
      }
      for (double& v : out.vec()) v = Activate(v, dense->activation);
      current = std::move(out);
    } else if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
      const std::size_t ih = step.in.dims[1];
      const std::size_t iw = step.in.dims[2];
      Tensor out(step.out.vec());
      const std::size_t k = conv->kernel;
      for (std::size_t oc = 0; oc < conv->out_channels; ++oc) {
        for (std::size_t oy = 0; oy < step.out.dims[1]; ++oy) {
          for (std::size_t ox = 0; ox < step.out.dims[2]; ++ox) {
            double sum = conv->bias[oc];
            for (std::size_t ic = 0; ic < conv->in_channels; ++ic) {
              for (std::size_t ky = 0; ky < k; ++ky) {
                for (std::size_t kx = 0; kx < k; ++kx) {
                  const std::int64_t iy =
                      static_cast<std::int64_t>(oy * conv->stride + ky) -
                      static_cast<std::int64_t>(conv->padding);
                  const std::int64_t ix =
                      static_cast<std::int64_t>(ox * conv->stride + kx) -
                      static_cast<std::int64_t>(conv->padding);
                  if (iy < 0 || ix < 0 ||
                      iy >= static_cast<std::int64_t>(ih) ||
                      ix >= static_cast<std::int64_t>(iw)) {
                    continue;
                  }
                  const double w =
                      conv->weights[((oc * conv->in_channels + ic) * k + ky) *
                                        k +
                                    kx];
                  sum += w * current.at3(ic, static_cast<std::size_t>(iy),
                                         static_cast<std::size_t>(ix));
                }
              }
            }
            out.at3(oc, oy, ox) = Activate(sum, conv->activation);
          }
        }
      }
      current = std::move(out);
    } else if (const auto* pool = std::get_if<MaxPoolLayer>(&layer)) {
      current = MaxPool(*pool, current, step.out.vec());
    }
  });
  if (!s.ok()) return s;
  return current;
}

Expected<std::vector<LayerProfile>> ProfileNetwork(const Network& net) {
  // Indexed by Layer::index(): the variant's alternative order.
  static constexpr const char* kKinds[] = {"dense", "conv", "pool"};
  std::vector<LayerProfile> profiles;
  profiles.reserve(net.layers.size());
  const Status s = WalkLayers(net, [&profiles](const Layer& layer,
                                               const Step& step) {
    profiles.push_back({kKinds[layer.index()], step.in.vec(), step.out.vec(),
                        step.mvm_rows, step.mvm_cols, step.mvm_calls,
                        step.macs(), WeightCount(layer), step.in.elements(),
                        step.out.elements()});
  });
  if (!s.ok()) return s;
  return profiles;
}

Expected<DenseLayer> SliceDenseOutputs(const DenseLayer& layer,
                                       std::size_t begin, std::size_t count) {
  if (count == 0) return InvalidArgument("empty dense slice");
  if (begin + count > layer.out_features) {
    return OutOfRange("dense slice past out_features");
  }
  if (layer.weights.size() != layer.in_features * layer.out_features ||
      layer.bias.size() != layer.out_features) {
    return InvalidArgument("dense layer weight/bias size mismatch");
  }
  DenseLayer slice;
  slice.in_features = layer.in_features;
  slice.out_features = count;
  slice.activation = layer.activation;
  slice.weights.resize(layer.in_features * count);
  for (std::size_t i = 0; i < layer.in_features; ++i) {
    const std::size_t src = i * layer.out_features + begin;
    const std::size_t dst = i * count;
    for (std::size_t o = 0; o < count; ++o) {
      slice.weights[dst + o] = layer.weights[src + o];
    }
  }
  slice.bias.assign(layer.bias.begin() + static_cast<std::ptrdiff_t>(begin),
                    layer.bias.begin() +
                        static_cast<std::ptrdiff_t>(begin + count));
  return slice;
}

Network BuildMlp(const std::string& name,
                 const std::vector<std::size_t>& widths, Rng& rng,
                 double scale) {
  Network net;
  net.name = name;
  net.input_shape = {widths.front()};
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    DenseLayer layer;
    layer.in_features = widths[i];
    layer.out_features = widths[i + 1];
    layer.weights.resize(layer.in_features * layer.out_features);
    layer.bias.resize(layer.out_features);
    for (auto& w : layer.weights) w = rng.Uniform(-scale, scale);
    for (auto& b : layer.bias) b = rng.Uniform(-scale / 10, scale / 10);
    layer.activation = (i + 2 == widths.size()) ? Activation::kNone
                                                : Activation::kRelu;
    net.layers.emplace_back(std::move(layer));
  }
  return net;
}

Network BuildCnn(const std::string& name, std::size_t channels,
                 std::size_t height, std::size_t width, std::size_t classes,
                 Rng& rng) {
  Network net;
  net.name = name;
  net.input_shape = {channels, height, width};

  const auto make_conv = [&rng](std::size_t in_c, std::size_t out_c,
                                std::size_t k) {
    Conv2dLayer conv;
    conv.in_channels = in_c;
    conv.out_channels = out_c;
    conv.kernel = k;
    conv.padding = k / 2;
    conv.weights.resize(out_c * in_c * k * k);
    conv.bias.resize(out_c);
    const double fan_in = static_cast<double>(in_c * k * k);
    const double scale = std::sqrt(2.0 / fan_in);
    for (auto& w : conv.weights) w = rng.Gaussian(0.0, scale);
    for (auto& b : conv.bias) b = 0.0;
    return conv;
  };

  net.layers.emplace_back(make_conv(channels, 8, 3));
  net.layers.emplace_back(MaxPoolLayer{});
  net.layers.emplace_back(make_conv(8, 16, 3));
  net.layers.emplace_back(MaxPoolLayer{});

  const std::size_t flat = 16 * (height / 4) * (width / 4);
  DenseLayer fc1;
  fc1.in_features = flat;
  fc1.out_features = 64;
  fc1.weights.resize(flat * 64);
  fc1.bias.resize(64);
  for (auto& w : fc1.weights) w = rng.Uniform(-0.1, 0.1);
  for (auto& b : fc1.bias) b = 0.0;
  net.layers.emplace_back(std::move(fc1));

  DenseLayer fc2;
  fc2.in_features = 64;
  fc2.out_features = classes;
  fc2.weights.resize(64 * classes);
  fc2.bias.resize(classes);
  for (auto& w : fc2.weights) w = rng.Uniform(-0.1, 0.1);
  for (auto& b : fc2.bias) b = 0.0;
  fc2.activation = Activation::kNone;
  net.layers.emplace_back(std::move(fc2));
  return net;
}

std::vector<Network> BuildBenchmarkSuite(Rng& rng) {
  std::vector<Network> suite;
  suite.push_back(BuildMlp("mlp-tiny", {16, 32, 10}, rng));
  suite.push_back(BuildMlp("mlp-small", {64, 128, 64, 10}, rng));
  suite.push_back(BuildMlp("mlp-mnist", {784, 256, 128, 10}, rng));
  suite.push_back(BuildMlp("mlp-wide", {1024, 2048, 1024, 100}, rng));
  suite.push_back(BuildCnn("cnn-small", 1, 28, 28, 10, rng));
  suite.push_back(BuildCnn("cnn-cifar", 3, 32, 32, 10, rng));
  return suite;
}

}  // namespace cim::nn
