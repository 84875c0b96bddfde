#include "nn/sequential.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace safelight::nn {

Layer& Sequential::add(LayerPtr layer) {
  require(layer != nullptr, "Sequential::add: null layer");
  ParamKind kind = ParamKind::kElectronic;
  for (const Param* p : layer->params()) {
    if (kind != ParamKind::kConvWeight && p->kind != ParamKind::kElectronic) {
      kind = p->kind;
    }
  }
  weight_kinds_.push_back(kind);
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Sequential::forward(Tensor x, bool train) {
  return forward_from(0, std::move(x), train);
}

Tensor Sequential::forward_from(std::size_t begin_layer, Tensor h,
                                bool train) {
  require(begin_layer <= layers_.size(),
          "Sequential::forward_from: layer index out of range");
  for (std::size_t i = begin_layer; i < layers_.size(); ++i) {
    h = layers_[i]->forward(std::move(h), train);
  }
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::state_tensors() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* t : layer->state_tensors()) out.push_back(t);
  }
  return out;
}

std::string Sequential::name() const {
  return "Sequential(" + std::to_string(layers_.size()) + " layers)";
}

Shape Sequential::output_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

Layer& Sequential::layer(std::size_t i) {
  require(i < layers_.size(), "Sequential::layer: index out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  require(i < layers_.size(), "Sequential::layer: index out of range");
  return *layers_[i];
}

ParamKind Sequential::weight_kind(std::size_t i) const {
  require(i < weight_kinds_.size(),
          "Sequential::weight_kind: index out of range");
  return weight_kinds_[i];
}

std::size_t Sequential::num_parameters() {
  std::size_t total = 0;
  for (Param* p : params()) total += p->value.numel();
  return total;
}

std::vector<int> Sequential::predict(const Tensor& x) {
  Tensor logits = forward(x, /*train=*/false);
  require(logits.rank() == 2, "Sequential::predict: output must be [N,C]");
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  std::vector<int> out(batch);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    out[n] = static_cast<int>(
        std::max_element(row, row + classes) - row);
  }
  return out;
}

double Sequential::accuracy(const Tensor& x, const std::vector<int>& labels) {
  require(x.dim(0) == labels.size(),
          "Sequential::accuracy: batch/label count mismatch");
  const std::vector<int> preds = predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

std::string Sequential::summary() {
  std::ostringstream os;
  os << "Sequential with " << layers_.size() << " layers, "
     << num_parameters() << " parameters\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << "  [" << i << "] " << layers_[i]->name() << '\n';
  }
  return os.str();
}

}  // namespace safelight::nn
