// Layer abstraction for the from-scratch CNN stack.
//
// Every layer implements forward (with a train flag for layers that behave
// differently at training time) and backward (must be called after a
// forward(train=true) on the same input). Parameters are exposed through
// Param handles; the accelerator mapping distinguishes conv weights (mapped
// onto the CONV block's MRs), linear weights (FC block) and electronic-domain
// parameters (biases, batch-norm — never mapped onto MRs, hence immune to MR
// attacks, exactly as in the paper's weight-stationary mapping).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace safelight::nn {

/// What kind of compute a parameter participates in; drives MR mapping.
enum class ParamKind {
  kConvWeight,    // mapped to the CONV block MR banks
  kLinearWeight,  // mapped to the FC block MR banks
  kElectronic,    // bias / batch-norm / other parameters kept electronic
};

/// A trainable tensor with its gradient accumulator.
struct Param {
  std::string name;
  ParamKind kind = ParamKind::kElectronic;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, ParamKind k, Tensor v)
      : name(std::move(n)), kind(k), value(std::move(v)),
        grad(Tensor::zeros(value.shape())) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;

  /// Computes the layer output. When `train` is true, state needed by
  /// backward (inputs, masks, statistics) is cached. `x` is a sink: callers
  /// that no longer need the activation std::move it in, and elementwise
  /// layers then work in its storage at inference instead of copying it.
  virtual Tensor forward(Tensor x, bool train) = 0;

  /// Propagates the loss gradient. Must follow forward(train=true);
  /// accumulates into each Param::grad and returns dL/dx.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (possibly empty). Pointers remain valid for the
  /// lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable persistent state (e.g. batch-norm running statistics)
  /// that must be saved/restored together with the parameters.
  virtual std::vector<Tensor*> state_tensors() { return {}; }

  /// Diagnostic name, e.g. "Conv2d(3->16,k3,s1,p1)".
  virtual std::string name() const = 0;

  /// Output shape for a given input shape (batch dim included).
  virtual Shape output_shape(const Shape& in) const = 0;

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }

 protected:
  Layer() = default;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Kaiming-He normal initialization: N(0, sqrt(2 / fan_in)).
void kaiming_init(Tensor& w, std::size_t fan_in, Rng& rng);

}  // namespace safelight::nn
