// The LSTM layer's forward as it was before the step kernel, for bitwise
// differential tests. RunGates, Forward and ForwardIds are the library's
// loops before the kernel, kept as they were: the layer-0 pre-activations
// Wx[id] + b, the upper layers' input product through MatMul and then the
// bias through AddRowBroadcast, and the recurrent product one row update
// per k through vec::AddScaledSpan (k ascending, a zero h_k skipped). Each
// step then runs the library's gate step, which the kernel left as it
// was. The kernel must reproduce every state and every LstmCache matrix
// bit for bit.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "nn/lstm.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace deepbase::oracle {

/// \brief The time loop once the per-step pre-activation rows are
/// computed: adds h[t-1]·Wh row by row, then runs the gate step.
inline Matrix RunGates(const LstmLayer& layer, size_t T, Matrix preact,
                       LstmCache* cache) {
  const Matrix& wh = layer.wh;
  const size_t h = layer.hidden_dim();
  Matrix hiddens(T, h), cells(T, h), tanh_c(T, h);
  const Matrix c_zero(1, h);
  for (size_t t = 0; t < T; ++t) {
    float* z = preact.row_data(t);
    // Add recurrent contribution h_{t-1} * Wh.
    if (t > 0) {
      const float* hp = hiddens.row_data(t - 1);
      for (size_t k = 0; k < h; ++k) {
        const float hv = hp[k];
        if (hv == 0.0f) continue;
        vec::AddScaledSpan(z, wh.row_data(k), hv, 4 * h);
      }
    }
    LstmGateStep(z, t > 0 ? cells.row_data(t - 1) : c_zero.row_data(0),
                 cells.row_data(t), tanh_c.row_data(t), hiddens.row_data(t),
                 h);
  }
  if (cache) {
    cache->gates = std::move(preact);
    cache->cells = std::move(cells);
    cache->tanh_c = std::move(tanh_c);
    cache->hiddens = hiddens;
  }
  return hiddens;
}

/// \brief One sequence of dense inputs (T × in): MatMul, then the bias.
inline Matrix Forward(const LstmLayer& layer, const Matrix& inputs,
                      LstmCache* cache) {
  const size_t T = inputs.rows();
  Matrix preact = MatMul(inputs, layer.wx);
  preact.AddRowBroadcast(layer.b);
  if (cache) cache->inputs = inputs;
  return RunGates(layer, T, std::move(preact), cache);
}

/// \brief One sequence of one-hot ids: the Wx row plus the bias.
inline Matrix ForwardIds(const LstmLayer& layer, const std::vector<int>& ids,
                         LstmCache* cache) {
  const size_t T = ids.size();
  const size_t hidden = layer.hidden_dim();
  Matrix preact(T, 4 * hidden);
  for (size_t t = 0; t < T; ++t) {
    const float* wrow = layer.wx.row_data(ids[t]);
    float* z = preact.row_data(t);
    for (size_t j = 0; j < 4 * hidden; ++j) z[j] = wrow[j] + layer.b(0, j);
  }
  return RunGates(layer, T, std::move(preact), cache);
}

/// \brief A stack of layers over one record's ids: each layer's states,
/// the first layer first, and each layer's cache when `caches` is
/// non-null.
inline std::vector<Matrix> ForwardStack(const std::vector<LstmLayer>& layers,
                                        const std::vector<int>& ids,
                                        std::vector<LstmCache>* caches) {
  if (caches) caches->resize(layers.size());
  std::vector<Matrix> states;
  states.push_back(
      ForwardIds(layers[0], ids, caches ? &(*caches)[0] : nullptr));
  for (size_t l = 1; l < layers.size(); ++l) {
    states.push_back(Forward(layers[l], states.back(),
                             caches ? &(*caches)[l] : nullptr));
  }
  return states;
}

}  // namespace deepbase::oracle
