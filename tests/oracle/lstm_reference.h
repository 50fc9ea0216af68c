// A deliberately naive LSTM forward for differential tests: plain loops in
// double precision on one thread, std::exp and std::tanh, and nothing
// shared with the library's kernels. Weights are read from a saved model
// file, so the reference sees exactly the parameters the model runs with.
//
// Layout (the library's): Wx is in × 4h, Wh is h × 4h, b is 1 × 4h, and
// the 4h gate columns are [input | forget | output | candidate]. The
// initial hidden and cell states are zero.

#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "util/codec.h"

namespace deepbase::oracle {

/// T rows of doubles.
using Rows = std::vector<std::vector<double>>;

/// \brief A model file (LstmLm or Seq2Seq): its 28-byte header (a u32
/// magic and three u64 dimensions) and every weight matrix after it, in
/// file order.
struct ModelFile {
  std::string header;
  std::vector<Matrix> weights;
};

inline ModelFile ReadModelFile(const std::string& path) {
  ModelFile file;
  Result<codec::MappedFile> mapped = codec::MapFile(path);
  if (!mapped.ok()) return file;
  codec::Reader in(mapped->bytes);
  file.header = in.Bytes(28);
  while (in.remaining() > 0) {
    Result<Matrix> w = ReadMatrix(&in);
    if (!w.ok()) break;
    file.weights.push_back(std::move(*w));
  }
  return file;
}

inline void WriteModelFile(const std::string& path, const ModelFile& file) {
  codec::Writer out;
  out.Bytes(file.header);
  for (const Matrix& w : file.weights) WriteMatrix(w, &out);
  (void)codec::WriteFile(path, out.bytes());
}

/// \brief One-hot rows of `ids` over a `vocab`-symbol input.
inline Rows OneHot(const std::vector<int>& ids, size_t vocab) {
  Rows rows(ids.size(), std::vector<double>(vocab, 0.0));
  for (size_t t = 0; t < ids.size(); ++t) rows[t][ids[t]] = 1.0;
  return rows;
}

/// \brief The hidden states (T × h) of one LSTM layer over `inputs`.
inline Rows LstmForward(const Matrix& wx, const Matrix& wh, const Matrix& b,
                        const Rows& inputs) {
  const size_t h = wh.rows();
  Rows out;
  std::vector<double> hprev(h, 0.0), cprev(h, 0.0), z(4 * h);
  for (const std::vector<double>& x : inputs) {
    for (size_t col = 0; col < 4 * h; ++col) {
      double acc = b(0, col);
      for (size_t k = 0; k < x.size(); ++k) acc += x[k] * wx(k, col);
      for (size_t k = 0; k < h; ++k) acc += hprev[k] * wh(k, col);
      z[col] = acc;
    }
    auto sigmoid = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
    std::vector<double> hnow(h);
    for (size_t j = 0; j < h; ++j) {
      const double i = sigmoid(z[j]), f = sigmoid(z[h + j]),
                   o = sigmoid(z[2 * h + j]), g = std::tanh(z[3 * h + j]);
      cprev[j] = f * cprev[j] + i * g;
      hnow[j] = o * std::tanh(cprev[j]);
    }
    hprev = hnow;
    out.push_back(std::move(hnow));
  }
  return out;
}

/// \brief A stack of layers over one-hot `ids`: each layer's states, the
/// first layer first. `weights` holds (Wx, Wh, b) per layer, in order.
inline std::vector<Rows> StackForward(const std::vector<Matrix>& weights,
                                      size_t num_layers,
                                      const std::vector<int>& ids,
                                      size_t vocab) {
  std::vector<Rows> layers;
  Rows input = OneHot(ids, vocab);
  for (size_t l = 0; l < num_layers; ++l) {
    layers.push_back(LstmForward(weights[3 * l], weights[3 * l + 1],
                                 weights[3 * l + 2], input));
    input = layers.back();
  }
  return layers;
}

}  // namespace deepbase::oracle
