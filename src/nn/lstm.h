// LSTM layer with full backpropagation-through-time. The hidden states h_t
// are the "unit behaviors" that DeepBase inspects (paper §3: behaviors are
// unit activations per input symbol).

#pragma once

#include <span>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace deepbase {

/// \brief Per-sequence forward cache needed by Backward().
struct LstmCache {
  Matrix inputs;   ///< T × in
  Matrix gates;    ///< T × 4h, post-activation [i f o g]
  Matrix cells;    ///< T × h, c_t
  Matrix hiddens;  ///< T × h, h_t
  Matrix tanh_c;   ///< T × h, tanh(c_t)
};

/// \brief The most records the step kernel (nn/lstm.cc) keeps in registers
/// at once: a tile of more records is stepped as successive register tiles
/// of this many. The extractors hand the pool tiles of at most this size.
inline constexpr size_t kLstmTileRecords = 2;

/// \brief A tile of equal-length records, by their symbol ids.
using RecordTile = std::span<const std::vector<int>* const>;

/// \brief One LSTM layer. It runs one record, or a tile of equal-length
/// records stepped through time in lockstep, through one step kernel.
///
/// Gate layout in the 4h dimension is [input | forget | output | candidate].
/// Initial state is zero (records are independent windows).
class LstmLayer {
 public:
  LstmLayer(size_t input_dim, size_t hidden_dim, Rng* rng);

  size_t input_dim() const { return input_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

  /// \brief Run the sequence; returns T×h hidden states. If `cache` is
  /// non-null it is filled for a later Backward().
  Matrix Forward(const Matrix& inputs, LstmCache* cache) const;

  /// \brief Like Forward but inputs are one-hot token ids (row lookup into
  /// Wx, avoiding the dense product). `cache->inputs` stays empty; pass the
  /// same ids to BackwardIds.
  Matrix ForwardIds(const std::vector<int>& ids, LstmCache* cache) const;

  /// \brief Forward for a tile of `records` equal-length records stepped
  /// in lockstep, with no cache. `inputs` holds them record-major (record
  /// r's T steps are rows [r*T, (r+1)*T)), and so does the returned
  /// (records*T)×h matrix. Each record's states are bitwise those Forward
  /// returns for it alone.
  Matrix ForwardTile(const Matrix& inputs, size_t records) const;
  /// \brief ForwardTile over the one-hot ids of a tile of records.
  Matrix ForwardIdsTile(RecordTile tile) const;

  /// \brief BPTT. `dh` is dLoss/dh_t (T×h). Accumulates parameter grads
  /// into this layer's grad buffers and writes dLoss/dinputs if non-null.
  void Backward(const LstmCache& cache, const Matrix& dh,
                Matrix* dinputs) const;

  /// \brief BPTT for ForwardIds; gradient w.r.t. one-hot inputs lands
  /// directly in the Wx rows of the seen ids.
  void BackwardIds(const std::vector<int>& ids, const LstmCache& cache,
                   const Matrix& dh) const;

  /// \brief Total loss gradient at each hidden state, dL/dh_t (T×h),
  /// including the recurrent contribution from future timesteps — the
  /// "gradient of the activations" behavior some DNI papers inspect
  /// instead of the activation magnitude (paper §3). Does not touch the
  /// parameter gradient buffers. If `dinputs` is non-null it receives
  /// dL/dinputs for propagation into a lower layer.
  Matrix HiddenGradients(const LstmCache& cache, const Matrix& dh,
                         Matrix* dinputs = nullptr) const;

  /// \brief Parameter and gradient matrices, in a fixed order for Adam.
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Grads() const;
  void ZeroGrads();

  Matrix wx, wh, b;  ///< in×4h, h×4h, 1×4h

 private:
  // The time loop over a tile of `records` records of T steps each, by
  // ids (layer 0) or input rows: the step kernel, then the gate step per
  // record. A cache is filled only for a single record.
  Matrix Run(size_t records, size_t T, const int* ids, const Matrix* inputs,
             LstmCache* cache) const;
  // Common BPTT returning d(pre-activations) (T×4h) for the caller to
  // propagate into Wx / inputs. When `dh_total_out` is non-null it receives
  // the total dL/dh_t; when `accumulate_grads` is false the parameter
  // gradient buffers are left untouched (read-only inspection mode).
  Matrix BackwardCore(const LstmCache& cache, const Matrix& dh,
                      Matrix* dh_total_out = nullptr,
                      bool accumulate_grads = true) const;

  size_t input_dim_, hidden_dim_;
  mutable Matrix dwx_, dwh_, db_;
};

/// \brief The gate step of one timestep of units [0, hidden): z holds the
/// 4h pre-activations [i f o g] and receives the gates; cprev is c[t-1]
/// (it may alias c); writes c[t], tanh(c[t]) and h[t]. Sigmoid and tanh
/// come from one polynomial, one vector lane per unit, so a unit's outputs
/// depend only on its own inputs. The layer runs it per record after the
/// step kernel; the differential tests run it after their reference
/// products.
void LstmGateStep(float* z, const float* cprev, float* c, float* tc,
                  float* h, size_t hidden);

/// \brief Copy the states of `units` out of per-layer state matrices of
/// equal row counts R (unit u is column u % h of layers[u / h]) into rows
/// [row0, row0 + R) of `out`, whose column j receives unit units[j]. The
/// models hand a record's, or a tile's, selected units to an extractor's
/// block this way, with no per-record matrix in between.
void WriteUnits(const std::vector<Matrix>& layers,
                const std::vector<int>& units, Matrix* out, size_t row0);

/// \brief Read a model file's weights: one WriteMatrix record per entry of
/// `shapes` (rows, cols), in order, each required to have that shape
/// (Invalid otherwise). Model Load reads every weight before it builds the
/// model, so it never allocates from header sizes the file does not hold.
Result<std::vector<Matrix>> ReadWeights(
    codec::Reader* in, const std::vector<std::pair<size_t, size_t>>& shapes);

}  // namespace deepbase
