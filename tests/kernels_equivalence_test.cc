// SIMD/scalar kernel equivalence and merge bit-identity.
//
// The measure kernels (measures/independent.cc) map one vector lane to
// one unit and walk rows in order, so a unit scored inside a SIMD panel
// performs exactly the additions of the scalar tail loop — the
// lane-vs-tail tests here place identical data in a panel column and a
// tail column (cols > 16 with duplicated columns) and require bitwise
// equal scores, which in a DEEPBASE_SIMD build pins the vector path
// against the in-library scalar path directly. A scalar-reference test
// re-derives Pearson from plain double loops as an independent check.
//
// The SGD probes (measures/probe_kernel.h) put heads, classes and hidden
// units on vector lanes: every weight, F1 checkpoint and error estimate
// must equal the one-head-at-a-time loops of
// tests/oracle/probe_reference.h bit for bit, a merged head must equal its
// solo model, and a head in the scalar tail its twin in a lane.
//
// The order-statistics kernel (measures/order_stats.h) calibrates
// Jaccard, mutual information and multivariate MI: their thresholds,
// edges and medians must equal the gather-and-sort loops of
// tests/oracle/calibration_reference.h as floats, and their scores bit
// for bit, over ragged row and unit counts, ties, ±0, ±inf and
// subnormals.
//
// The shard-invariance tests run the full engine at num_shards {1, 3, 8}
// over several passes and require byte-identical serialized tables for
// the kBitExact moment-sum measures — the pairwise-tree merge contract —
// materialized and streaming, and beside sequential-lane work (SGD pairs
// and merged composites). scripts/check.sh runs them under TSan too.
//
// Cross-lane reductions (Matrix::Sum, MatMul, Softmax in
// tensor/matrix.cc) are the one place SIMD re-associates; their
// documented tolerance is pinned here too.
//
// The LSTM gate step (nn/lstm.cc) evaluates sigmoid and tanh one lane per
// unit and pads a short tail into a full vector: units that share weights
// must get the same bits in every lane, in the tail, and at every hidden
// size; NaN must propagate; and saturating pre-activations must give
// gates in range, no less accurate than the std::exp / std::tanh formula.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/extractors.h"
#include "measures/independent.h"
#include "measures/logreg.h"
#include "measures/mlp_probe.h"
#include "measures/multivariate_mi.h"
#include "measures/order_stats.h"
#include "measures/scores.h"
#include "nn/lstm.h"
#include "tensor/simd.h"
#include "tests/oracle/calibration_reference.h"
#include "tests/oracle/probe_reference.h"
#include "util/codec.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// 18 units: one full 16-lane panel plus a 2-unit scalar tail. Columns 16
// and 17 duplicate columns 5 and 11, so every measure must score the
// (panel, tail) twins bitwise equal.
constexpr size_t kUnits = 18;
constexpr size_t kTwinA = 5, kTwinB = 11;

Matrix TwinBlock(size_t rows, Rng* rng) {
  Matrix m(rows, kUnits);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < 16; ++c) {
      m(r, c) = static_cast<float>(rng->Normal());
    }
    m(r, 16) = m(r, kTwinA);
    m(r, 17) = m(r, kTwinB);
  }
  return m;
}

std::vector<float> RandomHyp(size_t rows, Rng* rng) {
  std::vector<float> hyp(rows);
  for (float& v : hyp) v = rng->Bernoulli(0.4) ? 1.0f : 0.0f;
  return hyp;
}

template <typename MeasureT>
void ExpectTwinColumnsScoreEqual(MeasureT* measure) {
  Rng rng(421);
  // Ragged block sizes so the row loop hits every panel remainder.
  for (size_t rows : {33u, 16u, 7u}) {
    Matrix block = TwinBlock(rows, &rng);
    std::vector<float> hyp = RandomHyp(rows, &rng);
    measure->ProcessBlock(block, hyp);
  }
  const MeasureScores s = measure->Scores();
  ASSERT_EQ(s.unit_scores.size(), kUnits);
  EXPECT_EQ(s.unit_scores[16], s.unit_scores[kTwinA])
      << "panel lane and scalar tail disagree";
  EXPECT_EQ(s.unit_scores[17], s.unit_scores[kTwinB])
      << "panel lane and scalar tail disagree";
}

TEST(KernelLaneVsTailTest, PearsonPanelLaneEqualsScalarTail) {
  PearsonMeasure m(kUnits);
  ExpectTwinColumnsScoreEqual(&m);
}

TEST(KernelLaneVsTailTest, DiffMeansPanelLaneEqualsScalarTail) {
  DiffMeansMeasure m(kUnits);
  ExpectTwinColumnsScoreEqual(&m);
}

TEST(KernelLaneVsTailTest, JaccardPanelLaneEqualsScalarTail) {
  JaccardMeasure m(kUnits);
  ExpectTwinColumnsScoreEqual(&m);
}

TEST(KernelLaneVsTailTest, MutualInfoPanelLaneEqualsScalarTail) {
  MutualInfoMeasure m(kUnits, /*num_classes=*/2);
  ExpectTwinColumnsScoreEqual(&m);
}

// ------------------------------------------------------------------
// The probe kernel (measures/probe_kernel.h): one vector lane per head,
// class or hidden unit, heads shorter than a vector in a scalar tail.
// Every weight, F1 checkpoint and error estimate must equal the
// heads-outside-units loops of tests/oracle/probe_reference.h bit for bit.
// ------------------------------------------------------------------

uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Head (class, hidden) counts: below one vector, one short of it, exactly
// one, one plus a 2-wide tail, and two plus a 1-wide tail at 16 lanes.
std::vector<size_t> ProbeWidths(size_t min_width) {
  std::vector<size_t> widths;
  for (size_t w : {size_t{1}, size_t{3}, vec::kFloatLanes - 1,
                   vec::kFloatLanes, vec::kFloatLanes + 2, size_t{33}}) {
    if (w >= min_width &&
        std::find(widths.begin(), widths.end(), w) == widths.end()) {
      widths.push_back(w);
    }
  }
  return widths;
}

constexpr size_t kProbeUnits = 19;
// Few enough held-out rows that the run passes the cap: 15 blocks of
// 33, 16 and 7 rows hold out 56 rows.
constexpr size_t kProbeValCap = 40;
constexpr size_t kProbeBlocks = 15;

size_t ProbeBlockRows(size_t block) {
  static constexpr size_t kRows[] = {33, 16, 7};
  return kRows[block % 3];
}

Matrix ProbeUnits(size_t rows, Rng* rng) {
  Matrix m(rows, kProbeUnits);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t u = 0; u < kProbeUnits; ++u) {
      m(r, u) = static_cast<float>(rng->Normal());
    }
  }
  return m;
}

// Head h is positive when unit h % units plus noise is: learnable, and
// different from head to head.
Matrix ProbeHyps(const Matrix& units, size_t heads, Rng* rng) {
  Matrix hyps(units.rows(), heads);
  for (size_t r = 0; r < units.rows(); ++r) {
    for (size_t h = 0; h < heads; ++h) {
      const double v = units(r, h % kProbeUnits) + 0.5 * rng->Normal();
      hyps(r, h) = v > 0 ? 1.0f : 0.0f;
    }
  }
  return hyps;
}

void ExpectScoresBitwiseEqual(const MeasureScores& got,
                              const MeasureScores& want,
                              const std::string& where) {
  ASSERT_EQ(got.unit_scores.size(), want.unit_scores.size()) << where;
  for (size_t u = 0; u < got.unit_scores.size(); ++u) {
    ASSERT_EQ(Bits(got.unit_scores[u]), Bits(want.unit_scores[u]))
        << where << ", unit " << u;
  }
  ASSERT_EQ(Bits(got.group_score), Bits(want.group_score)) << where;
}

LogRegOptions ProbeLogRegOptions() {
  LogRegOptions opts;
  opts.val_cap = kProbeValCap;
  opts.l1 = 1e-3f;
  opts.l2 = 1e-4f;
  return opts;
}

TEST(ProbeKernelTest, MergedLogRegMatchesHeadsOutsideUnitsLoop) {
  for (size_t heads : ProbeWidths(1)) {
    MergedLogRegMeasure merged(kProbeUnits, heads, ProbeLogRegOptions());
    oracle::MergedLogReg reference(kProbeUnits, heads, ProbeLogRegOptions());
    for (size_t h = 0; h < heads; ++h) {
      ExpectScoresBitwiseEqual(merged.ScoresFor(h), reference.ScoresFor(h),
                               "before any block");
    }
    Rng rng(heads);
    for (size_t b = 0; b < kProbeBlocks; ++b) {
      const Matrix units = ProbeUnits(ProbeBlockRows(b), &rng);
      const Matrix hyps = ProbeHyps(units, heads, &rng);
      merged.ProcessBlock(units, hyps);
      reference.ProcessBlock(units, hyps);
      for (size_t h = 0; h < heads; ++h) {
        const std::string where = "heads " + std::to_string(heads) +
                                  ", block " + std::to_string(b) +
                                  ", head " + std::to_string(h);
        ExpectScoresBitwiseEqual(merged.ScoresFor(h), reference.ScoresFor(h),
                                 where);
        ASSERT_EQ(Bits(merged.ErrorEstimate(h)),
                  Bits(reference.ErrorEstimate(h)))
            << where;
      }
    }
    EXPECT_GT(merged.ScoresFor(0).group_score, 0.5f) << "heads " << heads;
  }
}

TEST(ProbeKernelTest, MulticlassLogRegMatchesClassesOutsideUnitsLoop) {
  for (size_t classes : ProbeWidths(2)) {
    const int k = static_cast<int>(classes);
    MulticlassLogRegMeasure probe(kProbeUnits, k, ProbeLogRegOptions());
    oracle::MulticlassLogReg reference(kProbeUnits, k, ProbeLogRegOptions());
    ExpectScoresBitwiseEqual(probe.Scores(), reference.Scores(),
                             "before any block");
    Rng rng(100 + classes);
    for (size_t b = 0; b < kProbeBlocks; ++b) {
      const Matrix units = ProbeUnits(ProbeBlockRows(b), &rng);
      // The class is the first unit's value binned into k equal slices of
      // [-2, 2], clamped.
      std::vector<float> labels(units.rows());
      for (size_t r = 0; r < units.rows(); ++r) {
        const double slice = (units(r, 0) + 2.0) / 4.0 * classes;
        labels[r] = static_cast<float>(
            std::clamp(static_cast<int>(slice), 0, k - 1));
      }
      probe.ProcessBlock(units, labels);
      reference.ProcessBlock(units, labels);
      const std::string where = "classes " + std::to_string(classes) +
                                ", block " + std::to_string(b);
      ExpectScoresBitwiseEqual(probe.Scores(), reference.Scores(), where);
      ASSERT_EQ(Bits(probe.ErrorEstimate()), Bits(reference.ErrorEstimate()))
          << where;
      for (int c = 0; c < k; ++c) {
        ASSERT_EQ(Bits(probe.ClassPrecision(c)),
                  Bits(reference.ClassPrecision(c)))
            << where << ", class " << c;
        ASSERT_EQ(Bits(probe.ClassF1(c)), Bits(reference.ClassF1(c)))
            << where << ", class " << c;
        ASSERT_EQ(probe.ClassSupport(c), reference.ClassSupport(c))
            << where << ", class " << c;
      }
    }
  }
}

TEST(ProbeKernelTest, MlpProbeMatchesHiddenOutsideUnitsLoop) {
  for (size_t hidden : ProbeWidths(1)) {
    MlpProbeOptions opts;
    opts.hidden = hidden;
    opts.val_cap = kProbeValCap;
    MlpProbeMeasure probe(kProbeUnits, opts);
    oracle::MlpProbe reference(kProbeUnits, opts);
    ExpectScoresBitwiseEqual(probe.Scores(), reference.Scores(),
                             "before any block");
    Rng rng(200 + hidden);
    for (size_t b = 0; b < kProbeBlocks; ++b) {
      const Matrix units = ProbeUnits(ProbeBlockRows(b), &rng);
      const Matrix hyps = ProbeHyps(units, 1, &rng);
      std::vector<float> labels(units.rows());
      for (size_t r = 0; r < units.rows(); ++r) labels[r] = hyps(r, 0);
      probe.ProcessBlock(units, labels);
      reference.ProcessBlock(units, labels);
      const std::string where = "hidden " + std::to_string(hidden) +
                                ", block " + std::to_string(b);
      ExpectScoresBitwiseEqual(probe.Scores(), reference.Scores(), where);
      ASSERT_EQ(Bits(probe.ErrorEstimate()), Bits(reference.ErrorEstimate()))
          << where;
    }
  }
}

// Model merging is exact (paper §5.2.1): heads share no parameters, so a
// merged head, wherever it sits, trains the bits of its own solo model.
TEST(ProbeKernelTest, MergedHeadsEqualSoloModelsBitwise) {
  const size_t heads = vec::kFloatLanes + 2;
  MergedLogRegMeasure merged(kProbeUnits, heads, ProbeLogRegOptions());
  std::vector<std::unique_ptr<BinaryLogRegMeasure>> solo;
  for (size_t h = 0; h < heads; ++h) {
    solo.push_back(std::make_unique<BinaryLogRegMeasure>(
        kProbeUnits, ProbeLogRegOptions()));
  }
  Rng rng(31);
  for (size_t b = 0; b < kProbeBlocks; ++b) {
    const Matrix units = ProbeUnits(ProbeBlockRows(b), &rng);
    const Matrix hyps = ProbeHyps(units, heads, &rng);
    merged.ProcessBlock(units, hyps);
    for (size_t h = 0; h < heads; ++h) {
      std::vector<float> column(units.rows());
      for (size_t r = 0; r < units.rows(); ++r) column[r] = hyps(r, h);
      solo[h]->ProcessBlock(units, column);
    }
  }
  for (size_t h = 0; h < heads; ++h) {
    const std::string where = "head " + std::to_string(h);
    ExpectScoresBitwiseEqual(merged.ScoresFor(h), solo[h]->Scores(), where);
    EXPECT_EQ(Bits(merged.ErrorEstimate(h)), Bits(solo[h]->ErrorEstimate()))
        << where;
  }
}

// The logreg analogue of the twin-column tests above: two hypothesis
// columns duplicate earlier ones, the first twin lands in the scalar tail
// beside a vector-lane original, the second beside the last lane.
TEST(KernelLaneVsTailTest, LogRegHeadLaneEqualsScalarTail) {
  const size_t lanes = vec::kFloatLanes;
  const size_t heads = lanes + 2;
  const size_t twin_of[2] = {0, lanes - 1};
  MergedLogRegMeasure merged(kProbeUnits, heads, ProbeLogRegOptions());
  Rng rng(41);
  for (size_t b = 0; b < kProbeBlocks; ++b) {
    const Matrix units = ProbeUnits(ProbeBlockRows(b), &rng);
    Matrix hyps = ProbeHyps(units, heads, &rng);
    for (size_t r = 0; r < units.rows(); ++r) {
      hyps(r, lanes) = hyps(r, twin_of[0]);
      hyps(r, lanes + 1) = hyps(r, twin_of[1]);
    }
    merged.ProcessBlock(units, hyps);
  }
  for (size_t t = 0; t < 2; ++t) {
    const std::string where = "tail head " + std::to_string(lanes + t);
    ExpectScoresBitwiseEqual(merged.ScoresFor(lanes + t),
                             merged.ScoresFor(twin_of[t]), where);
    EXPECT_EQ(Bits(merged.ErrorEstimate(lanes + t)),
              Bits(merged.ErrorEstimate(twin_of[t])))
        << where;
  }
}

// Independent scalar re-derivation of Pearson: double sums accumulated
// per unit in row order (the exact accumulation the kernel promises),
// then the standard moment formula. One block, so no reduction tree is
// involved — this isolates the block kernel itself.
TEST(KernelReferenceTest, PearsonMatchesPlainDoubleLoops) {
  Rng rng(7);
  const size_t rows = 61;
  Matrix block = TwinBlock(rows, &rng);
  std::vector<float> hyp = RandomHyp(rows, &rng);

  PearsonMeasure m(kUnits);
  m.ProcessBlock(block, hyp);
  const MeasureScores s = m.Scores();

  double sy = 0, syy = 0;
  for (size_t r = 0; r < rows; ++r) {
    const double y = hyp[r];
    sy += y;
    syy += y * y;
  }
  for (size_t u = 0; u < kUnits; ++u) {
    double sx = 0, sxx = 0, sxy = 0;
    for (size_t r = 0; r < rows; ++r) {
      const double x = block(r, u);
      const double y = hyp[r];
      sx += x;
      sxx += x * x;
      sxy += x * y;
    }
    const double n = static_cast<double>(rows);
    const double cov = n * sxy - sx * sy;
    const double vx = n * sxx - sx * sx;
    const double vy = n * syy - sy * sy;
    const float expected =
        (vx <= 0 || vy <= 0)
            ? 0.0f
            : static_cast<float>(cov / std::sqrt(vx * vy));
    EXPECT_EQ(s.unit_scores[u], expected) << "unit " << u;
  }
}

// ------------------------------------------------------------------
// The order-statistics kernel (measures/order_stats.h) calibrates
// Jaccard's thresholds, MI's unit and numeric-hypothesis edges and
// multivariate MI's medians, and MI counts its bins from per-edge
// exceedance counts. Against the gather-and-sort loops and the per-row
// scatter of tests/oracle/calibration_reference.h, the calibrated values
// must be equal as floats and every score equal bit for bit. "As floats",
// because a selected zero may carry the other sign than the sort's: the
// kernel's keys rank −0 below +0 where the sort calls them equal, and no
// `x > e` can see the difference. NaN, which a float sort leaves
// unordered (so the reference sees none), ranks above +inf of either sign.
// ------------------------------------------------------------------

constexpr size_t kCalRows[] = {1, 2, 3, 17, 6144};
constexpr size_t kCalUnits[] = {1, 15, 16, 17, 33, 64};

// Column kinds cycle with the unit, so every lane of a panel and the
// scalar tail see each: normal values; ties (only ±1); a constant column;
// zeros of both signs among two values; ±inf among normal values;
// subnormals and zeros of both signs; a few small integers.
float CalibrationValue(size_t u, Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  switch (u % 7) {
    case 0:
      return static_cast<float>(rng->Normal());
    case 1:
      return rng->Bernoulli(0.5) ? 1.0f : -1.0f;
    case 2:
      return 0.25f;
    case 3: {
      const float pick[] = {0.0f, -0.0f, 1.5f, -2.0f};
      return pick[rng->UniformInt(4)];
    }
    case 4: {
      const uint64_t k = rng->UniformInt(8);
      return k == 0 ? inf : k == 1 ? -inf : static_cast<float>(rng->Normal());
    }
    case 5: {
      const float v = std::numeric_limits<float>::denorm_min() *
                      static_cast<float>(rng->UniformInt(5));
      return rng->Bernoulli(0.5) ? v : -v;
    }
    default:
      return static_cast<float>(rng->UniformInt(4));
  }
}

Matrix CalibrationBlock(size_t rows, size_t units, Rng* rng) {
  Matrix m(rows, units);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t u = 0; u < units; ++u) m(r, u) = CalibrationValue(u, rng);
  }
  return m;
}

// Class labels for num_classes >= 2; otherwise a numeric hypothesis with
// ties (a third of the rows read 0.5).
std::vector<float> CalibrationHyp(size_t rows, int num_classes, Rng* rng) {
  std::vector<float> hyp(rows);
  for (float& v : hyp) {
    if (num_classes >= 2) {
      v = static_cast<float>(
          rng->UniformInt(static_cast<uint64_t>(num_classes)));
    } else {
      v = rng->Bernoulli(0.33) ? 0.5f : static_cast<float>(rng->Normal());
    }
  }
  return hyp;
}

std::vector<float> ReadFloats(codec::Reader* r) {
  std::vector<float> v(r->U32());
  for (float& x : v) x = r->F32();
  return v;
}

// The calibrated values each measure serializes, read past the fields
// that precede them in its state.
std::vector<float> ThresholdsOf(const JaccardMeasure& m) {
  codec::Writer w;
  m.SerializeState(&w);
  codec::Reader r(w.bytes());
  r.U8(), r.U32(), r.F64(), r.U8();
  return ReadFloats(&r);
}

std::pair<std::vector<float>, std::vector<float>> EdgesOf(
    const MutualInfoMeasure& m) {
  codec::Writer w;
  m.SerializeState(&w);
  codec::Reader r(w.bytes());
  r.U8(), r.U32(), r.U32(), r.U32(), r.U8(), r.U8();
  std::vector<float> unit_edges = ReadFloats(&r);
  return {std::move(unit_edges), ReadFloats(&r)};
}

std::vector<float> MediansOf(const MultivariateMiMeasure& m) {
  codec::Writer w;
  m.SerializeState(&w);
  codec::Reader r(w.bytes());
  r.U8(), r.U32(), r.U32();
  for (uint32_t j = r.U32(); j > 0; --j) r.U64();
  r.U8();
  return ReadFloats(&r);
}

void ExpectEqualAsFloats(const std::vector<float>& got,
                         const std::vector<float>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i])
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// The calibration block of `rows` rows, then two ragged blocks counted
// against the calibrated values, into the measure and its reference.
// `calibrated` compares the calibrated values after the first block.
template <typename MeasureT, typename OracleT, typename Calibrated>
void ExpectMatchesReference(MeasureT* m, OracleT* o, size_t rows,
                            size_t units, int num_classes,
                            const Calibrated& calibrated,
                            const std::string& what) {
  Rng rng(rows * 131 + units);
  for (size_t block_rows : {rows, size_t{7}, size_t{33}}) {
    const Matrix block = CalibrationBlock(block_rows, units, &rng);
    const std::vector<float> hyp =
        CalibrationHyp(block_rows, num_classes, &rng);
    m->ProcessBlock(block, hyp);
    o->ProcessBlock(block, hyp);
    if (block_rows == rows) calibrated();
  }
  ExpectScoresBitwiseEqual(m->Scores(), o->Scores(), what);
}

std::string Shape(size_t rows, size_t units) {
  return "rows=" + std::to_string(rows) + " units=" + std::to_string(units);
}

TEST(CalibrationKernelTest, SelectEqualsSortedKeysBitwise) {
  Rng rng(61);
  for (size_t rows : kCalRows) {
    for (size_t units : kCalUnits) {
      const Matrix block = CalibrationBlock(rows, units, &rng);
      // Nondecreasing, with a repeat: tiles of 4, 3 and 1 ranks.
      const std::vector<size_t> ranks = {0,        rows / 4, rows / 4,
                                         rows / 3, rows / 2, (rows * 2) / 3,
                                         rows - 1, rows - 1};
      const size_t nr = ranks.size();
      std::vector<float> got(units * nr);
      order_stats::Select(block, ranks, got.data());
      for (size_t u = 0; u < units; ++u) {
        std::vector<uint32_t> keys(rows);
        std::vector<float> col(rows);
        for (size_t r = 0; r < rows; ++r) {
          keys[r] = order_stats::Key(block(r, u));
          col[r] = block(r, u);
        }
        std::sort(keys.begin(), keys.end());
        std::sort(col.begin(), col.end());
        for (size_t i = 0; i < nr; ++i) {
          const float v = got[u * nr + i];
          EXPECT_EQ(Bits(v), Bits(order_stats::FromKey(keys[ranks[i]])))
              << Shape(rows, units) << " unit " << u << " rank " << ranks[i];
          EXPECT_TRUE(v == col[ranks[i]])
              << Shape(rows, units) << " unit " << u << " rank " << ranks[i];
        }
      }
    }
  }
}

TEST(CalibrationKernelTest, NanOfEitherSignRanksAboveInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float neg_nan = std::copysign(nan, -1.0f);
  using order_stats::Key;
  EXPECT_GT(Key(nan), Key(inf));
  EXPECT_GT(Key(neg_nan), Key(inf));
  EXPECT_LT(Key(-inf), Key(-std::numeric_limits<float>::max()));
  EXPECT_LT(Key(-0.0f), Key(0.0f));
  EXPECT_LT(Key(0.0f), Key(std::numeric_limits<float>::denorm_min()));
  // 17 units, so 16 in a panel and one in the scalar tail; each column
  // holds the same five values in a rotated order.
  const float values[] = {neg_nan, inf, 1.0f, -inf, nan};
  constexpr size_t kRows = 5, kCols = 17;
  Matrix block(kRows, kCols);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t u = 0; u < kCols; ++u) block(r, u) = values[(r + u) % kRows];
  }
  const std::vector<size_t> ranks = {0, 1, 2, 3, 4};
  std::vector<float> got(kCols * ranks.size());
  order_stats::Select(block, ranks, got.data());
  for (size_t u = 0; u < kCols; ++u) {
    const float* g = &got[u * ranks.size()];
    EXPECT_EQ(g[0], -inf) << "unit " << u;
    EXPECT_EQ(g[1], 1.0f) << "unit " << u;
    EXPECT_EQ(g[2], inf) << "unit " << u;
    EXPECT_TRUE(std::isnan(g[3]) && std::isnan(g[4])) << "unit " << u;
  }
  // MaxBelow never counts NaN, and finds nothing below −inf.
  std::vector<float> bound(kCols, inf), below(kCols);
  order_stats::MaxBelow(block, bound.data(), below.data());
  for (float b : below) EXPECT_EQ(b, 1.0f);
  bound.assign(kCols, -inf);
  order_stats::MaxBelow(block, bound.data(), below.data());
  for (float b : below) EXPECT_EQ(b, -inf);
}

TEST(CalibrationKernelTest, JaccardMatchesSortReference) {
  for (size_t rows : kCalRows) {
    for (size_t units : kCalUnits) {
      JaccardMeasure m(units);
      oracle::Jaccard o(units);
      ExpectMatchesReference(
          &m, &o, rows, units, 2,
          [&] {
            ExpectEqualAsFloats(ThresholdsOf(m), o.thresholds(),
                                "thresholds " + Shape(rows, units));
          },
          "jaccard " + Shape(rows, units));
    }
  }
}

TEST(CalibrationKernelTest, MultivariateMiMatchesSortReference) {
  for (size_t rows : kCalRows) {
    for (size_t units : kCalUnits) {
      MultivariateMiMeasure m(units, 3);
      oracle::MultivariateMi o(units, 3);
      ExpectMatchesReference(
          &m, &o, rows, units, 3,
          [&] {
            ExpectEqualAsFloats(MediansOf(m), o.medians(),
                                "medians " + Shape(rows, units));
          },
          "multivariate_mi " + Shape(rows, units));
    }
  }
}

void ExpectMutualInfoMatches(size_t rows, size_t units, int num_classes,
                             int num_bins) {
  const std::string what = Shape(rows, units) +
                           " classes=" + std::to_string(num_classes) +
                           " bins=" + std::to_string(num_bins);
  MutualInfoMeasure m(units, num_classes, num_bins);
  oracle::MutualInfo o(units, num_classes, num_bins);
  ExpectMatchesReference(
      &m, &o, rows, units, num_classes,
      [&] {
        const auto [unit_edges, hyp_edges] = EdgesOf(m);
        ExpectEqualAsFloats(unit_edges, o.edges(), "edges " + what);
        ExpectEqualAsFloats(hyp_edges, o.hyp_edges(), "hyp edges " + what);
      },
      "mutual_info " + what);
}

TEST(CalibrationKernelTest, MutualInfoMatchesSortReference) {
  for (size_t rows : kCalRows) {
    for (size_t units : kCalUnits) ExpectMutualInfoMatches(rows, units, 2, 4);
  }
}

TEST(CalibrationKernelTest, MutualInfoBinsAndClassesMatchSortReference) {
  // Classes 0 is a numeric hypothesis, binned at its own quantile edges.
  for (int num_bins : {2, 4, 8, 16}) {
    for (int num_classes : {2, 3, 40, 0}) {
      for (size_t rows : {size_t{17}, size_t{6144}}) {
        ExpectMutualInfoMatches(rows, 33, num_classes, num_bins);
      }
    }
  }
}

// Feeding (empty block, block) must score exactly as (block) alone: an
// empty block counts nothing and leaves the calibration pending.
template <typename MeasureT>
void ExpectEmptyFirstBlockIgnored(const MeasureT& prototype, int classes) {
  constexpr size_t kCols = 33, kRows = 40;
  Rng rng(17);
  const Matrix block = CalibrationBlock(kRows, kCols, &rng);
  const std::vector<float> hyp = CalibrationHyp(kRows, classes, &rng);
  const Matrix empty(0, kCols);
  std::unique_ptr<Measure> after_empty = prototype.CloneState();
  std::unique_ptr<Measure> alone = prototype.CloneState();
  after_empty->ProcessBlock(empty, {});
  after_empty->ProcessBlock(block, hyp);
  alone->ProcessBlock(block, hyp);
  ExpectScoresBitwiseEqual(after_empty->Scores(), alone->Scores(),
                      "empty first block");
}

TEST(CalibrationKernelTest, EmptyFirstBlockLeavesCalibrationPending) {
  ExpectEmptyFirstBlockIgnored(JaccardMeasure(33), 2);
  ExpectEmptyFirstBlockIgnored(MutualInfoMeasure(33, 3), 3);
  ExpectEmptyFirstBlockIgnored(MutualInfoMeasure(33, 0), 0);
  ExpectEmptyFirstBlockIgnored(MultivariateMiMeasure(33, 2), 2);
}

// A hand-built mutual-information state of one unit, two classes and
// four bins with the given edges.
std::string MutualInfoState(const std::vector<float>& edges) {
  codec::Writer w;
  w.U8(static_cast<uint8_t>(measure_internal::StateKind::kMutualInfo));
  w.U32(1);  // units
  w.U32(2);  // classes
  w.U32(4);  // bins
  w.U8(0);   // categorical hypothesis
  w.U8(1);   // edges ready
  measure_internal::WriteVec(&w, edges);
  measure_internal::WriteVec(&w, std::vector<float>{});
  measure_internal::WriteVec(&w, std::vector<size_t>(8, 1));
  w.U64(8);
  return w.bytes();
}

bool DecodesAsMutualInfo(const std::vector<float>& edges) {
  const std::string bytes = MutualInfoState(edges);
  codec::Reader r(bytes);
  MutualInfoMeasure m(1, 2, 4);
  return m.DeserializeState(&r) && r.exhausted();
}

TEST(CalibrationKernelTest, MutualInfoStateRejectsEdgesOutOfKeyOrder) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Bins are counted as differences of per-edge exceedance counts, which
  // wrap unless the edges are nondecreasing with NaN only at the top.
  EXPECT_TRUE(DecodesAsMutualInfo({-0.5f, 0.5f, 1.0f}));
  EXPECT_TRUE(DecodesAsMutualInfo({0.5f, 0.5f, nan}));
  EXPECT_FALSE(DecodesAsMutualInfo({0.5f, -0.5f, 1.0f}));
  EXPECT_FALSE(DecodesAsMutualInfo({nan, 0.0f, 1.0f}));
}

// ------------------------------------------------------------------
// Merge bit-identity at shard counts {1, 3, 8}: the engine deals blocks
// to different lanes per shard count, but the pairwise tree reduces the
// same (occ, serial)-keyed entries either way.
// ------------------------------------------------------------------

class PlantedExtractor : public Extractor {
 public:
  PlantedExtractor() : Extractor("planted") {}
  size_t num_units() const override { return kUnits; }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        const uint32_t h =
            static_cast<uint32_t>(rec.ids[t]) * 2654435761u +
            static_cast<uint32_t>(t) * 40503u +
            static_cast<uint32_t>(unit_ids[j]) * 97u;
        const float noise = static_cast<float>(h % 1000) / 500.0f - 1.0f;
        out(t, j) = unit_ids[j] % 3 == 0 ? (is_a ? 1.0f : -1.0f) + noise
                                         : noise;
      }
    }
    return out;
  }
};

class TokenHyp : public HypothesisFn {
 public:
  explicit TokenHyp(std::string token)
      : HypothesisFn("is_" + token), token_(std::move(token)) {}
  std::vector<float> Eval(const Record& rec) const override {
    std::vector<float> out(rec.size(), 0.0f);
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec.tokens[i] == token_) out[i] = 1.0f;
    }
    return out;
  }

 private:
  std::string token_;
};

Dataset MakeDataset(size_t n_records) {
  Dataset ds(Vocab::FromChars("ab"), /*ns=*/8);
  Rng rng(99);
  for (size_t i = 0; i < n_records; ++i) {
    std::string text;
    for (size_t t = 0; t < 8; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
    ds.AddText(text);
  }
  return ds;
}

// Every table of a run at num_shards 3 and 8 must serialize exactly as at
// num_shards 1.
void ExpectShardInvariant(const std::vector<MeasureFactoryPtr>& measures,
                          const std::vector<HypothesisPtr>& hyps,
                          InspectOptions options) {
  PlantedExtractor extractor;
  const std::vector<ModelSpec> models = {AllUnitsGroup(&extractor)};
  Dataset ds = MakeDataset(96);
  options.block_size = 8;
  options.num_shards = 1;
  const std::string at1 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();
  for (size_t shards : {3u, 8u}) {
    options.num_shards = shards;
    EXPECT_EQ(Inspect(models, ds, measures, hyps, options).SerializeToString(),
              at1)
        << "num_shards=" << shards;
  }
}

TEST(ShardInvarianceTest, MomentMergesAreByteIdenticalAtShards138) {
  PlantedExtractor extractor;
  const std::vector<ModelSpec> models = {AllUnitsGroup(&extractor)};
  Dataset ds = MakeDataset(96);
  const std::vector<HypothesisPtr> hyps = {std::make_shared<TokenHyp>("a")};
  const std::vector<MeasureFactoryPtr> measures = {
      std::make_shared<CorrelationScore>("pearson"),
      std::make_shared<DiffMeansScore>()};

  InspectOptions options;
  options.block_size = 8;  // 12 blocks: every shard count gets real work
  options.early_stopping = false;
  options.passes = 2;  // occurrence keying must hold across passes
  options.num_shards = 1;
  const std::string at1 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();

  options.num_shards = 3;
  const std::string at3 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();

  options.num_shards = 8;
  const std::string at8 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();

  EXPECT_EQ(at1, at3);
  EXPECT_EQ(at1, at8);
}

TEST(ShardInvarianceTest, StreamingMomentMergesAreByteIdenticalAtShards138) {
  PlantedExtractor extractor;
  const std::vector<ModelSpec> models = {AllUnitsGroup(&extractor)};
  Dataset ds = MakeDataset(96);
  const std::vector<HypothesisPtr> hyps = {std::make_shared<TokenHyp>("a")};
  const std::vector<MeasureFactoryPtr> measures = {
      std::make_shared<CorrelationScore>("pearson"),
      std::make_shared<DiffMeansScore>()};

  InspectOptions options;
  options.block_size = 8;
  options.streaming = true;  // serials assigned in generation order
  options.early_stopping = false;
  options.passes = 1;
  options.num_shards = 1;
  const std::string at1 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();

  options.num_shards = 3;
  const std::string at3 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();

  options.num_shards = 8;
  const std::string at8 =
      Inspect(models, ds, measures, hyps, options).SerializeToString();

  EXPECT_EQ(at1, at3);
  EXPECT_EQ(at1, at8);

  // A second pass re-extracts with its own shuffle seed.
  options.passes = 2;
  ExpectShardInvariant(measures, hyps, options);
}

TEST(ShardInvarianceTest, SequentialLaneRunsAreByteIdenticalAtShards138) {
  // logreg_l1 runs on the sequential lane beside the shard lanes' pearson
  // — as individual pairs, or (model merging on, two binary hypotheses)
  // as one merged composite.
  const std::vector<MeasureFactoryPtr> measures = {
      std::make_shared<CorrelationScore>("pearson"),
      std::make_shared<LogRegressionScore>("L1")};
  const std::vector<HypothesisPtr> hyps = {std::make_shared<TokenHyp>("a"),
                                           std::make_shared<TokenHyp>("b")};
  for (bool streaming : {false, true}) {
    for (bool merging : {false, true}) {
      SCOPED_TRACE(std::string(streaming ? "streaming" : "materialized") +
                   (merging ? ", merged composite" : ", individual pairs"));
      InspectOptions options;
      options.streaming = streaming;
      options.model_merging = merging;
      options.early_stopping = false;
      options.passes = 2;
      ExpectShardInvariant(measures, hyps, options);
    }
  }
}

// ------------------------------------------------------------------
// The LSTM gate step: one lane per unit, the tail padded into a vector.
// ------------------------------------------------------------------

// A layer of `hidden` units that all share the same weights: every unit's
// gate columns read the same input weights and bias, and each unit's
// recurrent weights connect it to itself only, so every column of the
// hidden states is the same function of the ids.
LstmLayer SharedWeightLayer(size_t hidden) {
  constexpr size_t kInputs = 5;
  Rng rng(77);
  LstmLayer layer(kInputs, hidden, &rng);
  Rng shared(91);
  float in[kInputs][4], self[4], bias[4];
  for (size_t g = 0; g < 4; ++g) {
    for (size_t v = 0; v < kInputs; ++v) {
      in[v][g] = static_cast<float>(shared.Normal(0.0, 2.0));
    }
    self[g] = static_cast<float>(shared.Normal(0.0, 2.0));
    bias[g] = static_cast<float>(shared.Normal());
  }
  layer.wh.Fill(0.0f);
  for (size_t g = 0; g < 4; ++g) {
    for (size_t j = 0; j < hidden; ++j) {
      const size_t col = g * hidden + j;
      for (size_t v = 0; v < kInputs; ++v) layer.wx(v, col) = in[v][g];
      layer.wh(j, col) = self[g];
      layer.b(0, col) = bias[g];
    }
  }
  return layer;
}

TEST(GateStepTest, SharedWeightUnitsAreBitwiseEqualInEveryLaneAndTail) {
  std::vector<int> ids(48);
  Rng rng(5);
  for (int& id : ids) id = static_cast<int>(rng.UniformInt(5));
  const Matrix one = SharedWeightLayer(1).ForwardIds(ids, nullptr);
  // Every hidden size up to two full vectors plus a 3-unit tail.
  for (size_t hidden = 1; hidden <= 2 * vec::kFloatLanes + 3; ++hidden) {
    LstmCache cache;
    const Matrix states =
        SharedWeightLayer(hidden).ForwardIds(ids, &cache);
    for (size_t t = 0; t < ids.size(); ++t) {
      for (size_t j = 0; j < hidden; ++j) {
        ASSERT_EQ(Bits(states(t, j)), Bits(one(t, 0)))
            << "hidden " << hidden << ", unit " << j << ", step " << t;
        ASSERT_EQ(Bits(cache.cells(t, j)), Bits(cache.cells(t, 0)))
            << "hidden " << hidden << ", unit " << j << ", step " << t;
      }
    }
  }
}

TEST(GateStepTest, NanWeightYieldsNanUnit) {
  // At least one full vector and a tail of four (one unit of which stays
  // clean in the scalar build too).
  const size_t hidden = vec::kFloatLanes + 4;
  Rng rng(8);
  LstmLayer layer(3, hidden, &rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // A NaN in each gate's input weight (gate, unit), in lanes and the tail.
  const size_t last = hidden - 1;
  const std::vector<std::pair<size_t, size_t>> poisoned = {
      {0, 0}, {1, 1}, {2, last}, {3, last - 1}};
  for (const auto& [gate, unit] : poisoned) {
    layer.wx(0, gate * hidden + unit) = nan;
  }
  const Matrix states = layer.ForwardIds({0, 1, 2}, nullptr);
  for (size_t j = 0; j < hidden; ++j) {
    const bool is_poisoned =
        std::any_of(poisoned.begin(), poisoned.end(),
                    [j](const auto& p) { return p.second == j; });
    EXPECT_EQ(std::isnan(states(0, j)), is_poisoned) << "unit " << j;
  }
}

TEST(GateStepTest, SaturatingPreActivationsStayInRangeAndMatchLibm) {
  // Pre-activations over [-100, 100], with the clamp edges and tiny
  // values, fed one step at a time through the input weights (no
  // recurrence, no bias).
  std::vector<float> x;
  for (int i = -4096; i <= 4096; ++i) x.push_back(100.0f * i / 4096.0f);
  for (float v : {88.8f, 80.0f, 79.9f, 17.0f, 9.0f, 0.625f, 0.6249f, 1e-3f,
                  1e-7f, 0.0f}) {
    x.push_back(v);
    x.push_back(-v);
  }
  const size_t hidden = 2 * vec::kFloatLanes + 3;
  const size_t steps = (x.size() + 4 * hidden - 1) / (4 * hidden);
  x.resize(steps * 4 * hidden, 0.0f);
  Rng rng(3);
  LstmLayer layer(steps, hidden, &rng);
  layer.wh.Fill(0.0f);
  layer.b.Fill(0.0f);
  for (size_t t = 0; t < steps; ++t) {
    for (size_t col = 0; col < 4 * hidden; ++col) {
      layer.wx(t, col) = x[t * 4 * hidden + col];
    }
  }
  std::vector<int> ids(steps);
  for (size_t t = 0; t < steps; ++t) ids[t] = static_cast<int>(t);
  LstmCache cache;
  const Matrix states = layer.ForwardIds(ids, &cache);

  double err_sigmoid = 0, err_tanh = 0, libm_sigmoid = 0, libm_tanh = 0;
  for (size_t t = 0; t < steps; ++t) {
    for (size_t col = 0; col < 4 * hidden; ++col) {
      const float pre = x[t * 4 * hidden + col];
      const float gate = cache.gates(t, col);
      if (col < 3 * hidden) {
        ASSERT_TRUE(gate >= 0.0f && gate <= 1.0f) << pre << " -> " << gate;
        const double want = 1.0 / (1.0 + std::exp(-static_cast<double>(pre)));
        err_sigmoid = std::max(err_sigmoid, std::fabs(gate - want));
        libm_sigmoid = std::max(
            libm_sigmoid, std::fabs(1.0f / (1.0f + std::exp(-pre)) - want));
      } else {
        ASSERT_TRUE(gate >= -1.0f && gate <= 1.0f) << pre << " -> " << gate;
        const double want = std::tanh(static_cast<double>(pre));
        err_tanh = std::max(err_tanh, std::fabs(gate - want));
        libm_tanh = std::max(libm_tanh, std::fabs(std::tanh(pre) - want));
      }
    }
    for (size_t j = 0; j < hidden; ++j) {
      ASSERT_TRUE(std::fabs(cache.tanh_c(t, j)) <= 1.0f);
      ASSERT_TRUE(std::fabs(states(t, j)) <= 1.0f);
    }
  }
  EXPECT_LE(err_sigmoid, libm_sigmoid);
  EXPECT_LE(err_tanh, libm_tanh);
}

// ------------------------------------------------------------------
// Cross-lane reductions: the only kernels allowed to differ from scalar
// accumulation, up to FP reassociation. Pin the documented tolerance.
// ------------------------------------------------------------------

TEST(CrossLaneReductionTest, SumMatchesDoubleReferenceWithinTolerance) {
  Rng rng(17);
  Matrix m = Matrix::RandomNormal(123, 37, &rng);
  double reference = 0;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) reference += m(r, c);
  }
  EXPECT_NEAR(m.Sum(), static_cast<float>(reference),
              1e-4f * static_cast<float>(m.size()));
}

TEST(CrossLaneReductionTest, SoftmaxRowsSumToOneWithinUlps) {
  Rng rng(23);
  Matrix logits = Matrix::RandomNormal(19, 33, &rng, 0.0f, 3.0f);
  Matrix p = Softmax(logits);
  for (size_t r = 0; r < p.rows(); ++r) {
    float sum = 0;
    for (size_t c = 0; c < p.cols(); ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

}  // namespace
}  // namespace deepbase
