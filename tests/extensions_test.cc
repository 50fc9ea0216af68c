// Tests for the extension features: saliency analysis (§2.2), ablation
// verification (§4.4 variant), model serialization, and multivariate MI.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/extractors.h"
#include "data/translation_corpus.h"
#include "core/occlusion.h"
#include "core/saliency.h"
#include "measures/logreg.h"
#include "measures/mlp_probe.h"
#include "measures/multivariate_mi.h"
#include "nn/lstm_lm.h"
#include "nn/seq2seq.h"
#include "tensor/matrix.h"
#include "util/codec.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// Planted extractor: unit 0 fires exactly on 'a' (strength 1), unit 1 on
// 'b' (strength 0.5).
class PlantedExtractor : public Extractor {
 public:
  PlantedExtractor() : Extractor("planted") {}
  size_t num_units() const override { return 2; }
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      float all[2] = {rec.tokens[t] == "a" ? 1.0f : 0.0f,
                      rec.tokens[t] == "b" ? 0.5f : 0.0f};
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        out(t, j) = all[unit_ids[j]];
      }
    }
    return out;
  }
};

Dataset AbcDataset() {
  // Exactly five 'a' sites across the corpus, so a top-5 saliency query on
  // the 'a' detector must return all of them and nothing else.
  Dataset ds(Vocab::FromChars("abc"), 6);
  ds.AddText("abcaba");
  ds.AddText("cacabc");
  ds.AddText("bbbbbb");
  return ds;
}

TEST(SaliencyTest, TopSitesAreTheTriggerToken) {
  PlantedExtractor ex;
  Dataset ds = AbcDataset();
  SaliencyResult res = TopKSaliency(ex, ds, /*unit=*/0, /*k=*/5);
  ASSERT_EQ(res.top.size(), 5u);
  for (const auto& item : res.top) {
    EXPECT_EQ(item.token, "a");
    EXPECT_FLOAT_EQ(item.behavior, 1.0f);
  }
  EXPECT_EQ(res.token_counts.at("a"), 5u);
}

TEST(SaliencyTest, SignedVsAbsoluteRanking) {
  PlantedExtractor ex;
  Dataset ds = AbcDataset();
  // Unit 1 fires on 'b' at 0.5; top-3 signed should be all 'b'.
  SaliencyResult res = TopKSaliency(ex, ds, 1, 3);
  for (const auto& item : res.top) EXPECT_EQ(item.token, "b");
}

TEST(SaliencyTest, GroupSaliencyAveragesUnits) {
  PlantedExtractor ex;
  Dataset ds = AbcDataset();
  SaliencyResult res = TopKGroupSaliency(ex, ds, {0, 1}, 4);
  // 'a' sites score 0.5 avg, 'b' sites 0.25, 'c' sites 0 -> top are 'a'.
  for (const auto& item : res.top) EXPECT_EQ(item.token, "a");
}

TEST(SaliencyTest, KLargerThanDataIsClamped) {
  PlantedExtractor ex;
  Dataset ds = AbcDataset();
  SaliencyResult res = TopKSaliency(ex, ds, 0, 1000);
  EXPECT_EQ(res.top.size(), ds.num_records() * ds.ns());
}

TEST(GradientExtractorTest, MatchesModelGradientsAndSelectsColumns) {
  Dataset ds(Vocab::FromChars("ab"), 6);
  ds.AddText("ababab");
  ds.AddText("bbaabb");
  LstmLm model(ds.vocab().size(), 5, 2, 21);
  LstmLmGradientExtractor ex("grad", &model);
  EXPECT_EQ(ex.num_units(), model.num_units());

  Matrix full = model.HiddenGradients(ds.record(0).ids);
  Matrix sel = ex.ExtractRecord(ds.record(0), {3, 7});
  ASSERT_EQ(sel.rows(), full.rows());
  ASSERT_EQ(sel.cols(), 2u);
  for (size_t t = 0; t < sel.rows(); ++t) {
    EXPECT_EQ(sel(t, 0), full(t, 3));
    EXPECT_EQ(sel(t, 1), full(t, 7));
  }
}

TEST(GradientExtractorTest, GradientSaliencyRunsEndToEnd) {
  // Saliency over gradient behaviors (paper §2.2: "This analysis may use
  // different behaviors, such as the unit activation or its gradient").
  Dataset ds(Vocab::FromChars("ab"), 8);
  for (int i = 0; i < 20; ++i) ds.AddText(i % 2 ? "abababab" : "babababa");
  LstmLm model(ds.vocab().size(), 8, 1, 9);
  for (int e = 0; e < 5; ++e) model.TrainEpoch(ds, 0.02f, 60 + e);
  LstmLmGradientExtractor ex("grad", &model);
  SaliencyResult res = TopKSaliency(ex, ds, /*unit=*/0, /*k=*/10,
                                    /*by_absolute=*/true);
  ASSERT_EQ(res.top.size(), 10u);
  // Final positions carry zero gradient, so no top site is the last symbol.
  for (const auto& item : res.top) {
    EXPECT_LT(item.position, ds.ns() - 1);
  }
}

Dataset PatternDataset() {
  Dataset ds(Vocab::FromChars("ab"), 12);
  for (int i = 0; i < 30; ++i) ds.AddText("abababababab");
  return ds;
}

TEST(AblationTest, AblatingNothingChangesNothing) {
  Dataset ds = PatternDataset();
  LstmLm model(ds.vocab().size(), 8, 2, 3);
  for (int e = 0; e < 8; ++e) model.TrainEpoch(ds, 0.02f, 10 + e);
  EXPECT_DOUBLE_EQ(model.Accuracy(ds), model.AccuracyWithAblation(ds, {}));
}

TEST(AblationTest, AblatingAllUnitsDestroysAccuracy) {
  Dataset ds = PatternDataset();
  LstmLm model(ds.vocab().size(), 8, 1, 3);
  for (int e = 0; e < 8; ++e) model.TrainEpoch(ds, 0.02f, 10 + e);
  const double full = model.Accuracy(ds);
  ASSERT_GT(full, 0.8);
  std::vector<size_t> all_units;
  for (size_t u = 0; u < model.num_units(); ++u) all_units.push_back(u);
  const double ablated = model.AccuracyWithAblation(ds, all_units);
  // With every unit's output severed the model predicts from the bias only.
  EXPECT_LT(ablated, full);
  EXPECT_LE(ablated, 0.6);
}

TEST(AblationTest, PartialAblationIsBetween) {
  Dataset ds = PatternDataset();
  LstmLm model(ds.vocab().size(), 8, 1, 4);
  for (int e = 0; e < 8; ++e) model.TrainEpoch(ds, 0.02f, 20 + e);
  const double full = model.Accuracy(ds);
  const double half = model.AccuracyWithAblation(ds, {0, 1, 2, 3});
  std::vector<size_t> all_units;
  for (size_t u = 0; u < model.num_units(); ++u) all_units.push_back(u);
  const double none = model.AccuracyWithAblation(ds, all_units);
  EXPECT_LE(half, full + 1e-9);
  EXPECT_GE(half, none - 1e-9);
}

TEST(MatrixSerializationTest, RoundTrip) {
  Rng rng(5);
  Matrix m = Matrix::RandomNormal(7, 11, &rng);
  codec::Writer out;
  WriteMatrix(m, &out);
  codec::Reader in(out.bytes());
  Result<Matrix> back = ReadMatrix(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(MaxAbsDiff(*back, m), 0.0f);
}

TEST(MatrixSerializationTest, TruncatedInputFails) {
  const std::string bytes = "short";
  codec::Reader in(bytes);
  EXPECT_FALSE(ReadMatrix(&in).ok());
}

TEST(MatrixSerializationTest, HeaderTheBytesDoNotHoldIsInvalid) {
  // Each header is followed by 8 payload bytes. Sizes are overflow-checked
  // and compared with what the reader still holds before anything is
  // allocated. The wrapping header comes first: it dies on a null store
  // where sizes are not checked, before the large allocations below it.
  const std::vector<std::pair<uint64_t, uint64_t>> headers = {
      {uint64_t{1} << 33, uint64_t{1} << 31},  // rows*cols wraps to 0
      {uint64_t{1} << 31, 2},  // 16 GiB of payload, 128 GiB padded
      {uint64_t{1} << 32, 1},  // 16 GiB
      {3, 4}};                 // 48 bytes
  const float payload[2] = {1.5f, -2.0f};
  auto encode = [&](uint64_t rows, uint64_t cols) {
    codec::Writer out;
    out.U64(rows);
    out.U64(cols);
    out.F32s(payload, 2);
    return out.Take();
  };
  for (const auto& [rows, cols] : headers) {
    const std::string bytes = encode(rows, cols);
    codec::Reader in(bytes);
    Result<Matrix> m = ReadMatrix(&in);
    ASSERT_FALSE(m.ok()) << rows << "x" << cols;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  // The bound is exact: a 1×2 header is held by the same 8 bytes.
  const std::string exact_bytes = encode(1, 2);
  codec::Reader exact_in(exact_bytes);
  Result<Matrix> exact = ReadMatrix(&exact_in);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ((*exact)(0, 1), -2.0f);
}

// A model file: magic, u64 header fields, then one WriteMatrix per weight.
void WriteModelFile(const std::string& path, uint32_t magic,
                    const std::vector<uint64_t>& header,
                    const std::vector<Matrix>& weights) {
  codec::Writer out;
  out.U32(magic);
  for (const uint64_t field : header) out.U64(field);
  for (const Matrix& w : weights) WriteMatrix(w, &out);
  ASSERT_TRUE(codec::WriteFile(path, out.bytes()).ok());
}

TEST(LstmLmSerializationTest, RejectsWeightsTheHeaderDoesNotDescribe) {
  const std::string path = "/tmp/deepbase_lm_shapes.bin";
  constexpr uint32_t kMagic = 0x44424C4D;  // "DBLM"
  // vocab 5, hidden 4, one layer: wx is 5×16, wh 4×16, b 1×16, wo 4×5,
  // bo 1×5.
  WriteModelFile(path, kMagic, {5, 4, 1},
                 {Matrix(5, 16), Matrix(4, 16), Matrix(1, 16), Matrix(4, 5),
                  Matrix(1, 5)});
  EXPECT_TRUE(LstmLm::Load(path).ok());
  // A 1×1 wx would load and abort the first HiddenStates call.
  WriteModelFile(path, kMagic, {5, 4, 1},
                 {Matrix(1, 1), Matrix(4, 16), Matrix(1, 16), Matrix(4, 5),
                  Matrix(1, 5)});
  Result<LstmLm> loaded = LstmLm::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // A 2^40-symbol vocabulary with no weights behind it: rejected before
  // the model is built from the header.
  WriteModelFile(path, kMagic, {uint64_t{1} << 40, 4, 1}, {});
  EXPECT_EQ(LstmLm::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Seq2SeqSerializationTest, RejectsWeightsTheHeaderDoesNotDescribe) {
  const std::string path = "/tmp/deepbase_s2s_shapes.bin";
  constexpr uint32_t kMagic = 0x44425332;  // "DBS2"
  // src 3, tgt 4, hidden 2 (8 gate columns): enc0, enc1, dec, wo, bo.
  std::vector<Matrix> weights = {
      Matrix(3, 8), Matrix(2, 8), Matrix(1, 8), Matrix(2, 8), Matrix(2, 8),
      Matrix(1, 8), Matrix(4, 8), Matrix(2, 8), Matrix(1, 8), Matrix(4, 4),
      Matrix(1, 4)};
  WriteModelFile(path, kMagic, {3, 4, 2}, weights);
  EXPECT_TRUE(Seq2Seq::Load(path).ok());
  weights[9] = Matrix(2, 4);  // wo must be 2h × tgt
  WriteModelFile(path, kMagic, {3, 4, 2}, weights);
  Result<Seq2Seq> loaded = Seq2Seq::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  WriteModelFile(path, kMagic, {uint64_t{1} << 40, 4, 2}, {});
  EXPECT_EQ(Seq2Seq::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(LstmLmSerializationTest, SaveLoadPreservesBehavior) {
  Dataset ds = PatternDataset();
  LstmLm model(ds.vocab().size(), 8, 2, 7);
  for (int e = 0; e < 5; ++e) model.TrainEpoch(ds, 0.02f, 30 + e);
  const std::string path = "/tmp/deepbase_lm_test.bin";
  ASSERT_TRUE(model.Save(path).ok());
  Result<LstmLm> loaded = LstmLm::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_units(), model.num_units());
  // Identical logits and hidden states on a probe input.
  const std::vector<int>& ids = ds.record(0).ids;
  EXPECT_EQ(MaxAbsDiff(loaded->Logits(ids), model.Logits(ids)), 0.0f);
  EXPECT_EQ(MaxAbsDiff(loaded->HiddenStates(ids), model.HiddenStates(ids)),
            0.0f);
  std::filesystem::remove(path);
}

TEST(LstmLmSerializationTest, RejectsGarbageFile) {
  const std::string path = "/tmp/deepbase_lm_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a model", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LstmLm::Load(path).ok());
  std::filesystem::remove(path);
  EXPECT_FALSE(LstmLm::Load("/nonexistent/nope.bin").ok());
}

TEST(Seq2SeqSerializationTest, SaveLoadPreservesEncoderStates) {
  TranslationCorpus corpus = GenerateTranslationCorpus(60, 8, 71);
  Seq2Seq model(corpus.source.vocab().size(), corpus.target_vocab.size(),
                10, 15);
  for (int e = 0; e < 3; ++e) {
    model.TrainEpoch(corpus.source, corpus.targets, 0.02f, 80 + e);
  }
  const std::string path = "/tmp/deepbase_s2s_test.bin";
  ASSERT_TRUE(model.Save(path).ok());
  Result<Seq2Seq> loaded = Seq2Seq::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_encoder_units(), model.num_encoder_units());
  const std::vector<int>& probe = corpus.source.record(0).ids;
  EXPECT_EQ(MaxAbsDiff(loaded->EncoderStates(probe),
                       model.EncoderStates(probe)),
            0.0f);
  EXPECT_DOUBLE_EQ(loaded->Accuracy(corpus.source, corpus.targets),
                   model.Accuracy(corpus.source, corpus.targets));
  std::filesystem::remove(path);
}

TEST(Seq2SeqSerializationTest, RejectsGarbageAndMissingFiles) {
  const std::string path = "/tmp/deepbase_s2s_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_FALSE(Seq2Seq::Load(path).ok());
  std::filesystem::remove(path);
  EXPECT_FALSE(Seq2Seq::Load("/nonexistent/nope.bin").ok());
}

TEST(MultivariateMiTest, XorPatternNeedsJointState) {
  // Label = XOR of two units: each unit alone has ~zero MI with the label,
  // but the joint state determines it — exactly what the multivariate
  // measure exists to capture.
  Rng rng(9);
  MultivariateMiMeasure m(2, 2);
  for (int block = 0; block < 8; ++block) {
    Matrix units(512, 2);
    std::vector<float> labels(512);
    for (size_t r = 0; r < 512; ++r) {
      const bool a = rng.Bernoulli(0.5), b = rng.Bernoulli(0.5);
      units(r, 0) = a ? 1.0f : -1.0f;
      units(r, 1) = b ? 1.0f : -1.0f;
      labels[r] = (a != b) ? 1.0f : 0.0f;
    }
    m.ProcessBlock(units, labels);
  }
  MeasureScores s = m.Scores();
  EXPECT_GT(s.group_score, 0.8f);                 // joint MI ~ 1 bit
  EXPECT_LT(s.unit_scores[0], 0.05f);             // marginals ~ 0
  EXPECT_LT(s.unit_scores[1], 0.05f);
}

TEST(MultivariateMiTest, IndependentLabelHasLowMi) {
  Rng rng(10);
  MultivariateMiMeasure m(3, 2);
  for (int block = 0; block < 8; ++block) {
    Matrix units = Matrix::RandomNormal(512, 3, &rng);
    std::vector<float> labels(512);
    for (auto& l : labels) l = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    m.ProcessBlock(units, labels);
  }
  EXPECT_LT(m.Scores().group_score, 0.02f);
  EXPECT_LT(m.ErrorEstimate(), 0.05);
}

TEST(MultivariateMiTest, WideGroupsAreSubsampled) {
  // 64 units with max_joint_units=4: must not blow up and still detect a
  // signal carried by unit 0 (which the even subsample includes).
  Rng rng(11);
  MultivariateMiMeasure m(64, 2, /*max_joint_units=*/4);
  for (int block = 0; block < 4; ++block) {
    Matrix units = Matrix::RandomNormal(512, 64, &rng);
    std::vector<float> labels(512);
    for (size_t r = 0; r < 512; ++r) {
      labels[r] = units(r, 0) > 0 ? 1.0f : 0.0f;
    }
    m.ProcessBlock(units, labels);
  }
  EXPECT_GT(m.Scores().group_score, 0.5f);
}

TEST(OcclusionTest, SensitivityMapsHaveInputShapeAndFullCoverage) {
  TextureCnn cnn(2, 1, 2, 51);
  Matrix img(12, 12, 0.7f);
  std::vector<Matrix> sens = OcclusionSensitivity(cnn, img);
  ASSERT_EQ(sens.size(), cnn.num_units());
  for (const Matrix& m : sens) {
    EXPECT_EQ(m.rows(), 12u);
    EXPECT_EQ(m.cols(), 12u);
  }
}

TEST(OcclusionTest, OccludingAUniformImageWithItsOwnValueIsNeutral) {
  // Occluder fill == image value: nothing changes, all sensitivities 0.
  TextureCnn cnn(2, 1, 2, 52);
  Matrix img(10, 10, 0.3f);
  OcclusionOptions opts;
  opts.fill = 0.3f;
  std::vector<Matrix> sens = OcclusionSensitivity(cnn, img, opts);
  for (const Matrix& m : sens) {
    for (size_t y = 0; y < m.rows(); ++y) {
      for (size_t x = 0; x < m.cols(); ++x) EXPECT_EQ(m(y, x), 0.0f);
    }
  }
}

TEST(OcclusionTest, PlantedDetectorsAssignToTheirConcepts) {
  // The TextureCnn plants one stripe detector per concept in layer 1;
  // occluding a concept's pixels must hurt its detector most.
  const int num_concepts = 2;
  TextureCnn cnn(num_concepts, /*extra_random=*/1, /*layer2_channels=*/2,
                 53);
  std::vector<AnnotatedImage> images =
      GenerateAnnotatedImages(6, 16, 16, num_concepts, 54);
  Result<std::vector<OcclusionScore>> scores =
      ScoreOcclusion(cnn, images, num_concepts);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), cnn.num_units() * num_concepts);

  std::vector<int> assigned =
      AssignConcepts(*scores, cnn.num_units(), num_concepts);
  // Each planted layer-1 detector u (unit u detects concept u+1) picks its
  // own concept.
  for (int c = 0; c < num_concepts; ++c) {
    EXPECT_EQ(assigned[static_cast<size_t>(c)], c + 1) << "unit " << c;
  }
}

TEST(OcclusionTest, ErrorsOnBadInputs) {
  TextureCnn cnn(2, 0, 1, 55);
  EXPECT_FALSE(ScoreOcclusion(cnn, {}, 2).ok());
  std::vector<AnnotatedImage> images =
      GenerateAnnotatedImages(1, 8, 8, 2, 56);
  EXPECT_FALSE(ScoreOcclusion(cnn, images, 0).ok());
  images[0].labels.pop_back();  // misaligned mask
  EXPECT_FALSE(ScoreOcclusion(cnn, images, 2).ok());
}

TEST(MlpProbeTest, LearnsLinearlySeparableHypothesis) {
  Rng rng(12);
  MlpProbeMeasure probe(3, {});
  for (int block = 0; block < 30; ++block) {
    Matrix units = Matrix::RandomNormal(256, 3, &rng);
    std::vector<float> labels(256);
    for (size_t r = 0; r < 256; ++r) {
      labels[r] = units(r, 1) > 0 ? 1.0f : 0.0f;  // unit 1 carries the signal
    }
    probe.ProcessBlock(units, labels);
  }
  MeasureScores s = probe.Scores();
  EXPECT_GT(s.group_score, 0.9f);
  // The signal unit dominates the relevance readout.
  EXPECT_GT(s.unit_scores[1], s.unit_scores[0]);
  EXPECT_GT(s.unit_scores[1], s.unit_scores[2]);
}

TEST(MlpProbeTest, LearnsXorWhereLinearProbeFails) {
  // The reason to offer a nonlinear probe at all: a hypothesis encoded as
  // the XOR of two units is invisible to logistic regression but learnable
  // by one hidden layer.
  Rng rng(13);
  MlpProbeMeasure mlp(2, {});
  BinaryLogRegMeasure linear(2, {});
  for (int block = 0; block < 40; ++block) {
    Matrix units(256, 2);
    std::vector<float> labels(256);
    for (size_t r = 0; r < 256; ++r) {
      const bool a = rng.Bernoulli(0.5), b = rng.Bernoulli(0.5);
      units(r, 0) = a ? 1.0f : -1.0f;
      units(r, 1) = b ? 1.0f : -1.0f;
      labels[r] = (a != b) ? 1.0f : 0.0f;
    }
    mlp.ProcessBlock(units, labels);
    linear.ProcessBlock(units, labels);
  }
  const float mlp_f1 = mlp.Scores().group_score;
  const float linear_f1 = linear.Scores().group_score;
  EXPECT_GT(mlp_f1, 0.95f);
  EXPECT_LT(linear_f1, 0.75f);  // ~0.5 baseline F1 at chance
}

TEST(MlpProbeTest, ConvergenceErrorShrinksWithData) {
  Rng rng(14);
  MlpProbeMeasure probe(2, {});
  EXPECT_TRUE(std::isinf(probe.ErrorEstimate()));
  for (int block = 0; block < 20; ++block) {
    Matrix units = Matrix::RandomNormal(256, 2, &rng);
    std::vector<float> labels(256);
    for (size_t r = 0; r < 256; ++r) labels[r] = units(r, 0) > 0;
    probe.ProcessBlock(units, labels);
  }
  EXPECT_LT(probe.ErrorEstimate(), 0.05);
}

TEST(MlpProbeScoreTest, FactoryIsJointAndNotMergeable) {
  MlpProbeScore factory;
  EXPECT_TRUE(factory.is_joint());
  EXPECT_FALSE(factory.mergeable());
  EXPECT_NE(factory.Create(4, 2), nullptr);
}

TEST(MultivariateMiScoreTest, FactoryCreatesJointMeasure) {
  MultivariateMiScore factory;
  EXPECT_TRUE(factory.is_joint());
  EXPECT_FALSE(factory.mergeable());
  auto m = factory.Create(4, 2);
  ASSERT_NE(m, nullptr);
}

}  // namespace
}  // namespace deepbase
