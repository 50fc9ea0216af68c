#include "core/inspect_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "measures/mlp_probe.h"
#include "measures/multivariate_mi.h"
#include "measures/scores.h"

namespace deepbase {

namespace {

// Whitespace/punctuation tokenizer: identifiers, numbers, and the symbols
// ( ) , > are separate tokens.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  for (char ch : text) {
    if (std::isspace(static_cast<unsigned char>(ch))) {
      flush();
    } else if (ch == '(' || ch == ')' || ch == ',' || ch == '>') {
      flush();
      tokens.push_back(std::string(1, ch));
    } else {
      cur += ch;
    }
  }
  flush();
  return tokens;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

Result<MeasureFactoryPtr> MeasureByName(const std::string& raw) {
  const std::string name = Lower(raw);
  if (name == "pearson" || name == "corr" || name == "correlation") {
    return MeasureFactoryPtr(std::make_shared<CorrelationScore>("pearson"));
  }
  if (name == "spearman") {
    return MeasureFactoryPtr(std::make_shared<CorrelationScore>("spearman"));
  }
  if (name == "mutual_info") {
    return MeasureFactoryPtr(std::make_shared<MutualInfoScore>());
  }
  if (name == "multivariate_mi") {
    return MeasureFactoryPtr(std::make_shared<MultivariateMiScore>());
  }
  if (name == "diff_means") {
    return MeasureFactoryPtr(std::make_shared<DiffMeansScore>());
  }
  if (name == "jaccard") {
    return MeasureFactoryPtr(std::make_shared<JaccardScore>());
  }
  if (name == "logreg_l1") {
    return MeasureFactoryPtr(std::make_shared<LogRegressionScore>("L1"));
  }
  if (name == "logreg_l2") {
    return MeasureFactoryPtr(std::make_shared<LogRegressionScore>("L2"));
  }
  if (name == "mlp_probe") {
    return MeasureFactoryPtr(std::make_shared<MlpProbeScore>());
  }
  if (name == "multiclass") {
    return MeasureFactoryPtr(std::make_shared<MulticlassLogRegScore>());
  }
  if (name == "random_baseline") {
    return MeasureFactoryPtr(std::make_shared<RandomBaselineScore>());
  }
  if (name == "majority_baseline") {
    return MeasureFactoryPtr(std::make_shared<MajorityBaselineScore>());
  }
  return Status::Invalid("unknown measure: " + raw);
}

namespace {

// Sequential token cursor with keyword matching.
class Cursor {
 public:
  explicit Cursor(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {}

  bool Done() const { return pos_ >= tokens_.size(); }
  const std::string& Peek() const {
    static const std::string kEmpty;
    return Done() ? kEmpty : tokens_[pos_];
  }
  std::string Next() { return Done() ? "" : tokens_[pos_++]; }
  bool TryKeyword(const std::string& kw) {
    if (!Done() && Lower(tokens_[pos_]) == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (TryKeyword(kw)) return Status::OK();
    return Status::Invalid("expected '" + kw + "' near '" + Peek() + "'");
  }

 private:
  std::vector<std::string> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<InspectRequest> ParseInspect(const std::string& statement,
                                    const Catalog& catalog) {
  Cursor cur(Tokenize(statement));
  DB_RETURN_NOT_OK(cur.ExpectKeyword("inspect"));
  DB_RETURN_NOT_OK(cur.ExpectKeyword("units"));
  DB_RETURN_NOT_OK(cur.ExpectKeyword("of"));

  InspectRequest request;
  InspectRequest::ModelRef model;
  model.name = cur.Next();
  DB_RETURN_NOT_OK(cur.ExpectKeyword("and"));
  request.hypothesis_sets.push_back(cur.Next());

  if (cur.TryKeyword("using")) {
    do {
      const std::string measure_name = cur.Next();
      // Validate eagerly so an unknown measure is reported as a
      // parse-time error at its token, not after the statement is fully
      // consumed — but carry the *name*, not the factory: name-resolved
      // requests keep a stable identity for the result cache and EXPLAIN.
      DB_RETURN_NOT_OK(catalog.GetMeasure(measure_name).status());
      request.measure_names.push_back(measure_name);
    } while (cur.TryKeyword(","));
  }

  DB_RETURN_NOT_OK(cur.ExpectKeyword("over"));
  request.dataset_name = cur.Next();

  if (cur.TryKeyword("group")) {
    DB_RETURN_NOT_OK(cur.ExpectKeyword("by"));
    DB_RETURN_NOT_OK(cur.ExpectKeyword("layer"));
    DB_RETURN_NOT_OK(cur.ExpectKeyword("("));
    const std::string n_str = cur.Next();
    char* end = nullptr;
    const long layer_size = std::strtol(n_str.c_str(), &end, 10);
    if (end == n_str.c_str() || layer_size <= 0) {
      return Status::Invalid("bad LAYER size: " + n_str);
    }
    DB_RETURN_NOT_OK(cur.ExpectKeyword(")"));
    model.group_by_layer = static_cast<size_t>(layer_size);
  }
  request.models.push_back(std::move(model));

  if (cur.TryKeyword("having")) {
    DB_RETURN_NOT_OK(cur.ExpectKeyword("unit_score"));
    DB_RETURN_NOT_OK(cur.ExpectKeyword(">"));
    const std::string x_str = cur.Next();
    char* end = nullptr;
    const double threshold = std::strtod(x_str.c_str(), &end);
    if (end == x_str.c_str()) {
      return Status::Invalid("bad HAVING threshold: " + x_str);
    }
    request.min_abs_unit_score = static_cast<float>(threshold);
  }

  if (!cur.Done()) {
    return Status::Invalid("unexpected trailing token: '" + cur.Peek() + "'");
  }
  return request;
}

Result<ResultTable> ExecuteInspect(const std::string& statement,
                                   const Catalog& catalog,
                                   const InspectOptions& options,
                                   RuntimeStats* stats) {
  DB_ASSIGN_OR_RETURN(InspectRequest request, ParseInspect(statement, catalog));
  DB_ASSIGN_OR_RETURN(InspectPlan plan, catalog.Compile(request, options));
  return RunPlan(plan, stats);
}

}  // namespace deepbase
