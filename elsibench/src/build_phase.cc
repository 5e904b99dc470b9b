// Phase `build`: ELSI builds of ZM, ML, RSMI and LISA on the workload's
// base set, driven by the method scorer at lambda = 0.8. Method selection,
// Ds construction, training and error bounds do almost all of the work
// here and none in `query`.
#include <cstdio>

#include "bench.h"
#include "common/thread_pool.h"

namespace elsibench {
namespace {

struct BuildInput {
  const std::vector<Point>* data = nullptr;
  std::vector<Point> probes;
  std::vector<Rect> windows;
  std::vector<std::vector<Point>> truths;
};

/// The layer split of one round's builds (sums over every build).
struct RoundLedger {
  double wall_s = 0;
  double select_s = 0;
  double ds_s = 0;
  double train_s = 0;
  double bounds_s = 0;
  double in_trainer_s = 0;
  double ds_points = 0;
  double error_sum = 0;
};

/// Checks a freshly built index: every probe of an indexed point hits, and
/// every window matches the oracle (exact kinds) or is a valid subset of it
/// (RSMI, LISA).
bool CheckIndex(const elsi::SpatialIndex& index, bool exact,
                const BuildInput& in) {
  for (const Point& p : in.probes) {
    Point out;
    if (!index.PointQuery(p, &out) || out.x != p.x || out.y != p.y) {
      return false;
    }
  }
  for (size_t i = 0; i < in.windows.size(); ++i) {
    const std::vector<Point> got = index.WindowQuery(in.windows[i]);
    const bool ok = exact ? SameWindow(got, in.truths[i])
                          : ValidApproxWindow(in.windows[i], got, in.truths[i]);
    if (!ok) return false;
  }
  return true;
}

bool IsExact(elsi::BaseIndexKind kind) {
  return kind == elsi::BaseIndexKind::kZM || kind == elsi::BaseIndexKind::kML;
}

class BuildPhase : public Phase {
 public:
  explicit BuildPhase(const Options& opt) : opt_(opt) {}

  void Setup(const Shared& shared) override {
    processors_ = shared.processors;
    in_.data = &shared.data;
  }

  void Begin() override {
    in_.probes = SamplePoints(*in_.data, 64, opt_.seed);
    in_.windows = MakeWindows(*in_.data, 8, 1e-4, opt_.seed);
    for (const Rect& w : in_.windows) {
      in_.truths.push_back(OracleWindow(*in_.data, w));
    }
  }

  void Round(Report* report) override;
  void End(Report* report) override;

 private:
  const Options opt_;
  std::map<elsi::BaseIndexKind, std::shared_ptr<elsi::BuildProcessor>>
      processors_;
  BuildInput in_;
  // Serial pool: builds run on the calling thread only, so the layer times
  // of the traced run add up to the build wall time.
  elsi::ThreadPool pool_{1};
  std::vector<RoundLedger> rounds_;
  std::map<std::string, double> kind_s_;  // Last round, per index kind.
  std::map<std::string, size_t> methods_;
  size_t index_bytes_ = 0;
};

void BuildPhase::Round(Report* report) {
  const size_t n = in_.data->size();
  RoundLedger ledger;
  kind_s_.clear();
  std::map<std::string, size_t> round_methods;
  size_t round_bytes = 0;
  for (elsi::BaseIndexKind kind : elsi::kAllBaseIndexKinds) {
    const std::shared_ptr<elsi::BuildProcessor>& processor = processors_[kind];
    processor->ClearRecords();
    auto timing = std::make_shared<TimingTrainer>(processor);
    std::shared_ptr<elsi::ModelTrainer> trainer = processor;
    if (opt_.trace) trainer = timing;
    auto index = elsi::MakeBaseIndex(kind, trainer, IndexScale(n, &pool_));
    const Clock::time_point t0 = Clock::now();
    index->Build(*in_.data);
    const double wall_s = SecondsSince(t0);
    ledger.wall_s += wall_s;
    kind_s_[elsi::BaseIndexKindName(kind)] += wall_s;
    ledger.in_trainer_s += timing->seconds();
    for (const elsi::BuildCallRecord& r : processor->records()) {
      ledger.select_s += r.select_seconds;
      ledger.ds_s += r.extra_seconds;
      ledger.train_s += r.train_seconds;
      ledger.bounds_s += r.bounds_seconds;
      ledger.ds_points += static_cast<double>(r.training_size);
      ledger.error_sum += r.error_magnitude;
      ++round_methods[elsi::BuildMethodName(r.method)];
    }
    round_bytes += StateBytes(*index);
    report->Check(CheckIndex(*index, IsExact(kind), in_));
  }
  if (rounds_.empty()) {
    methods_ = round_methods;
    index_bytes_ = round_bytes;
  } else if (round_methods != methods_ || round_bytes != index_bytes_) {
    // Builds are deterministic: a round that differs is a failed one.
    report->Check(false);
  }
  rounds_.push_back(ledger);
}

void BuildPhase::End(Report* report) {
  const size_t n = in_.data->size();
  const std::vector<RoundLedger>& rounds = rounds_;
  auto median_of = [&rounds](double RoundLedger::*field) {
    std::vector<double> v;
    for (const RoundLedger& r : rounds) v.push_back(r.*field);
    return Median(v);
  };
  const double build_s = median_of(&RoundLedger::wall_s);
  char line[256];
  std::snprintf(line, sizeof line,
                "build: rounds=%zu builds_per_round=4 n=%zu "
                "methods[%s] index_bytes=%zu",
                rounds.size(), n, MethodHistogram(methods_).c_str(),
                index_bytes_);
  report->Note(line);
  std::snprintf(line, sizeof line, "end-to-end: build_s=%.6f", build_s);
  report->Note(line);

  if (!opt_.trace) {
    report->Add("build_s", build_s, "s");
    report->Add("index_bytes", static_cast<double>(index_bytes_), "bytes");
    return;
  }

  // Per-layer ledger: each field's median over rounds.
  const double select_s = median_of(&RoundLedger::select_s);
  const double ds_s = median_of(&RoundLedger::ds_s);
  const double train_s = median_of(&RoundLedger::train_s);
  const double bounds_s = median_of(&RoundLedger::bounds_s);
  std::vector<double> structure, coverage;
  for (const RoundLedger& r : rounds) {
    const double s = r.wall_s - r.in_trainer_s;
    structure.push_back(s);
    coverage.push_back((r.select_s + r.ds_s + r.train_s + r.bounds_s + s) /
                       r.wall_s);
  }
  report->Add("core.select_s", select_s, "s");
  report->Add("core.ds_s", ds_s, "s");
  report->Add("ml.train_s", train_s, "s");
  report->Add("learned.bounds_s", bounds_s, "s");
  report->Add("learned.structure_s", Median(structure), "s");
  report->Add("build.coverage", Median(coverage), "ratio");
  report->Add("core.ds_points", median_of(&RoundLedger::ds_points), "count");
  report->Add("learned.error_sum", median_of(&RoundLedger::error_sum),
              "positions");

  // Reference: the OG (full-data) build of the same kinds, once.
  double og_s = 0;
  std::map<std::string, double> og_kind_s;
  for (elsi::BaseIndexKind kind : elsi::kAllBaseIndexKinds) {
    auto og = elsi::MakeBaseIndex(
        kind, std::make_shared<elsi::DirectTrainer>(ProcessorConfig(n).model),
        IndexScale(n, &pool_));
    const Clock::time_point t0 = Clock::now();
    og->Build(*in_.data);
    const double wall_s = SecondsSince(t0);
    og_s += wall_s;
    og_kind_s[elsi::BaseIndexKindName(kind)] += wall_s;
    report->Check(CheckIndex(*og, IsExact(kind), in_));
  }
  report->Add("ref.og_build_s", og_s, "s");
  std::string speedups;
  for (const auto& [kind, s] : og_kind_s) {
    char cell[96];
    std::snprintf(cell, sizeof cell, " %s=%.4f/%.4f=%.1fx", kind.c_str(), s,
                  kind_s_[kind], s / kind_s_[kind]);
    speedups += cell;
  }
  report->Note("reference: og/elsi build seconds per kind (last round):" +
               speedups);
}

}  // namespace

std::unique_ptr<Phase> MakeBuildPhase(const Options& opt) {
  return std::make_unique<BuildPhase>(opt);
}

}  // namespace elsibench
