// Phase `query`: one client issues serial point probes of indexed points,
// batched point passes on a three-thread pool, 0.01%-area windows and
// k = 25 nearest-neighbour queries against the four ELSI-built kinds and a
// four-shard curve-partitioned ShardedIndex of ZM shards, all built in
// set-up on the workload's base set. Model inference, error-window
// search, scan, kNN selection and shard merge do the work and nothing is
// trained, so a build-side change must leave this phase's figures
// unchanged, and the reverse.
#include <cctype>
#include <cstdio>
#include <set>

#include "bench.h"
#include "common/thread_pool.h"
#include "learned/zm_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_index.h"
#include "traditional/kdb_tree.h"

namespace elsibench {
namespace {

constexpr size_t kK = 25;
constexpr double kWindowArea = 1e-4;  // 0.01% of the unit square.
/// Batched point passes per target and round: one pass takes a few
/// milliseconds, too short to time steadily on a shared host, and eight
/// passes still spread 0.12 of their median over five seeds.
constexpr int kBatchPasses = 24;
/// Upper bound on the warm-up passes that fill the trace rings.
constexpr int kMaxFillPasses = 64;
/// Recall floors of the approximate kinds (see README.md).
constexpr double kWindowRecallFloor = 0.9;
constexpr double kKnnRecallFloor = 0.9;

struct Sizes {
  size_t probes, batch_probes, windows, knn;
};

Sizes SizesFor(Size size) {
  if (size == Size::kSmoke) return {500, 1000, 50, 5};
  return {20000, 20000, 250, 50};
}

struct Target {
  std::string name;  // zm, ml, rsmi, lisa, zm_shard4
  bool exact = true;
  std::unique_ptr<elsi::SpatialIndex> index;
};

/// Per-target sums over one round.
struct TargetRound {
  double point_s = 0, batch_s = 0, window_s = 0, knn_s = 0;
  size_t window_hits = 0, knn_hits = 0;  // Recall numerators.
};

/// A shard counter's value (monotone; deltas are taken around loops).
uint64_t CounterValue(const char* name) {
  return elsi::obs::GetCounter(name).Value();
}

/// Spans each registered thread has recorded, by thread id.
std::map<uint64_t, uint64_t> RecordedSpans() {
  std::map<uint64_t, uint64_t> out;
  for (const elsi::obs::ThreadTrace& t :
       elsi::obs::TraceRegistry::Get().Snapshot()) {
    out[t.tid] = t.dropped + t.events.size();
  }
  return out;
}

/// Brings the program's trace rings to the state a long-running server
/// keeps them in: full. The sharded index's queries are trace roots whose
/// slow-query capture copies every ring, so its cost grows until the rings
/// wrap. Untimed passes of serial and batched sharded point queries (chunk
/// 1, so every pool thread records many spans) run until every ring that
/// records during them holds TraceBuffer::kCapacity events. Returns the
/// passes it took.
int FillTraceRings(const elsi::SpatialIndex& sharded,
                   const std::vector<Point>& probes,
                   const std::vector<Point>& batch_probes,
                   elsi::ThreadPool* pool) {
  elsi::BatchQueryOptions opts;
  opts.pool = pool;
  opts.chunk = 1;
  std::vector<Point> out(batch_probes.size());
  std::vector<uint8_t> hit(batch_probes.size());
  std::set<uint64_t> recording;
  std::map<uint64_t, uint64_t> before = RecordedSpans();
  for (int pass = 1; pass <= kMaxFillPasses; ++pass) {
    for (const Point& p : probes) sharded.PointQuery(p);
    sharded.PointQueryBatch(batch_probes, hit, out, opts);
    const std::map<uint64_t, uint64_t> after = RecordedSpans();
    for (const auto& [tid, spans] : after) {
      if (spans != before[tid]) recording.insert(tid);
    }
    before = after;
    bool full = true;
    for (const elsi::obs::ThreadTrace& t :
         elsi::obs::TraceRegistry::Get().Snapshot()) {
      if (recording.count(t.tid) != 0 &&
          t.events.size() < elsi::obs::TraceBuffer::kCapacity) {
        full = false;
      }
    }
    if (full) return pass;
  }
  return kMaxFillPasses;
}

class QueryPhase : public Phase {
 public:
  explicit QueryPhase(const Options& opt)
      : opt_(opt), sz_(SizesFor(opt.size)) {}

  void Setup(const Shared& shared) override;
  void Begin() override;
  void Round(Report* report) override;
  void End(Report* report) override;
  /// One round per target.
  size_t MinRounds() const override { return targets_.size(); }

 private:
  /// Median over target `ti`'s rounds of `field` times `scale`.
  double PerRound(size_t ti, double TargetRound::*field, double scale) const;

  const Options opt_;
  const Sizes sz_;
  elsi::ThreadPool serial_{1};
  const std::vector<Point>* data_ = nullptr;
  std::vector<Target> targets_;
  std::unique_ptr<elsi::SpatialIndex> kdb_;

  // Query sets and their oracle answers, fixed for the whole run.
  std::vector<Point> probes_, batch_probes_, knn_qs_;
  std::vector<Rect> windows_;
  std::vector<std::vector<Point>> window_truth_, knn_truth_;
  size_t window_truth_points_ = 0;
  double brute_knn_us_ = 0;
  int fill_passes_ = 0;

  elsi::ThreadPool pool_{3};
  std::vector<std::vector<TargetRound>> rounds_;  // [target][round]
  size_t next_target_ = 0;
  uint64_t shard_window_visits_ = 0, shard_windows_ = 0;
  uint64_t shard_knn_visits_ = 0, shard_knns_ = 0;

  // Answer buffers, sized once so rounds do not reallocate them.
  std::vector<Point> got_points_, batch_points_;
  std::vector<uint8_t> hits_, batch_hits_;
  std::vector<std::vector<Point>> got_windows_, got_knn_;
};

void QueryPhase::Setup(const Shared& shared) {
  const size_t n = shared.data.size();
  data_ = &shared.data;
  targets_.clear();
  for (elsi::BaseIndexKind kind : elsi::kAllBaseIndexKinds) {
    Target t;
    t.name = elsi::BaseIndexKindName(kind);
    for (char& c : t.name) c = static_cast<char>(std::tolower(c));
    t.exact =
        kind == elsi::BaseIndexKind::kZM || kind == elsi::BaseIndexKind::kML;
    t.index = elsi::MakeBaseIndex(kind, shared.processors.at(kind),
                                  IndexScale(n, &serial_));
    t.index->Build(shared.data);
    targets_.push_back(std::move(t));
  }
  elsi::shard::ShardedIndexConfig cfg;
  cfg.partition.shards = 4;
  cfg.partition.mode = elsi::shard::PartitionMode::kCurveRange;
  cfg.partition.curve = elsi::shard::PartitionCurve::kZOrder;
  cfg.shard.kind = elsi::BaseIndexKind::kZM;
  cfg.shard.elsi = true;
  cfg.shard.scale = IndexScale(n / 4, &serial_);
  cfg.shard.build = ProcessorConfig(n / 4);
  cfg.shard.build.enabled = elsi::DefaultEnabledMethods("ZM");
  cfg.shard.selector = shared.selector;
  Target shard{"zm_shard4", true,
               std::make_unique<elsi::shard::ShardedIndex>(cfg)};
  shard.index->Build(shared.data);
  targets_.push_back(std::move(shard));
  if (opt_.trace) {
    kdb_ = std::make_unique<elsi::KdbTree>();
    kdb_->Build(shared.data);
  }
}

void QueryPhase::Begin() {
  const std::vector<Point>& data = *data_;
  probes_ = SpreadPoints(data, sz_.probes, opt_.seed);
  batch_probes_ = SpreadPoints(data, sz_.batch_probes, opt_.seed + 3);
  windows_ = MakeWindows(data, sz_.windows, kWindowArea, opt_.seed);
  knn_qs_ = SpreadPoints(data, sz_.knn, opt_.seed + 2);
  for (const Rect& w : windows_) {
    window_truth_.push_back(OracleWindow(data, w));
    window_truth_points_ += window_truth_.back().size();
  }
  const Clock::time_point brute_t0 = Clock::now();
  for (const Point& q : knn_qs_) knn_truth_.push_back(OracleKnn(data, q, kK));
  brute_knn_us_ = SecondsSince(brute_t0) * 1e6 / knn_qs_.size();

  rounds_.assign(targets_.size(), {});
  got_points_.resize(probes_.size());
  hits_.resize(probes_.size());
  batch_points_.resize(batch_probes_.size());
  batch_hits_.resize(batch_probes_.size());
  got_windows_.resize(windows_.size());
  got_knn_.resize(knn_qs_.size());
  fill_passes_ =
      FillTraceRings(*targets_.back().index, probes_, batch_probes_, &pool_);
}

/// One round is every query type against one target; targets take turns.
void QueryPhase::Round(Report* report) {
  const size_t ti = next_target_;
  next_target_ = (next_target_ + 1) % targets_.size();
  const Target& t = targets_[ti];
  TargetRound tr;
  auto* sharded = dynamic_cast<elsi::shard::ShardedIndex*>(t.index.get());
  elsi::BatchQueryOptions batch_opts;
  batch_opts.pool = &pool_;
  batch_opts.chunk = 256;

  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < probes_.size(); ++i) {
    hits_[i] = t.index->PointQuery(probes_[i], &got_points_[i]) ? 1 : 0;
  }
  tr.point_s = SecondsSince(t0);
  for (size_t i = 0; i < probes_.size(); ++i) {
    report->Check(hits_[i] == 1 && got_points_[i].x == probes_[i].x &&
                  got_points_[i].y == probes_[i].y);
  }

  for (int pass = 0; pass < kBatchPasses; ++pass) {
    std::fill(batch_hits_.begin(), batch_hits_.end(), 0);
    t0 = Clock::now();
    t.index->PointQueryBatch(batch_probes_, batch_hits_, batch_points_,
                             batch_opts);
    tr.batch_s += SecondsSince(t0);
    for (size_t i = 0; i < batch_probes_.size(); ++i) {
      report->Check(batch_hits_[i] == 1 &&
                    batch_points_[i].x == batch_probes_[i].x &&
                    batch_points_[i].y == batch_probes_[i].y);
    }
  }

  const uint64_t visits0 = CounterValue("shard.window.shards_visited");
  const uint64_t queries0 = CounterValue("shard.query.window");
  t0 = Clock::now();
  for (size_t i = 0; i < windows_.size(); ++i) {
    got_windows_[i] = t.index->WindowQuery(windows_[i]);
  }
  tr.window_s = SecondsSince(t0);
  if (sharded != nullptr) {
    shard_window_visits_ +=
        CounterValue("shard.window.shards_visited") - visits0;
    shard_windows_ += CounterValue("shard.query.window") - queries0;
  }
  for (size_t i = 0; i < windows_.size(); ++i) {
    report->Check(t.exact ? SameWindow(got_windows_[i], window_truth_[i])
                          : ValidApproxWindow(windows_[i], got_windows_[i],
                                              window_truth_[i]));
    tr.window_hits += Overlap(got_windows_[i], window_truth_[i]);
  }

  t0 = Clock::now();
  if (sharded != nullptr && opt_.trace) {
    for (size_t i = 0; i < knn_qs_.size(); ++i) {
      elsi::shard::ShardedIndex::KnnStats stats;
      got_knn_[i] = sharded->KnnQueryCounted(knn_qs_[i], kK, &stats);
      shard_knn_visits_ += stats.shards_visited;
      ++shard_knns_;
    }
  } else {
    for (size_t i = 0; i < knn_qs_.size(); ++i) {
      got_knn_[i] = t.index->KnnQuery(knn_qs_[i], kK);
    }
  }
  tr.knn_s = SecondsSince(t0);
  for (size_t i = 0; i < knn_qs_.size(); ++i) {
    report->Check(t.exact
                      ? SameKnn(got_knn_[i], knn_truth_[i])
                      : ValidApproxKnn(knn_qs_[i], kK, got_knn_[i], *data_));
    tr.knn_hits += Overlap(got_knn_[i], knn_truth_[i]);
  }
  if (!t.exact) {
    // Recall guard, one checked operation per query type and round.
    report->Check(tr.window_hits >= kWindowRecallFloor * window_truth_points_);
    report->Check(tr.knn_hits >= kKnnRecallFloor * knn_qs_.size() * kK);
  }
  rounds_[ti].push_back(tr);
}

double QueryPhase::PerRound(size_t ti, double TargetRound::*field,
                            double scale) const {
  std::vector<double> v;
  for (const TargetRound& r : rounds_[ti]) v.push_back(r.*field * scale);
  return Median(v);
}

void QueryPhase::End(Report* report) {
  // Each figure counts every target's queries over the sum of the targets'
  // median round times.
  double point_s = 0, batch_s = 0, window_s = 0, knn_s = 0;
  size_t min_rounds = rounds_[0].size();
  for (size_t ti = 0; ti < targets_.size(); ++ti) {
    point_s += PerRound(ti, &TargetRound::point_s, 1);
    batch_s += PerRound(ti, &TargetRound::batch_s, 1);
    window_s += PerRound(ti, &TargetRound::window_s, 1);
    knn_s += PerRound(ti, &TargetRound::knn_s, 1);
    min_rounds = std::min(min_rounds, rounds_[ti].size());
  }
  const double nt = static_cast<double>(targets_.size());
  const double point_qps = nt * probes_.size() / point_s;
  const double batch_qps =
      nt * kBatchPasses * batch_probes_.size() / batch_s;
  const double window_qps = nt * windows_.size() / window_s;
  const double knn_qps = nt * knn_qs_.size() / knn_s;

  char line[512];
  std::snprintf(line, sizeof line,
                "query: rounds>=%zu per target, targets=%zu n=%zu probes=%zu "
                "batch_probes=%zu x %d passes windows=%zu (mean %.1f points) "
                "knn=%zu k=%zu batch_pool=3 chunk=256 "
                "trace_ring_fill_passes=%d",
                min_rounds, targets_.size(), data_->size(), probes_.size(),
                batch_probes_.size(), kBatchPasses, windows_.size(),
                static_cast<double>(window_truth_points_) / windows_.size(),
                knn_qs_.size(), kK, fill_passes_);
  report->Note(line);
  std::snprintf(line, sizeof line,
                "end-to-end: point_qps=%.1f point_batch_qps=%.1f "
                "window_qps=%.1f knn_qps=%.1f",
                point_qps, batch_qps, window_qps, knn_qps);
  report->Note(line);

  if (!opt_.trace) {
    report->Add("point_qps", point_qps, "queries/s");
    report->Add("point_batch_qps", batch_qps, "queries/s");
    report->Add("window_qps", window_qps, "queries/s");
    report->Add("knn_qps", knn_qps, "queries/s");
    return;
  }

  // Per-target layer figures: medians over rounds.
  for (size_t ti = 0; ti < targets_.size(); ++ti) {
    const std::string c = "learned." + targets_[ti].name;
    report->Add(c + ".point_ns",
                PerRound(ti, &TargetRound::point_s, 1e9 / probes_.size()),
                "ns");
    report->Add(c + ".window_us",
                PerRound(ti, &TargetRound::window_s, 1e6 / windows_.size()),
                "us");
    report->Add(c + ".knn_us",
                PerRound(ti, &TargetRound::knn_s, 1e6 / knn_qs_.size()), "us");
    if (targets_[ti].name == "zm") {
      report->Add(c + ".point_batch_ns",
                  PerRound(ti, &TargetRound::batch_s,
                           1e9 / (kBatchPasses * batch_probes_.size())),
                  "ns");
    }
    if (!targets_[ti].exact) {
      report->Add(c + ".window_recall",
                  static_cast<double>(rounds_[ti][0].window_hits) /
                      window_truth_points_,
                  "ratio");
      report->Add(c + ".knn_recall",
                  static_cast<double>(rounds_[ti][0].knn_hits) /
                      (knn_qs_.size() * kK),
                  "ratio");
    }
  }

  // The ZM point path split into its layers, each timed as its own loop
  // over the same probes: curve key, learned lower bound, and the scan that
  // PointQuery adds on top of the lower bound.
  const auto& zm = dynamic_cast<const elsi::ZmIndex&>(*targets_[0].index);
  std::vector<double> keys(probes_.size());
  std::vector<double> key_ns, lb_ns, array_ns, point_ns;
  size_t sink = 0;
  for (int rep = 0; rep < 15; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < probes_.size(); ++i) keys[i] = zm.KeyOf(probes_[i]);
    key_ns.push_back(SecondsSince(t0) * 1e9 / probes_.size());
    t0 = Clock::now();
    for (double k : keys) sink += zm.array().LowerBound(k);
    lb_ns.push_back(SecondsSince(t0) * 1e9 / probes_.size());
    t0 = Clock::now();
    for (size_t i = 0; i < probes_.size(); ++i) {
      Point out;
      sink += zm.array().PointQuery(probes_[i], keys[i], &out) ? 1 : 0;
    }
    array_ns.push_back(SecondsSince(t0) * 1e9 / probes_.size());
    t0 = Clock::now();
    for (const Point& p : probes_) sink += zm.PointQuery(p) ? 1 : 0;
    point_ns.push_back(SecondsSince(t0) * 1e9 / probes_.size());
  }
  const double zm_key = Median(key_ns), zm_lb = Median(lb_ns),
               zm_array = Median(array_ns), zm_point = Median(point_ns);
  report->Add("curve.zm.key_ns", zm_key, "ns");
  report->Add("learned.zm.lower_bound_ns", zm_lb, "ns");
  report->Add("learned.zm.scan_ns", zm_array - zm_lb, "ns");
  report->Add("learned.zm.point_coverage", (zm_key + zm_array) / zm_point,
              "ratio");
  report->Add("shard.window_shards_visited",
              static_cast<double>(shard_window_visits_) /
                  std::max<uint64_t>(1, shard_windows_),
              "shards/query");
  report->Add("shard.knn_shards_visited",
              static_cast<double>(shard_knn_visits_) /
                  std::max<uint64_t>(1, shard_knns_),
              "shards/query");

  // References on the same data and queries: the KDB tree and brute force.
  std::vector<double> kdb_point, kdb_window, kdb_knn;
  for (int rep = 0; rep < 15; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (const Point& p : probes_) sink += kdb_->PointQuery(p) ? 1 : 0;
    kdb_point.push_back(SecondsSince(t0) * 1e9 / probes_.size());
    t0 = Clock::now();
    for (const Rect& w : windows_) sink += kdb_->WindowQuery(w).size();
    kdb_window.push_back(SecondsSince(t0) * 1e6 / windows_.size());
    t0 = Clock::now();
    for (const Point& q : knn_qs_) sink += kdb_->KnnQuery(q, kK).size();
    kdb_knn.push_back(SecondsSince(t0) * 1e6 / knn_qs_.size());
  }
  for (size_t i = 0; i < knn_qs_.size(); ++i) {
    report->Check(SameKnn(kdb_->KnnQuery(knn_qs_[i], kK), knn_truth_[i]));
  }
  report->Add("traditional.kdb.point_ns", Median(kdb_point), "ns");
  report->Add("traditional.kdb.window_us", Median(kdb_window), "us");
  report->Add("traditional.kdb.knn_us", Median(kdb_knn), "us");
  report->Add("ref.brute.knn_us", brute_knn_us_, "us");
  std::snprintf(line, sizeof line,
                "reference: learned zm knn / kdb knn = %.1fx, / brute = %.2fx "
                "(sink %zu)",
                PerRound(0, &TargetRound::knn_s, 1e6 / knn_qs_.size()) /
                    Median(kdb_knn),
                PerRound(0, &TargetRound::knn_s, 1e6 / knn_qs_.size()) /
                    brute_knn_us_,
                sink % 10);
  report->Note(line);
}

}  // namespace

std::unique_ptr<Phase> MakeQueryPhase(const Options& opt) {
  return std::make_unique<QueryPhase>(opt);
}

}  // namespace elsibench
