// Phase `serve`: a DurableElsi serves an ELSI-built ZM base of the
// workload's base family with the rebuild predictor on. One writer inserts
// points from the workload's drift family (so the key distribution drifts
// and rebuilds fire) and
// removes base points; two readers issue point reads of keys known to be
// live. Each round starts from the same base snapshot in a fresh directory
// and ends by checking the contents, before and after reopening the
// directory through crash recovery.
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "common/thread_pool.h"
#include "learned/zm_index.h"
#include "obs/metrics.h"
#include "persist/elsi.h"
#include "persist/snapshot.h"
#include "prof/span_costs.h"

namespace elsibench {
namespace {

namespace fs = std::filesystem;
using elsi::persist::DurableElsi;

struct Sizes {
  size_t n, inserts, removes;
};

Sizes SizesFor(Size size) {
  if (size == Size::kSmoke) return {4000, 600, 200};
  return {20000, 3000, 1000};
}

/// One writer step: insert or remove of a point.
struct WriteOp {
  bool insert;
  Point p;
  size_t insert_index;  // Position in the insert list (inserts only).
};

struct ReaderStats {
  LatencyHistogram latencies_us;
  uint64_t reads = 0;
  uint64_t failed = 0;
  double depth_sum = 0;
};

/// Two long-lived reader threads, as a server keeps them (a thread per
/// round would also measure thread start-up and per-thread telemetry set-up
/// in every round). Each round hands them that round's index; they read
/// keys known to be live until EndRound: half from the base points the
/// writer never removes, half from inserts it has already acknowledged.
class ReaderPool {
 public:
  static constexpr size_t kReaders = 2;

  ReaderPool(const std::vector<Point>* stable,
             const std::vector<Point>* inserts, bool trace, uint64_t seed)
      : stable_(stable), inserts_(inserts), trace_(trace), seed_(seed) {
    for (size_t i = 0; i < kReaders; ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;
  ~ReaderPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void BeginRound(const DurableElsi* db, const std::atomic<size_t>* published) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      db_ = db;
      published_ = published;
      stop_.store(false, std::memory_order_relaxed);
      parked_ = 0;
      for (ReaderStats& s : stats_) s = ReaderStats();
      ++round_;
    }
    cv_.notify_all();
  }

  /// Stops the round and returns each reader's figures for it.
  const ReaderStats (&EndRound())[kReaders] {
    stop_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_ == kReaders; });
    return stats_;
  }

 private:
  void Loop(size_t i) {
    Rng rng(seed_ * 1000 + i);
    elsi::obs::Gauge& depth = elsi::obs::GetGauge("concurrent.delta_depth");
    uint64_t seen = 0;
    for (;;) {
      const DurableElsi* db = nullptr;
      const std::atomic<size_t>* published = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return quit_ || round_ != seen; });
        if (quit_) return;
        seen = round_;
        db = db_;
        published = published_;
      }
      ReaderStats& stats = stats_[i];
      while (!stop_.load(std::memory_order_acquire)) {
        const size_t live = published->load(std::memory_order_acquire);
        const bool from_inserts = live > 0 && (rng.Next() & 1) != 0;
        const Point& key = from_inserts ? (*inserts_)[rng.Below(live)]
                                        : (*stable_)[rng.Below(stable_->size())];
        Point out;
        const Clock::time_point t0 = Clock::now();
        const bool hit = db->PointQuery(key, &out);
        stats.latencies_us.Add(SecondsSince(t0) * 1e6);
        if (trace_) stats.depth_sum += static_cast<double>(depth.Value());
        if (!hit || out.x != key.x || out.y != key.y) ++stats.failed;
        ++stats.reads;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++parked_;
      }
      cv_.notify_all();
    }
  }

  const std::vector<Point>* stable_;
  const std::vector<Point>* inserts_;
  const bool trace_;
  const uint64_t seed_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;  // Guards the round hand-over fields below.
  std::condition_variable cv_;
  uint64_t round_ = 0;
  size_t parked_ = 0;
  bool quit_ = false;
  const DurableElsi* db_ = nullptr;
  const std::atomic<size_t>* published_ = nullptr;
  ReaderStats stats_[kReaders];  // Reader i owns stats_[i] during a round.
  std::vector<std::thread> threads_;  // Last: joined before the rest dies.
};

std::vector<Point> FullWindow(const DurableElsi& db) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return db.WindowQuery(Rect::Of(-kInf, -kInf, kInf, kInf));
}

class ServePhase : public Phase {
 public:
  explicit ServePhase(const Options& opt)
      : opt_(opt),
        sz_(SizesFor(opt.size)),
        root_(opt.work_dir + "/serve-" + std::to_string(::getpid())) {}
  ~ServePhase() override { fs::remove_all(root_); }

  void Setup(const Shared& shared) override;
  void Begin() override;
  void Round(Report* report) override;
  void End(Report* report) override;

 private:
  const Options opt_;
  const Sizes sz_;
  const std::string root_;
  elsi::ThreadPool serial_{1};
  std::vector<Point> base_;
  std::shared_ptr<TimingTrainer> trainer_;
  std::shared_ptr<const elsi::RebuildPredictor> predictor_;
  elsi::persist::DurableElsiOptions db_opts_;
  std::string base_snapshot_;

  // The writer's program and the contents it must leave.
  std::vector<Point> inserts_;
  std::vector<WriteOp> program_;
  std::vector<Point> stable_;    // Base points the writer never removes.
  std::vector<Point> expected_;  // Canonical base + inserts - removes.
  std::unique_ptr<ReaderPool> readers_;
  size_t round_ = 0;

  LatencyHistogram write_us_;
  std::vector<double> swap_ms_, ops_per_s_;
  std::vector<size_t> rebuilds_per_round_;
  // Reads are summarised per round (each round holds ~10^5 of them) and
  // reported as the median over rounds, so one descheduled reader thread
  // cannot move the run's read tail. The read tail is p99: the per-round
  // p99.9 is printed too, but on a shared host its run-to-run spread is as
  // wide as the largest bound a metric may have. Writes are too few per
  // round for a high percentile and are pooled over the run.
  std::vector<double> read_p50_, read_p99_, read_p999_;
  uint64_t round_reads_beyond_ = 0, last_round_reads_ = 0;
  uint64_t reads_total_ = 0;
  double depth_sum_ = 0;
};

void ServePhase::Setup(const Shared& shared) {
  base_ = MakeDataset(opt_.workload.base, sz_.n, 0);
  predictor_ = LoadRebuildPredictor(opt_);
  trainer_ = std::make_shared<TimingTrainer>(elsi::MakeElsiProcessor(
      elsi::BaseIndexKind::kZM, ProcessorConfig(sz_.n), shared.selector));
  db_opts_.kind = "ZM";
  db_opts_.trainer = trainer_;
  db_opts_.pool = &serial_;
  db_opts_.predictor = predictor_.get();
  db_opts_.update.enable_rebuild = true;
  db_opts_.wal.fsync_every = 32;
  const std::string dir = root_ + "/template";
  fs::remove_all(dir);
  auto db = DurableElsi::OpenOrRecover(dir, db_opts_);
  if (db == nullptr) {
    std::fprintf(stderr, "elsibench: cannot open %s\n", dir.c_str());
    std::exit(2);
  }
  db->Build(base_);
  db.reset();
  base_snapshot_ = elsi::persist::ListSnapshots(dir).back().second;
}

void ServePhase::Begin() {
  // The writer's program, identical in every round: three inserts from the
  // drift family, then one remove of a base point. The seed draws the
  // insert order and which base points are removed.
  inserts_ = SamplePoints(MakeDataset(opt_.workload.drift, sz_.inserts, sz_.n),
                          sz_.inserts, opt_.seed + 7);
  const std::vector<Point> removes =
      SamplePoints(base_, sz_.removes, opt_.seed + 9);
  for (size_t i = 0, r = 0; i < inserts_.size() || r < removes.size();) {
    for (int j = 0; j < 3 && i < inserts_.size(); ++j, ++i) {
      program_.push_back({true, inserts_[i], i});
    }
    if (r < removes.size()) program_.push_back({false, removes[r++], 0});
  }
  std::vector<bool> removed(base_.size(), false);
  for (const Point& p : removes) removed[p.id] = true;
  for (const Point& p : base_) {
    if (!removed[p.id]) stable_.push_back(p);
  }
  expected_ = stable_;
  expected_.insert(expected_.end(), inserts_.begin(), inserts_.end());
  elsi::SortCanonical(&expected_);

  elsi::prof::SpanCostRegistry::Get().Clear();
  trainer_->Reset();
  readers_ = std::make_unique<ReaderPool>(&stable_, &inserts_, opt_.trace,
                                          opt_.seed);
}

void ServePhase::Round(Report* report) {
  const std::string dir = root_ + "/round-" + std::to_string(round_++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(base_snapshot_,
                dir + "/" + fs::path(base_snapshot_).filename().string());
  auto db = DurableElsi::OpenOrRecover(dir, db_opts_);
  report->Check(db != nullptr && db->size() == base_.size());
  if (db == nullptr) return;

  // Span costs are taken over the writer's program only, so the hooks do
  // not load the other phases of a traced run.
  elsi::prof::SpanCostRegistry& span_costs =
      elsi::prof::SpanCostRegistry::Get();
  if (opt_.trace) span_costs.Enable();
  std::atomic<size_t> published{0};
  readers_->BeginRound(db.get(), &published);
  const Clock::time_point t0 = Clock::now();
  for (const WriteOp& op : program_) {
    const size_t rebuilds_before = db->rebuild_count();
    const Clock::time_point w0 = Clock::now();
    bool ok = true;
    if (op.insert) {
      db->Insert(op.p);
    } else {
      ok = db->Remove(op.p);
    }
    const double us = SecondsSince(w0) * 1e6;
    write_us_.Add(us);
    if (db->rebuild_count() != rebuilds_before) swap_ms_.push_back(us / 1e3);
    if (op.insert) {
      published.store(op.insert_index + 1, std::memory_order_release);
    } else {
      ok = ok && !db->PointQuery(op.p);  // The writer's own remove misses.
    }
    report->Check(ok);
  }
  const double serve_s = SecondsSince(t0);
  const ReaderStats(&round_stats)[ReaderPool::kReaders] = readers_->EndRound();
  span_costs.Disable();

  uint64_t round_reads = 0;
  LatencyHistogram read_us;
  for (const ReaderStats& rs : round_stats) {
    round_reads += rs.reads;
    depth_sum_ += rs.depth_sum;
    read_us.Merge(rs.latencies_us);
    // Every read is a checked operation; a miss or wrong point fails it.
    report->attempted += rs.reads;
    report->failed += rs.failed;
  }
  reads_total_ += round_reads;
  last_round_reads_ = round_reads;
  read_p50_.push_back(read_us.Percentile(50));
  read_p99_.push_back(read_us.Percentile(99, &round_reads_beyond_));
  read_p999_.push_back(read_us.Percentile(99.9));
  ops_per_s_.push_back((program_.size() + round_reads) / serve_s);
  // The writer's program is the same in every round, and so are the
  // rebuild decisions: a round that rebuilds differently fails.
  rebuilds_per_round_.push_back(db->rebuild_count());
  report->Check(rebuilds_per_round_.back() == rebuilds_per_round_.front());

  // Contents = base + inserts - removes, before and after recovery.
  report->Check(FullWindow(*db) == expected_);
  db.reset();
  auto reopened = DurableElsi::OpenOrRecover(dir, db_opts_);
  report->Check(reopened != nullptr && FullWindow(*reopened) == expected_);
  reopened.reset();
  fs::remove_all(dir);
}

void ServePhase::End(Report* report) {
  readers_.reset();
  const std::vector<elsi::prof::SpanCost> spans =
      elsi::prof::SpanCostRegistry::Get().Snapshot();
  const double train_s = trainer_->seconds();

  // The bare base on the reads' base keys: the overlay cost is read_p50_us
  // minus this figure.
  double base_point_ns = 0;
  if (opt_.trace) {
    auto bare = elsi::persist::Snapshot::Load(base_snapshot_);
    std::vector<double> ns;
    size_t hits = 0;
    for (int rep = 0; rep < 15; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (const Point& p : stable_) hits += bare->PointQuery(p) ? 1 : 0;
      ns.push_back(SecondsSince(t0) * 1e9 / stable_.size());
    }
    report->Check(hits == 15 * stable_.size());
    base_point_ns = Median(ns);
  }

  const Tail writes = Percentiles(write_us_);
  size_t rebuilds = 0;
  for (size_t r : rebuilds_per_round_) rebuilds += r;
  char line[512];
  std::snprintf(line, sizeof line,
                "serve: rounds=%zu n=%zu writes_per_round=%zu (%zu inserts, "
                "%zu removes) readers=2 wal_fsync_every=32 rebuilds=%zu "
                "(%zu per round)",
                rebuilds_per_round_.size(), sz_.n, program_.size(),
                inserts_.size(), sz_.removes, rebuilds,
                rebuilds_per_round_.front());
  report->Note(line);
  std::snprintf(line, sizeof line,
                "tail: read p99 per round, median of %zu rounds (last round: "
                "%llu reads, %llu beyond; run: %llu reads), read p99.9 %.4f us "
                "(context); write p%.1f over %llu writes (%llu beyond)",
                read_p99_.size(),
                static_cast<unsigned long long>(last_round_reads_),
                static_cast<unsigned long long>(round_reads_beyond_),
                static_cast<unsigned long long>(reads_total_),
                Median(read_p999_),
                writes.percentile,
                static_cast<unsigned long long>(writes.samples),
                static_cast<unsigned long long>(writes.beyond));
  report->Note(line);
  std::snprintf(line, sizeof line,
                "end-to-end: serve_ops_per_s=%.1f read_p50_us=%.4f "
                "read_tail_us=%.4f write_p50_us=%.4f write_tail_us=%.4f",
                Median(ops_per_s_), Median(read_p50_), Median(read_p99_),
                writes.p50, writes.tail);
  report->Note(line);

  if (!opt_.trace) {
    report->Add("serve_ops_per_s", Median(ops_per_s_), "ops/s");
    report->Add("read_p50_us", Median(read_p50_), "us");
    report->Add("read_tail_us", Median(read_p99_), "us");
    report->Add("write_p50_us", writes.p50, "us");
    report->Add("write_tail_us", writes.tail, "us");
    return;
  }

  auto span_mean_ns = [&spans](const char* name) {
    for (const elsi::prof::SpanCost& s : spans) {
      if (s.name == name && s.count > 0) {
        return static_cast<double>(s.wall_ns) / s.count;
      }
    }
    return 0.0;
  };
  const double per_rebuild = rebuilds > 0 ? 1.0 / rebuilds : 0.0;
  report->Add("core.update.rebuilds",
              static_cast<double>(rebuilds_per_round_.front()), "count/round");
  report->Add("persist.rebuild_swap_ms", Median(swap_ms_), "ms");
  report->Add("ml.rebuild_train_ms", train_s * 1e3 * per_rebuild, "ms");
  report->Add("persist.snapshot_write_ms",
              span_mean_ns("persist.snapshot_write") / 1e6, "ms");
  report->Add("persist.wal_fsync_us",
              span_mean_ns("wal.group_commit_fsync") / 1e3, "us");
  report->Add("core.concurrent.delta_depth_mean",
              depth_sum_ / std::max<uint64_t>(1, reads_total_), "entries");
  report->Add("learned.zm.base_point_ns", base_point_ns, "ns");
}

}  // namespace

std::unique_ptr<Phase> MakeServePhase(const Options& opt) {
  return std::make_unique<ServePhase>(opt);
}

}  // namespace elsibench
