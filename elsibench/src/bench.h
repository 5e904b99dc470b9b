// Shared declarations of the ELSI benchmark: seeded inputs, the
// brute-force oracle, timing helpers and the run report. Everything here is
// the benchmark's own code; the program under test is reached only through
// its public headers.
#ifndef ELSIBENCH_BENCH_H_
#define ELSIBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <functional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "core/elsi.h"
#include "data/synthetic.h"

namespace elsibench {

using elsi::Point;
using elsi::Rect;

// ---------------------------------------------------------------- options

/// Input scale. kFull is what the benchmark measures; kSmoke is a few
/// seconds end to end for the benchmark's own smoke test.
enum class Size { kFull, kSmoke };

/// A workload is the data every phase of a run works on: the base set that
/// `build` indexes, `query` probes and `serve` starts from, and the family
/// `serve`'s writer inserts from, so that the key distribution drifts.
struct Workload {
  std::string name;
  elsi::DatasetKind base = elsi::DatasetKind::kOsm1;
  elsi::DatasetKind drift = elsi::DatasetKind::kNyc;
};

/// The workloads BENCHMARK.json names: `osm1` (clustered base, NYC-style
/// inserts) and `nyc` (extreme-skew base, OSM1-style inserts). Returns
/// false for any other name.
bool FindWorkload(const std::string& name, Workload* out);

struct Options {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  /// Directory holding the pinned scorer / rebuild-predictor samples.
  std::string inputs_dir = "elsibench/inputs";
  /// Scratch directory for WAL/snapshot directories (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

// ----------------------------------------------------------------- inputs

/// Deterministic 64-bit generator (splitmix64), so inputs are a pure
/// function of the seed on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Seed of the data sets. The sets are part of the workload and fixed;
/// --seed draws the probes, windows, removes and write order over them, so
/// costs differ between seeds by which queries run, not by the data.
inline constexpr uint64_t kDataSeed = 42;

/// `n` points of the repository's generator for `kind` (kOsm1 for the
/// OSM1-style clustered set, kNyc for the NYC-style extreme-skew set) at
/// kDataSeed, with ids first_id..first_id+n-1.
std::vector<Point> MakeDataset(elsi::DatasetKind kind, size_t n,
                               uint64_t first_id);

/// `count` distinct points of `data` in an order drawn by the seed (all of
/// them, shuffled, when count >= data.size()).
std::vector<Point> SamplePoints(const std::vector<Point>& data, size_t count,
                                uint64_t seed);

/// `count` distinct points of `data` spread over it in proportion to its
/// density: the points in Z-order are cut into `count` equal runs and the
/// seed draws one point of each run, in a seeded order. Query sets drawn
/// so cost nearly the same for every seed, where a simple random sample
/// of a few hundred points lands in dense or sparse regions by chance.
std::vector<Point> SpreadPoints(const std::vector<Point>& data, size_t count,
                                uint64_t seed);

/// Square windows of `area` (a share of the unit square) centred on
/// SpreadPoints of `data`, clipped to the unit square.
std::vector<Rect> MakeWindows(const std::vector<Point>& data, size_t count,
                              double area, uint64_t seed);

// ----------------------------------------------------------------- oracle

/// Brute-force window: every point of `data` inside `w`, in the canonical
/// (x, y, id) order.
std::vector<Point> OracleWindow(const std::vector<Point>& data, const Rect& w);

/// Brute-force k nearest neighbours, ordered by (d^2, id).
std::vector<Point> OracleKnn(const std::vector<Point>& data, const Point& q,
                             size_t k);

/// Exact kinds: the answer equals the oracle's, point for point.
bool SameWindow(const std::vector<Point>& got, const std::vector<Point>& want);

/// Exact kNN: the oracle's points in its (d^2, id) order.
bool SameKnn(const std::vector<Point>& got, const std::vector<Point>& want);

/// Approximate kinds: every point lies in `w`, order is canonical with no
/// duplicate, and every point is one of `truth` (nothing invented).
bool ValidApproxWindow(const Rect& w, const std::vector<Point>& got,
                       const std::vector<Point>& truth);

/// Approximate kNN: at most k distinct stored points ordered by (d^2, id).
/// `data` is indexed by point id.
bool ValidApproxKnn(const Point& q, size_t k, const std::vector<Point>& got,
                    const std::vector<Point>& data);

/// |got ∩ truth| by (x, y, id).
size_t Overlap(const std::vector<Point>& got, const std::vector<Point>& truth);

// --------------------------------------------------------- program set-up

/// Paper default lambda of the method scorer's Eq. 2 (Sec. VII-D).
inline constexpr double kLambda = 0.8;

/// Build-processor parameters scaled so |Ds|/n matches the paper's ratios at
/// benchmark cardinality, with the FFN epochs used across the repository's
/// CPU benches.
elsi::BuildProcessorConfig ProcessorConfig(size_t n);

/// Index structure scale at cardinality n on `pool`.
elsi::BaseIndexScale IndexScale(size_t n, elsi::ThreadPool* pool);

/// A method scorer trained on the pinned sample file. Aborts the run when
/// the file is missing or corrupt: the benchmark never re-measures inline.
std::shared_ptr<const elsi::MethodScorer> LoadScorer(const Options& opt);

/// A rebuild predictor trained on the pinned sample file (same rule).
std::shared_ptr<const elsi::RebuildPredictor> LoadRebuildPredictor(
    const Options& opt);

/// Measures both sample campaigns anew and writes them to opt.inputs_dir.
int RegenerateInputs(const Options& opt);

/// ModelTrainer wrapper that times every TrainModel call into the wrapped
/// trainer, so build wall time splits into "inside the trainer" and the
/// index's own structure work.
class TimingTrainer : public elsi::ModelTrainer {
 public:
  explicit TimingTrainer(std::shared_ptr<elsi::ModelTrainer> inner)
      : inner_(std::move(inner)) {}

  elsi::RankModel TrainModel(
      const std::vector<Point>& sorted_pts,
      const std::vector<double>& sorted_keys,
      const std::function<double(const Point&)>& key_fn) override;

  double seconds() const { return nanos_.load() * 1e-9; }
  uint64_t calls() const { return calls_.load(); }
  void Reset() {
    nanos_ = 0;
    calls_ = 0;
  }

 private:
  std::shared_ptr<elsi::ModelTrainer> inner_;
  std::atomic<uint64_t> nanos_{0};
  std::atomic<uint64_t> calls_{0};
};

// ----------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v);

/// Latency histogram with 0.1%-wide logarithmic buckets from 0.01 us to
/// 100 s: constant memory whatever the sample count, so the benchmark's own
/// buffers neither grow with run length nor reallocate while timing.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  void Clear();
  uint64_t count() const { return count_; }
  /// The pct-th percentile, interpolated inside its bucket; `beyond` (if
  /// non-null) receives the samples in higher buckets.
  double Percentile(double pct, uint64_t* beyond = nullptr) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// A latency distribution reported as a median plus the highest percentile
/// of a fixed ladder (99.9, 99, 90, 50) that keeps at least ten samples
/// beyond it.
struct Tail {
  double p50 = 0;
  double tail = 0;
  double percentile = 0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
};
Tail Percentiles(const LatencyHistogram& h);

// ----------------------------------------------------------------- report

/// What one run prints: counts, metrics in BENCHMARK.json names and units,
/// and context lines shown before the closing JSON object.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// (name, value, unit) in insertion order.
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> context;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { context.push_back(line); }
  /// One checked operation; `ok` false counts it as failed.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Runs the median-of-three set-up timing of a run: calls `setup` three
/// times and keeps the last state. Returns the median seconds.
double TimeSetup(const std::function<void()>& setup);

/// Peak resident set size of this process in bytes (VmHWM).
double PeakRssBytes();

/// Bytes of SaveState output of an index.
size_t StateBytes(const elsi::SpatialIndex& index);

/// "SP=12 MR=3 ..." from per-method counts.
std::string MethodHistogram(const std::map<std::string, size_t>& counts);

// ----------------------------------------------------------------- phases

/// Program objects that set-up makes once for every phase of a run.
struct Shared {
  /// The workload's base set at benchmark size, ids 0..n-1.
  std::vector<Point> data;
  /// The method selector at lambda = 0.8 over the pinned scorer samples.
  std::shared_ptr<elsi::ScorerSelector> selector;
  /// One ELSI build processor per kind at the size of `data`, as a
  /// deployment keeps them: constructing one pre-trains MR's model pool
  /// (the paper's offline preparation), which is set-up work.
  std::map<elsi::BaseIndexKind, std::shared_ptr<elsi::BuildProcessor>>
      processors;
};

/// Makes the shared objects of a run.
void SetupShared(const Options& opt, Shared* shared);

/// One part of every run: `build`, `query` or `serve`. Setup runs inside
/// the timed set-up (three times; the last state is kept). Begin makes the
/// seeded inputs and warms up, untimed. The run then interleaves the
/// phases' rounds until --seconds have passed, each phase getting its
/// share of the time; every Round is one whole round of the same
/// operations and checks every answer into the report. End adds the
/// phase's metrics, medians over its rounds: its end-to-end ones untraced,
/// its per-layer ones traced.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void Setup(const Shared& shared) = 0;
  virtual void Begin() = 0;
  virtual void Round(Report* report) = 0;
  virtual void End(Report* report) = 0;
  /// Rounds the run makes at least, however short, so End has a figure
  /// for everything it reports.
  virtual size_t MinRounds() const { return 1; }
};

std::unique_ptr<Phase> MakeBuildPhase(const Options& opt);
std::unique_ptr<Phase> MakeQueryPhase(const Options& opt);
std::unique_ptr<Phase> MakeServePhase(const Options& opt);

}  // namespace elsibench

#endif  // ELSIBENCH_BENCH_H_
