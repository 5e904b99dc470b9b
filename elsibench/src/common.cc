#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "core/scorer_trainer.h"
#include "data/synthetic.h"
#include "persist/io.h"
#include "persist/model_cache.h"

namespace elsibench {

// ----------------------------------------------------------------- inputs

bool FindWorkload(const std::string& name, Workload* out) {
  if (name == "osm1") {
    *out = {name, elsi::DatasetKind::kOsm1, elsi::DatasetKind::kNyc};
  } else if (name == "nyc") {
    *out = {name, elsi::DatasetKind::kNyc, elsi::DatasetKind::kOsm1};
  } else {
    return false;
  }
  return true;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

std::vector<Point> MakeDataset(elsi::DatasetKind kind, size_t n,
                               uint64_t first_id) {
  std::vector<Point> out = elsi::GenerateDataset(kind, n, kDataSeed);
  for (Point& p : out) p.id += first_id;
  return out;
}

std::vector<Point> SamplePoints(const std::vector<Point>& data, size_t count,
                                uint64_t seed) {
  Rng rng(seed * 0x100000001B3ULL + 47);
  std::vector<size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  count = std::min(count, data.size());
  for (size_t i = 0; i < count; ++i) {
    std::swap(idx[i], idx[i + rng.Below(data.size() - i)]);
  }
  std::vector<Point> out(count);
  for (size_t i = 0; i < count; ++i) out[i] = data[idx[i]];
  return out;
}

namespace {

/// Z-order key of a point of the unit square at 16 bits per axis.
uint32_t ZKey(const Point& p) {
  auto spread = [](double v) {
    uint32_t b = static_cast<uint32_t>(Clamp01(v) * 65535.0);
    b = (b | (b << 8)) & 0x00FF00FFu;
    b = (b | (b << 4)) & 0x0F0F0F0Fu;
    b = (b | (b << 2)) & 0x33333333u;
    b = (b | (b << 1)) & 0x55555555u;
    return b;
  };
  return spread(p.x) | (spread(p.y) << 1);
}

}  // namespace

std::vector<Point> SpreadPoints(const std::vector<Point>& data, size_t count,
                                uint64_t seed) {
  std::vector<std::pair<uint32_t, size_t>> order(data.size());
  for (size_t i = 0; i < data.size(); ++i) order[i] = {ZKey(data[i]), i};
  std::sort(order.begin(), order.end());
  count = std::min(count, data.size());
  Rng rng(seed * 0x100000001B3ULL + 53);
  std::vector<Point> out(count);
  for (size_t r = 0; r < count; ++r) {
    const size_t lo = r * data.size() / count;
    const size_t hi = (r + 1) * data.size() / count;
    out[r] = data[order[lo + rng.Below(hi - lo)].second];
  }
  for (size_t i = count; i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

std::vector<Rect> MakeWindows(const std::vector<Point>& data, size_t count,
                              double area, uint64_t seed) {
  const double half = std::sqrt(area) / 2;
  std::vector<Rect> out;
  for (const Point& c : SpreadPoints(data, count, seed + 1)) {
    out.push_back(Rect::Of(Clamp01(c.x - half), Clamp01(c.y - half),
                           Clamp01(c.x + half), Clamp01(c.y + half)));
  }
  return out;
}

// ----------------------------------------------------------------- oracle

namespace {

bool CanonLess(const Point& a, const Point& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.id < b.id;
}

double Dist2(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Strict (x, y, id) order, so no point repeats.
bool CanonicalAndUnique(const std::vector<Point>& pts) {
  for (size_t i = 1; i < pts.size(); ++i) {
    if (!CanonLess(pts[i - 1], pts[i])) return false;
  }
  return true;
}

}  // namespace

std::vector<Point> OracleWindow(const std::vector<Point>& data, const Rect& w) {
  std::vector<Point> out;
  for (const Point& p : data) {
    if (p.x >= w.lo_x && p.x <= w.hi_x && p.y >= w.lo_y && p.y <= w.hi_y) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end(), CanonLess);
  return out;
}

std::vector<Point> OracleKnn(const std::vector<Point>& data, const Point& q,
                             size_t k) {
  std::vector<std::pair<double, uint64_t>> keyed(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    keyed[i] = {Dist2(data[i], q), i};
  }
  k = std::min(k, keyed.size());
  auto by_dist_id = [&data](const std::pair<double, uint64_t>& a,
                            const std::pair<double, uint64_t>& b) {
    if (a.first != b.first) return a.first < b.first;
    return data[a.second].id < data[b.second].id;
  };
  std::partial_sort(keyed.begin(), keyed.begin() + k, keyed.end(), by_dist_id);
  std::vector<Point> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = data[keyed[i].second];
  return out;
}

bool SameWindow(const std::vector<Point>& got, const std::vector<Point>& want) {
  return got == want;
}

bool SameKnn(const std::vector<Point>& got, const std::vector<Point>& want) {
  return got == want;
}

bool ValidApproxWindow(const Rect& w, const std::vector<Point>& got,
                       const std::vector<Point>& truth) {
  if (!CanonicalAndUnique(got)) return false;
  for (const Point& p : got) {
    if (!w.Contains(p)) return false;
  }
  return Overlap(got, truth) == got.size();
}

bool ValidApproxKnn(const Point& q, size_t k, const std::vector<Point>& got,
                    const std::vector<Point>& data) {
  if (got.size() > k) return false;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    const Point& p = got[i];
    if (p.id >= data.size() || !(data[p.id] == p)) return false;
    ids.push_back(p.id);
    if (i > 0) {
      const double a = Dist2(got[i - 1], q);
      const double b = Dist2(p, q);
      if (a > b || (a == b && got[i - 1].id >= p.id)) return false;
    }
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

size_t Overlap(const std::vector<Point>& got, const std::vector<Point>& truth) {
  std::vector<Point> a = got;
  std::vector<Point> b = truth;
  std::sort(a.begin(), a.end(), CanonLess);
  std::sort(b.begin(), b.end(), CanonLess);
  size_t i = 0, j = 0, both = 0;
  while (i < a.size() && j < b.size()) {
    if (CanonLess(a[i], b[j])) {
      ++i;
    } else if (CanonLess(b[j], a[i])) {
      ++j;
    } else {
      ++both, ++i, ++j;
    }
  }
  return both;
}

// --------------------------------------------------------- program set-up

elsi::BuildProcessorConfig ProcessorConfig(size_t n) {
  elsi::BuildProcessorConfig cfg;
  cfg.model.hidden = {16};
  cfg.model.epochs = 120;
  cfg.model.learning_rate = 0.01;
  cfg.model.seed = 42;
  cfg.seed = 42;
  cfg.sp.rho = 0.005;
  cfg.rsp.rho = 0.005;
  cfg.cl.clusters = 100;
  cfg.rs.beta = std::max<size_t>(64, n / 100);
  cfg.rl.eta = 8;
  cfg.rl.max_steps = 300;
  cfg.mr.epsilon = 0.5;
  cfg.mr.synthetic_size = 1024;
  return cfg;
}

elsi::BaseIndexScale IndexScale(size_t n, elsi::ThreadPool* pool) {
  elsi::BaseIndexScale scale;
  scale.leaf_target = std::max<size_t>(2500, n / 8);
  scale.pool = pool;
  return scale;
}

std::shared_ptr<const elsi::MethodScorer> LoadScorer(const Options& opt) {
  std::vector<elsi::ScorerSample> samples;
  if (!elsi::persist::LoadScorerSamples(opt.inputs_dir, &samples) ||
      samples.empty()) {
    std::fprintf(stderr, "elsibench: cannot load pinned scorer samples in %s\n",
                 opt.inputs_dir.c_str());
    std::exit(2);
  }
  auto scorer = std::make_shared<elsi::MethodScorer>();
  scorer->Train(samples);
  return scorer;
}

std::shared_ptr<const elsi::RebuildPredictor> LoadRebuildPredictor(
    const Options& opt) {
  std::vector<elsi::RebuildSample> samples;
  if (!elsi::persist::LoadRebuildSamples(opt.inputs_dir, &samples) ||
      samples.empty()) {
    std::fprintf(stderr,
                 "elsibench: cannot load pinned rebuild samples in %s\n",
                 opt.inputs_dir.c_str());
    std::exit(2);
  }
  auto predictor = std::make_shared<elsi::RebuildPredictor>();
  predictor->Train(samples);
  return predictor;
}

int RegenerateInputs(const Options& opt) {
  // The same campaigns the repository's figure benches measure, at the
  // same scale, so the pinned inputs are interchangeable with theirs.
  elsi::ScorerTrainerConfig scorer_cfg;
  scorer_cfg.log10_min = 3.0;
  scorer_cfg.log10_max = 4.4;
  scorer_cfg.cardinality_levels = 3;
  scorer_cfg.dissimilarities = {0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9};
  scorer_cfg.queries = 512;
  scorer_cfg.processor = ProcessorConfig(25000);
  scorer_cfg.seed = 42;
  std::fprintf(stderr, "elsibench: measuring scorer samples...\n");
  const elsi::ScorerTrainingData scorer =
      elsi::GenerateScorerTrainingData(scorer_cfg);

  elsi::RebuildTrainerConfig rebuild_cfg;
  rebuild_cfg.base_n = 10000;
  rebuild_cfg.datasets = 4;
  rebuild_cfg.checkpoints = 7;
  rebuild_cfg.queries = 300;
  rebuild_cfg.seed = 42;
  std::fprintf(stderr, "elsibench: measuring rebuild samples...\n");
  const std::vector<elsi::RebuildSample> rebuild =
      elsi::GenerateRebuildTrainingData(rebuild_cfg);

  if (!elsi::persist::SaveScorerSamples(opt.inputs_dir, scorer.samples) ||
      !elsi::persist::SaveRebuildSamples(opt.inputs_dir, rebuild)) {
    std::fprintf(stderr, "elsibench: cannot write samples to %s\n",
                 opt.inputs_dir.c_str());
    return 1;
  }
  std::fprintf(stderr, "elsibench: wrote %zu scorer and %zu rebuild samples\n",
               scorer.samples.size(), rebuild.size());
  return 0;
}

elsi::RankModel TimingTrainer::TrainModel(
    const std::vector<Point>& sorted_pts,
    const std::vector<double>& sorted_keys,
    const std::function<double(const Point&)>& key_fn) {
  const Clock::time_point t0 = Clock::now();
  elsi::RankModel model = inner_->TrainModel(sorted_pts, sorted_keys, key_fn);
  nanos_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  ++calls_;
  return model;
}

// ----------------------------------------------------------------- phases

void SetupShared(const Options& opt, Shared* shared) {
  const size_t n = opt.size == Size::kSmoke ? 4000 : 50000;
  shared->data = MakeDataset(opt.workload.base, n, 0);
  shared->selector =
      std::make_shared<elsi::ScorerSelector>(LoadScorer(opt), kLambda, 1.0);
  shared->processors.clear();
  for (elsi::BaseIndexKind kind : elsi::kAllBaseIndexKinds) {
    shared->processors[kind] =
        elsi::MakeElsiProcessor(kind, ProcessorConfig(n), shared->selector);
  }
}

// ----------------------------------------------------------------- timing

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

namespace {

constexpr double kHistMinUs = 0.01;
constexpr double kHistGrowth = 1.001;
const double kHistLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::log(1e8 / kHistMinUs) / kHistLogGrowth) + 1;

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  size_t b = 0;
  if (us > kHistMinUs) {
    b = std::min(kHistBuckets - 1, static_cast<size_t>(std::log(us / kHistMinUs) /
                                                       kHistLogGrowth));
  }
  ++buckets_[b];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kHistBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

void LatencyHistogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::Percentile(double pct, uint64_t* beyond) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(pct / 100.0 * count_)));
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    if (seen + buckets_[b] >= rank) {
      if (beyond != nullptr) *beyond = count_ - seen - buckets_[b];
      // Interpolated by rank inside the bucket (log scale), so the figure
      // moves smoothly instead of snapping to bucket edges.
      const double within =
          (static_cast<double>(rank - seen) - 0.5) / buckets_[b];
      return kHistMinUs * std::pow(kHistGrowth, static_cast<double>(b) + within);
    }
    seen += buckets_[b];
  }
  return 0;
}

Tail Percentiles(const LatencyHistogram& h) {
  Tail t;
  t.samples = h.count();
  t.p50 = h.Percentile(50);
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    uint64_t beyond = 0;
    const double value = h.Percentile(pct, &beyond);
    if (beyond >= 10 || pct == 50.0) {
      t.tail = value;
      t.percentile = pct;
      t.beyond = beyond;
      break;
    }
  }
  return t;
}

// ----------------------------------------------------------------- report

double TimeSetup(const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

double PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

size_t StateBytes(const elsi::SpatialIndex& index) {
  elsi::persist::Writer w;
  if (!index.SaveState(w)) return 0;
  return w.size();
}

std::string MethodHistogram(const std::map<std::string, size_t>& counts) {
  std::string out;
  for (const auto& [name, count] : counts) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(count);
  }
  return out.empty() ? "none" : out;
}

}  // namespace elsibench
