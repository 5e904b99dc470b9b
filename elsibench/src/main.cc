// elsibench: runs one benchmark workload against the ELSI library and
// prints context lines followed by one JSON result line. Every run sets up
// once (timed as the median of three set-ups) and then interleaves the
// rounds of three phases, `build`, `query` and `serve`, over the
// workload's data, so every run prints every end-to-end metric (untraced)
// or every per-layer metric (traced).
//
//   elsibench --workload osm1|nyc --seed N --seconds S --trace 0|1
//             [--size full|smoke] [--inputs DIR] [--work DIR]
//   elsibench --regenerate-inputs [--inputs DIR]
//
// Exit code 0 with a result line; 1 with a result line whose "correct" is
// false when any checked operation failed; 2 on bad arguments or missing
// inputs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "simd/simd.h"

#ifndef ELSIBENCH_BUILD_TYPE
#define ELSIBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using elsibench::Options;
using elsibench::Report;

/// Shares of --seconds that the build, query and serve phases measure.
/// `query` runs the most kinds of operation, so it gets the largest share.
constexpr double kPhaseShare[] = {0.15, 0.6, 0.25};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "elsibench: %s\nusage: elsibench --workload osm1|nyc "
               "--seed N --seconds S --trace 0|1 [--size full|smoke] "
               "[--inputs DIR] [--work DIR]\n       elsibench "
               "--regenerate-inputs [--inputs DIR]\n",
               why);
  std::exit(2);
}

bool ParseUnsigned(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(const Options& opt, const Report& r, bool correct) {
  std::printf("workload=%s seed=%llu trace=%d attempted=%llu failed=%llu\n",
              opt.workload.name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("context: nproc=%u simd=%s build_type=%s\n",
              std::thread::hardware_concurrency(), elsi::simd::ActiveLevelName(),
              ELSIBENCH_BUILD_TYPE);
  for (const std::string& line : r.context) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Report::Metric& m : r.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool regenerate = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--regenerate-inputs") {
      regenerate = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      if (!elsibench::FindWorkload(value, &opt.workload)) {
        Usage(("unknown workload " + std::string(value)).c_str());
      }
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &n)) Usage("--seed takes a whole number");
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &n) || n == 0 || n > 600) {
        Usage("--seconds takes a whole number from 1 to 600");
      }
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0) {
        opt.size = elsibench::Size::kFull;
      } else if (std::strcmp(value, "smoke") == 0) {
        opt.size = elsibench::Size::kSmoke;
      } else {
        Usage("--size takes full or smoke");
      }
    } else if (flag == "--inputs") {
      opt.inputs_dir = value;
    } else if (flag == "--work") {
      opt.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (regenerate) return elsibench::RegenerateInputs(opt);
  if (!have_seed || !have_seconds || !have_trace ||
      opt.workload.name.empty()) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }

  // Library-internal parallelism stays off the global pool: each workload
  // hands its own pools to the program, so no run uses more than three
  // threads of its own.
  elsi::ThreadPool::SetGlobalThreads(1);

  std::unique_ptr<elsibench::Phase> phases[] = {
      elsibench::MakeBuildPhase(opt), elsibench::MakeQueryPhase(opt),
      elsibench::MakeServePhase(opt)};
  elsibench::Shared shared;
  const double setup_s = elsibench::TimeSetup([&] {
    elsibench::SetupShared(opt, &shared);
    for (auto& phase : phases) phase->Setup(shared);
  });
  for (auto& phase : phases) phase->Begin();

  // The phases' rounds interleave over the whole run: each next round goes
  // to the phase furthest below its share of the time so far. A slow or
  // fast stretch of a shared host then touches every phase alike and only
  // some of each phase's rounds, which the medians over rounds absorb.
  Report report;
  double used_s[std::size(phases)] = {};
  size_t rounds[std::size(phases)] = {};
  const elsibench::Clock::time_point start = elsibench::Clock::now();
  for (;;) {
    size_t next = 0;
    for (size_t i = 1; i < std::size(phases); ++i) {
      if (used_s[i] / kPhaseShare[i] < used_s[next] / kPhaseShare[next]) {
        next = i;
      }
    }
    const elsibench::Clock::time_point t0 = elsibench::Clock::now();
    phases[next]->Round(&report);
    used_s[next] += elsibench::SecondsSince(t0);
    ++rounds[next];
    bool short_of_rounds = false;
    for (size_t i = 0; i < std::size(phases); ++i) {
      short_of_rounds |= rounds[i] < phases[i]->MinRounds();
    }
    if (!short_of_rounds && elsibench::SecondsSince(start) >= opt.seconds) {
      break;
    }
  }
  for (auto& phase : phases) phase->End(&report);
  char line[160];
  std::snprintf(line, sizeof line,
                "schedule: build %zu rounds %.2f s, query %zu rounds %.2f s, "
                "serve %zu rounds %.2f s",
                rounds[0], used_s[0], rounds[1], used_s[1], rounds[2],
                used_s[2]);
  report.Note(line);
  std::snprintf(line, sizeof line, "end-to-end: setup_s=%.6f", setup_s);
  report.Note(line);
  if (!opt.trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("peak_rss_bytes", elsibench::PeakRssBytes(), "bytes");
  }
  // Each wrong answer is a failed operation, and one is enough to make the
  // run incorrect.
  const bool correct = report.attempted > 0 && report.failed == 0;
  PrintResult(opt, report, correct);
  return correct ? 0 : 1;
}
