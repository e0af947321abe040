//===- Common.h - agbench shared types and helpers --------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every agbench workload shares: the run options, the result record
/// main() prints, the workload sizes, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef AGBENCH_COMMON_H
#define AGBENCH_COMMON_H

#include "ag/Builder.h"
#include "ag/Graph.h"

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace agbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// How big one unit of each workload is. The measured phase repeats units
/// until its time is up; --smoke shrinks every unit.
struct Sizes {
  /// acmeair_inline: requests per unit (8 closed-loop clients).
  uint64_t InlineRequests = 50000;
  /// promise_fanin: tree depth of the one round a unit runs (2^Depth
  /// leaves).
  unsigned FaninDepth = 12;
  /// replay_detect: AcmeAir requests in the recorded trace.
  uint64_t ReplayRequests = 50000;
  /// wire_epoll: requests per harness run, and per set-up run.
  uint64_t WireRequests = 10000;
  uint64_t WireSetupRequests = 2000;
  /// Set-up repetitions; setup_s is their median.
  unsigned SetupReps = 3;
  /// Measured units run even when --seconds has already elapsed.
  unsigned MinUnits = 3;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 42;
  double Seconds = 10;
  bool Traced = false;
  /// Gate the traced run on the layer reconciliation (off under --smoke,
  /// whose units are too small for a 10% rule to mean anything).
  bool Reconcile = true;
  /// Where the traced run writes <workload>.spans.tsv ("" = nowhere).
  std::string OutDir;
  /// Where workloads keep their temporary trace files.
  std::string WorkDir = ".";
  Sizes Size;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything a workload run reports back to main().
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Site-keyed warning set ("Category @ file:line"), identical for every
  /// unit of the run (a unit that disagrees is reported in Problems).
  std::set<std::string> Warnings;
  /// Failed checks, one line each; empty means the run is correct.
  std::vector<std::string> Problems;
  /// Set when the workload cannot run on this host (wire without epoll).
  std::string Skipped;

  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void problem(std::string What) { Problems.push_back(std::move(What)); }

  /// Adopts one unit's warning set: the first becomes the run's, later ones
  /// must match it.
  void unitWarnings(const std::set<std::string> &W, const char *Unit);

private:
  bool HaveWarnings = false;
};

/// The site-keyed warning set of a graph: category plus file:line, with
/// messages (which name tick and node ids) left out.
std::set<std::string> siteKeys(const asyncg::ag::AsyncGraph &G);

/// A graph's size at the end of a unit, retired regions included.
struct GraphStats {
  uint64_t TicksCommitted = 0;
  uint64_t NodesAdded = 0;
  uint64_t EdgesAdded = 0;
  uint64_t LiveNodes = 0;
  uint64_t Warnings = 0;
  double FootprintMib = 0;
};
GraphStats graphStats(const asyncg::ag::AsyncGraph &G);

/// Builder configuration every agbench builder uses: the always-on,
/// bounded-memory setting (tick-epoch retirement on).
asyncg::ag::BuilderConfig retiringBuilder();

double median(std::vector<double> V);

/// Median of \p Get over \p Units.
template <typename T, typename Fn>
double medianOf(const std::vector<T> &Units, Fn &&Get) {
  std::vector<double> V;
  for (const T &U : Units)
    V.push_back(static_cast<double>(Get(U)));
  return median(std::move(V));
}

/// Reports the ag.graph.* metrics, ticks_committed and detect.warnings as
/// medians over units that carry a GraphStats \c Graph.
template <typename T>
void graphMetrics(RunResult &R, const std::vector<T> &Units) {
  auto Med = [&](auto Field) {
    return medianOf(Units, [&](const T &U) { return U.Graph.*Field; });
  };
  R.metric("ag.builder.ticks_committed", Med(&GraphStats::TicksCommitted),
           "count");
  R.metric("ag.graph.nodes_added", Med(&GraphStats::NodesAdded), "count");
  R.metric("ag.graph.edges_added", Med(&GraphStats::EdgesAdded), "count");
  R.metric("ag.graph.live_nodes_end", Med(&GraphStats::LiveNodes), "count");
  R.metric("ag.graph.footprint_mib", Med(&GraphStats::FootprintMib), "MiB");
  R.metric("detect.warnings", Med(&GraphStats::Warnings), "count");
}

/// Latency samples in log-spaced buckets 0.1% wide, from 1 us to 100 s.
/// Its memory is fixed, so the bench's own footprint does not grow with
/// the number of samples a run collects (which would leak into
/// peak_rss_mib).
class LatencyHistogram {
public:
  LatencyHistogram() : Counts(NumBuckets), Sums(NumBuckets) {}
  void add(double Us);
  /// Nearest-rank percentile (P in [0, 1]): the mean of the samples in the
  /// bucket that holds it, so within 0.1% of the exact sample; 0 when
  /// empty.
  double percentile(double P) const;

private:
  static constexpr double Growth = 1.001;
  static constexpr size_t NumBuckets = 18440; // Growth^18440 > 1e8 us
  std::vector<uint64_t> Counts;
  std::vector<double> Sums;
  uint64_t Total = 0;
};
/// Peak resident set size of this process (VmHWM), in MiB.
double peakRssMib();
/// Returns the heap's free memory to the system. Every unit starts with
/// it, so memory one unit fragmented is not counted against the next:
/// without it replay_detect's peak RSS grew from 190 to 366 MiB over the
/// first six passes, and so with the number of passes a run fits in.
void trimHeap();
inline double mib(double Bytes) { return Bytes / (1024.0 * 1024.0); }

RunResult runAcmeAirInline(const Options &O);
RunResult runPromiseFanin(const Options &O);
RunResult runReplayDetect(const Options &O);
RunResult runWireEpoll(const Options &O);

} // namespace agbench

#endif // AGBENCH_COMMON_H
