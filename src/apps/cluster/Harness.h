//===- Harness.h - N-loop AcmeAir cluster harness ---------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster-mode evaluation harness: N event loops on N threads, each
/// running its own AcmeAir server + closed-loop workload shard + Async
/// Graph builder, joined by one sim::ClusterKernel. This is the
/// SO_REUSEPORT shape of production Node clusters — the shared kernel's
/// static balancer decides which loop serves which client, loops exchange
/// worker-to-worker gossip messages over the cluster channel, and after
/// the loops join, the per-shard graphs are merged into one AsyncGraph for
/// detectors' results, queries, and rendering.
///
/// Determinism: clients are partitioned round-robin by the balancer,
/// per-shard seeds derive from the base seed, and every shard's loop is
/// single-threaded — so each shard's graph is a pure function of the
/// config. Cross-loop *arrival* interleaving is real concurrency and not
/// deterministic, but warnings are site-keyed, so the merged warning set
/// is stable across runs.
///
/// Time: each shard has its own virtual clock, exactly like wall clocks of
/// separate cores. The cluster's aggregate virtual throughput is
/// TotalRequests / max-over-shards(virtual serving time) — the virtual
/// analogue of "wall time until the last core finishes". On a machine with
/// fewer cores than loops the wall-clock numbers time-slice and cannot
/// show the scaling; the virtual numbers are the honest ones there.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_APPS_CLUSTER_HARNESS_H
#define ASYNCG_APPS_CLUSTER_HARNESS_H

#include "ag/AsyncPipeline.h"
#include "ag/ShardedGraph.h"
#include "apps/acmeair/LoadGen.h"
#include "sim/Cluster.h"
#include "sim/Fault.h"
#include "sim/Kernel.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace asyncg {
namespace cluster {

/// Cluster harness configuration.
struct ClusterConfig {
  /// Number of event loops (shards). 1 reproduces the classic single-loop
  /// run through the cluster code path.
  uint32_t Loops = 1;
  /// Kernel backend for every shard loop. Sim (default) is the virtual-time
  /// run: closed-loop WorkloadDriver clients inside each loop, deterministic
  /// results. Epoll turns the cluster into a real SO_REUSEPORT server
  /// group: every shard binds Port, the Linux kernel balances accepts, and
  /// the built-in wire load generator (TotalClients keep-alive connections,
  /// TotalRequests requests) drives them from a separate thread — in-loop
  /// drivers would have their connections cross-routed to sibling shards.
  /// Shutdown is each shard's EpollKernel::requestStop once the load
  /// completes; results are wall-clock, not deterministic.
  sim::KernelBackend Backend = sim::KernelBackend::Sim;
  /// TCP port every shard binds (real backends; also the simulated port).
  int Port = 9080;
  /// Real backends only: skip the built-in load generator and keep serving
  /// until ClusterHarness::stop() is called (an external driver such as
  /// tools/agload supplies the traffic).
  bool ServeOnly = false;
  /// Total client requests across the whole cluster.
  uint64_t TotalRequests = 1000;
  /// Total closed-loop clients across the whole cluster, partitioned
  /// round-robin by the kernel balancer.
  int TotalClients = 8;
  uint64_t Seed = 42;
  /// Promise-version db interface (the paper's modified AcmeAir).
  bool UsePromises = true;
  /// Attach per-shard AsyncGBuilder + DetectorSuite. Off = baseline.
  bool Instrument = true;
  /// Build each shard's graph behind its own SPSC ring pipeline instead of
  /// inline on the loop thread.
  ag::PipelineMode Mode = ag::PipelineMode::Synchronous;
  size_t RingCapacity = 1 << 21;
  /// Worker-to-worker gossip over the cluster channel (Loops > 1 only):
  /// each loop periodically broadcasts its served-count to the next loop.
  /// Exercises the cross-loop edge machinery under the real workload.
  bool Gossip = true;
  /// Re-arming gossip timer rounds per loop.
  int GossipRounds = 8;
  /// Gossip timer period (virtual milliseconds).
  double GossipIntervalMs = 5;
  /// When non-empty, each shard records its event stream to
  /// `<RecordDir>/shard<S>.agtrace` (shard id in the stream, so the files
  /// can be replayed into a ShardedGraph merge offline).
  std::string RecordDir;
  /// Trace file encoding for RecordDir (4 = columnar delta frames).
  uint32_t TraceVer = trace::TraceVersion;
  /// Deterministic fault injection for every shard loop (DESIGN.md §5i).
  /// Each shard derives its own injector seed from FaultSeed, so the
  /// per-shard fault schedule is reproducible across runs.
  sim::FaultSpec Faults;
  uint64_t FaultSeed = 1;
  /// Ring-full policy of the async pipeline (Async mode only). Degrade
  /// enables the graceful-degradation ladder.
  ag::BackpressurePolicy Policy = ag::BackpressurePolicy::Block;
};

/// Per-shard outcome.
struct ShardResult {
  uint64_t Issued = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  uint64_t Served = 0;
  /// The shard's virtual clock when its loop drained (microseconds).
  uint64_t VirtualTimeUs = 0;
  /// Cluster messages this shard sent / had delivered to it.
  uint64_t Sent = 0;
  uint64_t Received = 0;
  sim::ClusterShardStats Kernel;
  /// Kernel-syscall cost model for this shard's loop (zeros on the sim
  /// backend, which never enters the OS).
  sim::KernelStats Sys;
  /// SPSC ring backpressure (zeros when Mode is Synchronous).
  ag::BackpressureStats Backpressure;
  uint64_t PushedRecords = 0;
  /// Record-section bytes written to this shard's trace file (0 when
  /// RecordDir is empty).
  uint64_t RecordedBytes = 0;
  /// Graceful-degradation ladder outcome (zeros unless Policy is Degrade).
  ag::DegradationStats Degradation;
  /// Hardened network error-path counters (zeros on the sim backend or
  /// when no faults are injected).
  sim::NetRecoveryStats Net;
  /// Fault-injection outcome for this shard's injector (zeros when
  /// Faults.any() is false).
  uint64_t FaultDecisions = 0;
  uint64_t FaultsInjected = 0;
  /// scheduleDigest() of the shard's injector — identical across two runs
  /// with the same (spec, seed, workload).
  uint64_t FaultDigest = 0;
};

/// Whole-cluster outcome.
struct ClusterResult {
  std::vector<ShardResult> Shards;
  ag::MergeStats Merge;
  /// Slowest shard's virtual serving time (microseconds).
  uint64_t MaxVirtualTimeUs = 0;
  /// TotalRequests / MaxVirtualTime — the cluster's aggregate virtual
  /// throughput (requests per virtual second).
  double VirtualThroughput = 0;
  /// Wall time of the whole run (all loops + merge), seconds.
  double WallSeconds = 0;
  uint64_t TotalCompleted = 0;
  uint64_t TotalErrors = 0;
  /// Merged warnings as resolved "Category: message (file:line)" strings,
  /// sorted (symbol ids are interleaving-dependent; strings are not).
  std::vector<std::string> Warnings;
  /// Wire-load outcome (real backends only; zeros on the sim backend).
  acmeair::LoadStats Wire;
  /// Kernel-syscall cost model summed over all shard loops.
  sim::KernelStats Sys;
  /// Degradation ladder merged over all shards (Policy == Degrade only).
  ag::DegradationStats Degradation;
  /// Network recovery counters summed over all shards.
  sim::NetRecoveryStats Net;
  /// Fault-injection totals over all shards.
  uint64_t FaultDecisions = 0;
  uint64_t FaultsInjected = 0;
};

/// Runs the cluster. Single-shot: construct, run(), then inspect the
/// merged graph.
class ClusterHarness {
public:
  explicit ClusterHarness(ClusterConfig Config) : Config(Config) {}

  ClusterResult run();

  /// Ends a ServeOnly run: the serving loops drain and run() returns.
  /// Async-signal-safe (a plain atomic store), so a SIGINT handler may
  /// call it directly. No effect on non-ServeOnly runs.
  void stop() { StopServing.store(true, std::memory_order_release); }

  /// The merged Async Graph (valid after run()).
  const ag::AsyncGraph &merged() const { return Merged.merged(); }
  const ag::MergeStats &mergeStats() const { return Merged.stats(); }

private:
  ClusterConfig Config;
  ag::ShardedGraph Merged;
  std::atomic<bool> StopServing{false};
};

/// Formats a merged graph's warnings as sorted resolved strings (also used
/// by tests to compare single-loop vs merged warning sets).
std::vector<std::string> resolveWarnings(const ag::AsyncGraph &G);

} // namespace cluster
} // namespace asyncg

#endif // ASYNCG_APPS_CLUSTER_HARNESS_H
