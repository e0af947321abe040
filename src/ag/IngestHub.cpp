//===- IngestHub.cpp - Parallel trace ingestion + stream merge ------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "ag/IngestHub.h"

#include "instr/TraceCodec.h"
#include "support/MpmcQueue.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace asyncg;
using namespace asyncg::ag;

namespace {

/// Slot lifecycle: the committer marks a slot Queued and pushes its frame
/// task; whichever thread pops the task decodes into the slot and flips it
/// to Done or Error; the committer consumes it in frame order and recycles
/// it to Empty. The queue's push/pop pair carries the ownership handoff,
/// the Done store/load pair carries the decoded records back.
enum SlotState : int { SlotEmpty = 0, SlotQueued, SlotDone, SlotError };

/// Touch the leading cache lines of the next frame while the current one
/// is being applied; the bulk of the paging is handled by the madvise
/// below, this hides the first-line miss of each frame switch.
inline void prefetchFrame(const uint8_t *P, size_t Bytes) {
#if defined(__GNUC__)
  size_t N = Bytes < 4096 ? Bytes : size_t(4096);
  for (size_t O = 0; O < N; O += 64)
    __builtin_prefetch(P + O, 0, 1);
#else
  (void)P;
  (void)Bytes;
#endif
}

/// Tell the kernel the record section will be read front to back soon.
inline void adviseWillNeed(const uint8_t *P, size_t Len) {
#if defined(__unix__) || defined(__APPLE__)
  long Page = sysconf(_SC_PAGESIZE);
  if (Page <= 0 || Len == 0)
    return;
  auto Addr = reinterpret_cast<uintptr_t>(P);
  uintptr_t Aligned = Addr & ~static_cast<uintptr_t>(Page - 1);
  posix_madvise(reinterpret_cast<void *>(Aligned), Len + (Addr - Aligned),
                POSIX_MADV_WILLNEED);
#else
  (void)P;
  (void)Len;
#endif
}

} // namespace

//===----------------------------------------------------------------------===//
// Stream and decode-pool state
//===----------------------------------------------------------------------===//

struct IngestHub::Stream {
  explicit Stream(size_t Idx, std::string Path, const BuilderConfig &Config)
      : Idx(Idx), Path(std::move(Path)),
        Builder(new AsyncGBuilder(Config)) {}

  size_t Idx;
  std::string Path;
  std::unique_ptr<AsyncGBuilder> Builder;

  /// The file image and its batch plan, alive for the hub's lifetime.
  /// Plan.Frames is never shrunk after prepare (decode workers read it);
  /// truncation lowers Limit instead.
  trace::TracePlan Plan;
  instr::TraceDecoder Decoder;
  size_t Limit = 0;

  size_t NextFrame = 0;  ///< next frame to commit (in order)
  size_t NextQueued = 0; ///< next frame to hand to the decode pool
  uint64_t WindowBase = 0;

  bool Drained = false;
  uint32_t RemapInstalled = 0;

  /// Scratch for batches materialized before they are applied at
  /// Jobs == 1: raw rows, and recovered frames (a half-decoded frame must
  /// not leak events into the builder).
  std::vector<trace::TraceRecord> Scratch;

  /// Handoff-stat scan cursor into the builder graph's node storage.
  size_t ScanPos = 0;

  struct Slot {
    std::vector<trace::TraceRecord> Records;
    std::string Err;
    std::atomic<int> State{SlotEmpty};
  };
  /// Sliding decode window; frame F lands in slot F % Slots.size().
  std::vector<Slot> Slots;
};

struct IngestHub::DecodePool {
  struct Task {
    Stream *S = nullptr;
    size_t FrameIdx = 0;
  };

  DecodePool(unsigned Workers, size_t QueueCap) : Queue(QueueCap) {
    Threads.reserve(Workers);
    for (unsigned I = 0; I != Workers; ++I)
      Threads.emplace_back([this] { workerMain(); });
  }

  ~DecodePool() {
    {
      std::lock_guard<std::mutex> L(M);
      Stop.store(true, std::memory_order_relaxed);
    }
    Cv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// Pops and decodes one frame task; false when the queue is empty. Also
  /// the committer's steal entry point: decode is stateless, so any thread
  /// may serve any task.
  bool runOne() {
    Task T;
    if (!Queue.tryPop(T))
      return false;
    Stream::Slot &SL = T.S->Slots[T.FrameIdx % T.S->Slots.size()];
    bool Ok = T.S->Plan.decode(T.FrameIdx, SL.Records, &SL.Err);
    SL.State.store(Ok ? SlotDone : SlotError, std::memory_order_release);
    Cv.notify_all();
    return true;
  }

  void notifyWork() { Cv.notify_all(); }

  void waitBriefly() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait_for(L, std::chrono::milliseconds(1));
  }

  void workerMain() {
    while (!Stop.load(std::memory_order_relaxed)) {
      if (runOne())
        continue;
      std::unique_lock<std::mutex> L(M);
      if (Stop.load(std::memory_order_relaxed) || Queue.sizeApprox() != 0)
        continue;
      Cv.wait_for(L, std::chrono::milliseconds(1));
    }
  }

  MpmcQueue<Task> Queue;
  std::mutex M;
  std::condition_variable Cv;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

//===----------------------------------------------------------------------===//
// IngestHub
//===----------------------------------------------------------------------===//

IngestHub::IngestHub(IngestOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Jobs == 0)
    this->Opts.Jobs = 1;
  if (this->Opts.WindowTicks == 0)
    this->Opts.WindowTicks = 1;
}

IngestHub::~IngestHub() = default;

size_t IngestHub::addFile(const std::string &Path) {
  size_t Idx = Streams.size();
  Streams.emplace_back(new Stream(Idx, Path, Opts.Builder));
  Stats.Streams.emplace_back();
  Stats.Streams.back().Path = Path;
  return Idx;
}

AsyncGBuilder &IngestHub::builder(size_t I) { return *Streams[I]->Builder; }

const AsyncGBuilder &IngestHub::builder(size_t I) const {
  return *Streams[I]->Builder;
}

const AsyncGraph &IngestHub::graph() const {
  if (Streams.size() > 1)
    return Merged.merged();
  return Streams.front()->Builder->graph();
}

bool IngestHub::prepareStream(Stream &S, std::string *Err) {
  IngestStreamStats &St = Stats.Streams[S.Idx];
  trace::TracePlan &P = S.Plan;
  std::string PlanErr;
  if (!P.open(S.Path, &PlanErr)) {
    if (Err)
      *Err = S.Path + ": " + PlanErr;
    return false;
  }
  St.Version = P.Version;
  St.Recovered = P.Recovered;
  St.RecordBytes = P.RecordBytes;
  St.DroppedTailBytes = P.Recovery.DroppedBytes;
  if (!P.Recovered)
    S.Decoder.setSymbolRemap(P.Remap);
  adviseWillNeed(P.Base, static_cast<size_t>(P.Image.data() + P.Image.size() -
                                             P.Base));

  S.Limit = P.Frames.size();
  // Pre-size the graph (node/edge/tick/adjacency storage and the four node
  // indices) and the decoder's function table from the exact record count
  // the pre-scan established. The divisors slightly overshoot the observed
  // record:node (~2.8), record:edge (~1.7), record:tick (~7.5) and
  // record:funcdef (~12) ratios of the paper workloads so the *last* — and
  // costliest — rehash/reallocation never happens mid-ingest. A retiring
  // graph only ever holds its retain window, so it keeps the builder's own
  // hints: sizing it for the whole trace would reserve storage it never
  // fills.
  uint64_t Records = P.Records;
  if (Opts.Builder.BuildGraph && !Opts.Builder.Retire)
    S.Builder->graph().reserveHint(static_cast<size_t>(Records / 2 + 1024),
                                   static_cast<size_t>(Records * 2 / 3 + 1024),
                                   static_cast<size_t>(Records / 6 + 64));
  S.Decoder.reserveFuncs(static_cast<size_t>(Records / 8 + 256));
  if (Opts.Jobs >= 2)
    S.Slots = std::vector<Stream::Slot>(2 * Opts.Jobs + 2);
  return true;
}

void IngestHub::syncRemap(Stream &S, const trace::TraceFrameRef &F) {
  if (!S.Plan.Recovered || F.RemapSize == S.RemapInstalled)
    return;
  S.Decoder.setSymbolRemap(std::vector<SymbolId>(
      S.Plan.Remap.begin(), S.Plan.Remap.begin() + F.RemapSize));
  S.RemapInstalled = F.RemapSize;
}

bool IngestHub::handleBadFrame(Stream &S, size_t FrameIdx,
                               const std::string &FrameErr, std::string *Err) {
  trace::TracePlan &P = S.Plan;
  if (!P.Recovered) {
    if (Err)
      *Err = S.Path + ": " + FrameErr;
    return false;
  }
  // Clean-prefix guarantee: a recovered frame whose varint streams fail to
  // decode is dropped with everything after it. Frames stays intact for
  // in-flight decode workers; Limit carries the truncation.
  S.Limit = FrameIdx;
  P.Recovery.TailError = FrameErr;
  P.Recovery.DroppedBytes = P.Image.size() - P.Frames[FrameIdx].Offset;
  Stats.Streams[S.Idx].DroppedTailBytes = P.Recovery.DroppedBytes;
  return true;
}

bool IngestHub::pumpStream(Stream &S, std::string *Err) {
  IngestStreamStats &St = Stats.Streams[S.Idx];

  S.WindowBase = S.Builder->ticksCommitted();
  const bool Windowed = Streams.size() > 1;

  auto Commit = [&](const trace::TraceFrameRef &F, uint64_t N) {
    S.Builder->onBatchBoundary();
    St.Records += N;
    ++St.Frames;
    if (S.Plan.Recovered)
      St.RecordBytes += F.Bytes;
    Stats.Records += N;
    ++Stats.Frames;
  };
  auto WindowClosed = [&] {
    return Windowed &&
           S.Builder->ticksCommitted() - S.WindowBase >= Opts.WindowTicks;
  };

  const trace::TracePlan &P = S.Plan;
  if (Opts.Jobs < 2) {
    // Inline pipelined path: frames decode straight out of the mapping
    // under the batch memo, with the next frame prefetched during apply.
    const bool Materialize = P.Recovered || P.rawRows();
    while (S.NextFrame < S.Limit) {
      const trace::TraceFrameRef &F = P.Frames[S.NextFrame];
      syncRemap(S, F);
      if (S.NextFrame + 1 < S.Limit)
        prefetchFrame(P.Base + P.Frames[S.NextFrame + 1].Offset,
                      P.Frames[S.NextFrame + 1].Bytes);
      std::string FrameErr;
      bool Ok;
      uint64_t Emitted = 0;
      size_t Consumed = 0;
      if (!Materialize) {
        S.Decoder.beginBatch();
        Ok = trace::decodeV4Frame(
            P.Base + F.Offset, F.Bytes, Consumed,
            [&](const trace::TraceRecord &R) {
              S.Decoder.decodeOne(R, *S.Builder);
              ++Emitted;
            },
            &FrameErr);
        S.Decoder.endBatch();
      } else {
        // A torn stream's frame may fail mid-decode; materialize it first
        // so the builder only ever sees whole frames. Raw rows are copied
        // out of the image too, rather than read through a pointer cast.
        Ok = P.decode(S.NextFrame, S.Scratch, &FrameErr);
        if (Ok) {
          S.Decoder.decodeBatch(S.Scratch.data(), S.Scratch.size(),
                                *S.Builder);
          Emitted = S.Scratch.size();
        }
      }
      if (!Ok) {
        if (!handleBadFrame(S, S.NextFrame, FrameErr, Err))
          return false;
        break;
      }
      Commit(F, Emitted);
      ++S.NextFrame;
      if (WindowClosed())
        break;
    }
  } else {
    const size_t W = S.Slots.size();
    while (S.NextFrame < S.Limit) {
      // Keep the decode window primed: up to W frames in flight.
      bool Pushed = false;
      while (S.NextQueued < P.Frames.size() &&
             S.NextQueued < S.NextFrame + W) {
        Stream::Slot &QS = S.Slots[S.NextQueued % W];
        QS.State.store(SlotQueued, std::memory_order_relaxed);
        if (!Pool->Queue.tryPush({&S, S.NextQueued})) {
          QS.State.store(SlotEmpty, std::memory_order_relaxed);
          break;
        }
        Pushed = true;
        ++S.NextQueued;
      }
      if (Pushed)
        Pool->notifyWork();

      Stream::Slot &SL = S.Slots[S.NextFrame % W];
      int State = SL.State.load(std::memory_order_acquire);
      if (State == SlotDone) {
        const trace::TraceFrameRef &F = P.Frames[S.NextFrame];
        syncRemap(S, F);
        S.Decoder.decodeBatch(SL.Records.data(), SL.Records.size(),
                              *S.Builder);
        uint64_t N = SL.Records.size();
        SL.State.store(SlotEmpty, std::memory_order_relaxed);
        Commit(F, N);
        ++S.NextFrame;
        if (WindowClosed())
          break;
        continue;
      }
      if (State == SlotError) {
        std::string FrameErr = SL.Err;
        SL.State.store(SlotEmpty, std::memory_order_relaxed);
        if (!handleBadFrame(S, S.NextFrame, FrameErr, Err))
          return false;
        break;
      }
      // Next frame still decoding: steal a decode task instead of
      // blocking; park briefly only when the queue is dry too.
      if (!Pool->runOne())
        Pool->waitBriefly();
    }
  }

  if (S.NextFrame >= S.Limit)
    S.Drained = true;
  return true;
}

void IngestHub::scanHandoffs(Stream &S) {
  // Node slots are recycled under retirement, which would invalidate the
  // cursor; the live view is only kept for full graphs.
  if (Opts.Builder.Retire)
    return;
  const std::vector<AgNode> &Nodes = S.Builder->graph().nodes();
  for (; S.ScanPos < Nodes.size(); ++S.ScanPos) {
    const AgNode &N = Nodes[S.ScanPos];
    if (N.Id == InvalidNode)
      continue;
    if (N.Kind == NodeKind::CT && N.Trigger != 0) {
      CtSeen[N.Trigger] = 1;
    } else if (N.Kind == NodeKind::CE &&
               N.Api == jsrt::ApiKind::ClusterRecv && N.Sched != 0) {
      ++Stats.HandoffsSeen;
      if (CtSeen.find(N.Sched))
        ++Stats.HandoffsResolvedLive;
      else
        ParkedHandoffs.push_back(N.Sched);
    }
  }
}

void IngestHub::finishStream(Stream &S) {
  Stats.Streams[S.Idx].BadRecords = S.Decoder.badRecords();
}

bool IngestHub::run(std::string *Err) {
  if (Ran) {
    if (Err)
      *Err = "ingest hub is single-shot";
    return false;
  }
  Ran = true;
  if (Streams.empty()) {
    if (Err)
      *Err = "ingest: no input streams";
    return false;
  }

  for (auto &SP : Streams)
    if (!prepareStream(*SP, Err))
      return false;

  bool NeedPool = false;
  if (Opts.Jobs >= 2)
    for (auto &SP : Streams)
      NeedPool |= !SP->Slots.empty();
  if (NeedPool) {
    size_t Cap = Streams.size() * (2 * Opts.Jobs + 2);
    Pool.reset(new DecodePool(Opts.Jobs - 1, Cap < 64 ? 64 : Cap));
  }

  // Bounded round-robin over the live streams; each turn commits up to
  // WindowTicks ticks (single-stream runs drain in one turn).
  bool Ok = true;
  for (bool AllDrained = false; Ok && !AllDrained;) {
    AllDrained = true;
    for (auto &SP : Streams) {
      Stream &S = *SP;
      if (S.Drained)
        continue;
      ++Stats.Windows;
      if (!pumpStream(S, Err)) {
        Ok = false;
        break;
      }
      scanHandoffs(S);
      if (S.Drained)
        finishStream(S);
      else
        AllDrained = false;
    }
  }
  Pool.reset(); // joins the decode workers
  if (!Ok)
    return false;

  // Deliveries whose sender CT arrived in a later window resolve now.
  for (jsrt::ScheduleId Id : ParkedHandoffs)
    if (CtSeen.find(Id))
      ++Stats.HandoffsResolvedLive;

  // Shard-major union in stream order: identical to the single-shot
  // ShardedGraph::build() over the same graphs.
  if (Streams.size() > 1) {
    for (uint32_t I = 0; I != Streams.size(); ++I)
      Merged.mergeShard(Streams[I]->Builder->graph(), I);
    Merged.finishMerge();
  }
  return true;
}
