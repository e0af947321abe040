//===- IngestTest.cpp - parallel ingest hub parity + MpmcQueue ---------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ingest hub is the only path from a recording to a graph, and its
/// one non-negotiable contract is parity with the live in-process build of
/// the recorded run — DOT output and warning report — at every job count,
/// for every stream condition it claims to handle. These tests pin that
/// down:
///
///  - Table-I cases and an AcmeAir workload, live vs jobs 1/2/4;
///  - two-shard cluster streams: the hub's streaming merge vs the
///    harness's own merged graph;
///  - torn-tail traces: the recovered prefix holds exactly the records of
///    the intact file's frames that end before the cut, identically at
///    jobs 1 and 4;
///  - raw v2/v3 traces: batches of rows through the same ordered apply,
///    including their bad-record accounting.
///
/// Plus unit and two-thread stress coverage for the MpmcQueue the decode
/// pool schedules through. The bench smoke --check leg re-runs this suite
/// under TSan, which is what turns "the pool has no data races" into an
/// enforced property.
///
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "ag/IngestHub.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "support/MpmcQueue.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace asyncg;
using namespace asyncg::cases;
using namespace asyncg::testutil;

namespace {

//===----------------------------------------------------------------------===//
// MpmcQueue
//===----------------------------------------------------------------------===//

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(MpmcQueue<int>(65).capacity(), 128u);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> Q(8);
  int Out = -1;
  EXPECT_FALSE(Q.tryPop(Out));
  for (int I = 0; I != 8; ++I)
    EXPECT_TRUE(Q.tryPush(I));
  EXPECT_FALSE(Q.tryPush(99)) << "queue should be full";
  for (int I = 0; I != 8; ++I) {
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, I);
  }
  EXPECT_FALSE(Q.tryPop(Out));
}

TEST(MpmcQueue, WrapsAroundManyTimes) {
  MpmcQueue<int> Q(4);
  int Out = -1;
  for (int I = 0; I != 1000; ++I) {
    ASSERT_TRUE(Q.tryPush(I));
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, I);
  }
}

TEST(MpmcQueue, MovesValues) {
  MpmcQueue<std::unique_ptr<int>> Q(4);
  ASSERT_TRUE(Q.tryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> Out;
  ASSERT_TRUE(Q.tryPop(Out));
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(*Out, 42);
}

TEST(MpmcQueue, ConcurrentProducersConsumers) {
  // 2 producers x 2 consumers over a small ring: every pushed value must
  // come out exactly once. Run under TSan by the bench smoke --check leg.
  constexpr int PerProducer = 20000;
  MpmcQueue<int> Q(64);
  std::atomic<int> Consumed{0};
  std::vector<std::atomic<int>> Seen(2 * PerProducer);
  for (auto &S : Seen)
    S.store(0);

  auto Producer = [&](int Base) {
    for (int I = 0; I != PerProducer; ++I)
      while (!Q.tryPush(Base + I))
        std::this_thread::yield();
  };
  auto Consumer = [&] {
    int V;
    while (Consumed.load(std::memory_order_relaxed) < 2 * PerProducer) {
      if (Q.tryPop(V)) {
        Seen[static_cast<size_t>(V)].fetch_add(1);
        Consumed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::thread P0(Producer, 0), P1(Producer, PerProducer);
  std::thread C0(Consumer), C1(Consumer);
  P0.join();
  P1.join();
  C0.join();
  C1.join();
  for (int I = 0; I != 2 * PerProducer; ++I)
    ASSERT_EQ(Seen[static_cast<size_t>(I)].load(), 1) << "value " << I;
}

//===----------------------------------------------------------------------===//
// Table-I case parity across job counts
//===----------------------------------------------------------------------===//

class IngestCaseParity : public ::testing::TestWithParam<size_t> {};

std::string ingestCaseName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string N = allCases()[Info.param].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

TEST_P(IngestCaseParity, EveryJobCountMatchesSerialReplay) {
  const CaseDef &Def = allCases()[GetParam()];
  std::string Path = uniqueTempPath("case");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  runCaseWith(Def, /*Fixed=*/false, Rec);
  ASSERT_TRUE(Rec.finalize());

  Rendered Want = liveCase(Def, /*Fixed=*/false);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Ingested Got = ingest({Path}, Jobs);
    ASSERT_TRUE(Got.Ok) << Got.Err;
    EXPECT_EQ(Got.Out.Dot, Want.Dot);
    expectLiveWarnings(Got.Out.Warnings, Want.Warnings, Def, /*Fixed=*/false);
    ASSERT_EQ(Got.Stats.Streams.size(), 1u);
    EXPECT_FALSE(Got.Stats.Streams[0].Recovered);
    EXPECT_EQ(Got.Stats.Records, Rec.recordCount());
    EXPECT_EQ(Got.Stats.Records, Got.Stats.Streams[0].Records);
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllCases, IngestCaseParity,
                         ::testing::Range<size_t>(0, allCases().size()),
                         ingestCaseName);

//===----------------------------------------------------------------------===//
// AcmeAir workload parity (with live detectors riding the ordered commit)
//===----------------------------------------------------------------------===//

TEST(IngestAcmeAir, JobSweepMatchesSerialReplay) {
  using namespace asyncg::jsrt;
  using namespace asyncg::acmeair;
  std::string Path = uniqueTempPath("acmeair");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  ag::AsyncGBuilder Live;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Live);
  {
    Runtime RT;
    AppConfig ACfg;
    AcmeAirApp App(RT, ACfg);
    WorkloadConfig WCfg;
    WCfg.TotalRequests = 400;
    WCfg.Clients = 4;
    WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&Live);
    RT.hooks().attach(&Rec);
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    ASSERT_TRUE(Rec.finalize());
    ASSERT_EQ(Driver.completed(), 400u);
  }

  Rendered Want = render(Live.graph());
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Ingested Got = ingest({Path}, Jobs);
    ASSERT_TRUE(Got.Ok) << Got.Err;
    // Multi-megabyte strings: compare without gtest's full diff.
    EXPECT_TRUE(Got.Out.Dot == Want.Dot);
    EXPECT_TRUE(Got.Out.Warnings == Want.Warnings);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Multi-stream merge parity
//===----------------------------------------------------------------------===//

TEST(IngestMerge, StreamingMergeMatchesBatchAndHarness) {
  using namespace asyncg::cluster;
  std::string Dir = uniqueTempPath("shards", "");
  ASSERT_EQ(::system(("mkdir -p " + Dir).c_str()), 0);
  ClusterConfig CCfg;
  CCfg.Loops = 2;
  CCfg.TotalRequests = 300;
  CCfg.TotalClients = 4;
  CCfg.RecordDir = Dir;
  ClusterHarness Harness(CCfg);
  Harness.run();
  // The harness built each shard's graph live (detectors attached) and
  // merged them: the reference the offline merge must reproduce.
  Rendered Want = render(Harness.merged());

  std::vector<std::string> Paths = {Dir + "/shard0.agtrace",
                                    Dir + "/shard1.agtrace"};
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Ingested Got = ingest(Paths, Jobs);
    ASSERT_TRUE(Got.Ok) << Got.Err;
    EXPECT_EQ(Got.Out.Dot, Want.Dot);
    EXPECT_EQ(Got.Out.Warnings, Want.Warnings);
    ASSERT_EQ(Got.Stats.Streams.size(), 2u);
    // Round-robin windows: with two live streams every stream must have
    // been scheduled at least once.
    EXPECT_GE(Got.Stats.Windows, 2u);
    // Cross-loop deliveries exist in any 2-loop cluster run, and the
    // live view must agree with itself: resolved <= seen.
    EXPECT_GT(Got.Stats.HandoffsSeen, 0u);
    EXPECT_LE(Got.Stats.HandoffsResolvedLive, Got.Stats.HandoffsSeen);
  }
  for (const std::string &P : Paths)
    std::remove(P.c_str());
  std::remove(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Torn-tail recovery
//===----------------------------------------------------------------------===//

TEST(IngestRecovery, TornTailMatchesSerialRecoveredReplay) {
  // Record a real workload, then cut the file mid-frame. The hub must
  // recover exactly the frames that end before the cut, into the same
  // graph at any job count. The Table-I programs vary widely in trace
  // size, so pick the first one whose recording is big enough that a 60%
  // cut still lands inside the record section.
  std::string Path = uniqueTempPath("intact");
  std::vector<uint8_t> Image;
  for (const CaseDef &Def : allCases()) {
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path));
    runCaseWith(Def, /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());
    Image = slurpBytes(Path);
    if (Image.size() > 4096)
      break;
  }
  ASSERT_GT(Image.size(), 4096u)
      << "no Table-I case records a trace big enough to tear";

  for (double Frac : {0.9, 0.6}) {
    SCOPED_TRACE("cut at " + std::to_string(Frac));
    std::string Torn = uniqueTempPath("torn");
    size_t Cut = static_cast<size_t>(Image.size() * Frac);
    spitBytes(Torn, std::vector<uint8_t>(Image.begin(), Image.begin() + Cut));
    uint64_t Want = recordsOfFramesBefore(Path, Cut);

    Ingested One = ingest({Torn}, 1);
    ASSERT_TRUE(One.Ok) << One.Err;
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs));
      Ingested Got = Jobs == 1 ? One : ingest({Torn}, Jobs);
      ASSERT_TRUE(Got.Ok) << Got.Err;
      EXPECT_EQ(Got.Out.Dot, One.Out.Dot);
      EXPECT_EQ(Got.Out.Warnings, One.Out.Warnings);
      ASSERT_EQ(Got.Stats.Streams.size(), 1u);
      EXPECT_TRUE(Got.Stats.Streams[0].Recovered);
      EXPECT_EQ(Got.Stats.Streams[0].Records, Want);
      EXPECT_GT(Got.Stats.Streams[0].DroppedTailBytes, 0u);
    }
    std::remove(Torn.c_str());
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Raw v1..v3 rows
//===----------------------------------------------------------------------===//

TEST(IngestRaw, RawRowsMatchLiveBuild) {
  const CaseDef &Def = allCases()[0];
  Rendered Want = liveCase(Def, /*Fixed=*/false);
  for (uint32_t Version : {2u, 3u}) {
    SCOPED_TRACE("v" + std::to_string(Version));
    std::string Path = uniqueTempPath("raw_v" + std::to_string(Version));
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, Version));
    runCaseWith(Def, /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());

    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs));
      Ingested Got = ingest({Path}, Jobs);
      ASSERT_TRUE(Got.Ok) << Got.Err;
      EXPECT_EQ(Got.Out.Dot, Want.Dot);
      EXPECT_EQ(Got.Out.Warnings, Want.Warnings);
      ASSERT_EQ(Got.Stats.Streams.size(), 1u);
      EXPECT_EQ(Got.Stats.Streams[0].Version, Version);
      EXPECT_EQ(Got.Stats.Streams[0].Records, Rec.recordCount());
      EXPECT_EQ(Got.Stats.Streams[0].BadRecords, 0u);
    }
    std::remove(Path.c_str());
  }
}

TEST(IngestRaw, CorruptRowCountsAsBadRecord) {
  // A v3 trace of Table-I case 0 with one FuncDef row's opcode overwritten
  // by an unknown value: the decoder skips that row and must say so.
  std::string Path = uniqueTempPath("raw_bad");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, /*Version=*/3));
  runCaseWith(allCases()[0], /*Fixed=*/false, Rec);
  ASSERT_TRUE(Rec.finalize());
  std::vector<uint8_t> Bytes = slurpBytes(Path);
  const size_t Header = sizeof(trace::TraceFileHeader);
  const size_t Row = sizeof(trace::TraceRecord);
  bool Patched = false;
  for (uint64_t I = 0; I != Rec.recordCount() && !Patched; ++I) {
    uint8_t &Op = Bytes[Header + I * Row];
    if (Op == static_cast<uint8_t>(trace::TraceOp::FuncDef)) {
      Op = 0xEE;
      Patched = true;
    }
  }
  ASSERT_TRUE(Patched);
  spitBytes(Path, Bytes);

  ag::IngestHub Hub;
  Hub.addFile(Path);
  std::string Err;
  ASSERT_TRUE(Hub.run(&Err)) << Err;
  EXPECT_EQ(Hub.stats().Streams[0].BadRecords, 1u);
  std::remove(Path.c_str());
}

} // namespace
