//===- TraceCodecV4Test.cpp - v4 columnar codec parity + robustness ----------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v4 columnar codec's contracts, beyond the default-version round
/// trips in TraceReplayTest.cpp:
///
///  - cross-version parity: the same deterministic run recorded as v2, v3,
///    and v4 must ingest (jobs 1 and 4) to the DOT and warnings of the live
///    in-process build, over the Table-I cases and an AcmeAir workload;
///  - sharded round-trip: per-shard v4 traces of a cluster run, ingested as
///    two streams, must reproduce the harness's merged graph byte-for-byte;
///  - robustness: truncated and bit-flipped real traces must never crash,
///    hang, or read out of bounds. Since the v4 writer interleaves symbol
///    checkpoints and flushes per frame, a damaged file with an intact
///    header magic recovers its clean frame-aligned prefix instead of
///    failing — exactly the records of the intact file's frames that end
///    before the damage; only images cut inside the 8-byte magic still
///    fail, with a clean error. The bench smoke --check leg runs this suite
///    under sanitizers, which is what turns "no out-of-bounds read" into an
///    enforced property;
///  - decoder-owned functions: a Function handed out by a TraceDecoder
///    stays readable after the decoder is destroyed.
///
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace asyncg;
using namespace asyncg::cases;
using namespace asyncg::testutil;

namespace {

/// Codec-level sink for corrupt-input tests: replaying garbage into the
/// full graph builder would exercise the builder's event validation, not
/// the decoder's memory safety, which is what these tests pin down.
struct NullSink final : instr::AnalysisBase {
  const char *analysisName() const override { return "null-sink"; }
};

/// What a codec-level replay of one file saw.
struct CodecReplay {
  bool Ok = false;
  std::string Err;
  bool Recovered = false;
  uint64_t Records = 0;
  uint64_t DroppedTailBytes = 0;
};

/// Codec-level replay: the trace layer's plan walked batch by batch by a
/// bare TraceDecoder into a NullSink, with the hub's truncate-or-fail rule
/// for frames that fail to decode.
CodecReplay codecReplay(const std::string &Path) {
  CodecReplay R;
  trace::TracePlan Plan;
  if (!Plan.open(Path, &R.Err))
    return R;
  R.Recovered = Plan.Recovered;
  R.DroppedTailBytes = Plan.Recovery.DroppedBytes;
  instr::TraceDecoder Decoder;
  if (!Plan.Recovered)
    Decoder.setSymbolRemap(Plan.Remap);
  uint32_t RemapInstalled = 0;
  NullSink Sink;
  std::vector<trace::TraceRecord> Records;
  for (size_t I = 0; I != Plan.Frames.size(); ++I) {
    const trace::TraceFrameRef &F = Plan.Frames[I];
    if (Plan.Recovered && F.RemapSize != RemapInstalled) {
      Decoder.setSymbolRemap(std::vector<SymbolId>(
          Plan.Remap.begin(), Plan.Remap.begin() + F.RemapSize));
      RemapInstalled = F.RemapSize;
    }
    if (!Plan.decode(I, Records, &R.Err)) {
      if (!Plan.Recovered)
        return R;
      R.DroppedTailBytes = Plan.Image.size() - F.Offset;
      break;
    }
    Decoder.decode(Records.data(), Records.size(), Sink);
    R.Records += Records.size();
  }
  R.Err.clear();
  R.Ok = true;
  return R;
}

//===----------------------------------------------------------------------===//
// Cross-version parity: Table-I cases
//===----------------------------------------------------------------------===//

class CrossVersionParity : public ::testing::TestWithParam<size_t> {};

std::string caseName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string N = allCases()[Info.param].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

TEST_P(CrossVersionParity, EveryVersionReplaysToSyncDot) {
  const CaseDef &Def = allCases()[GetParam()];
  for (bool Fixed : {false, true}) {
    if (Fixed && !Def.HasFix)
      continue;
    SCOPED_TRACE(Fixed ? "fixed" : "buggy");

    // Case runs are deterministic (TraceReplayTest relies on the same
    // property), so each version records its own run of the same case.
    Rendered Want = liveCase(Def, Fixed);

    uint64_t Counts[3] = {0, 0, 0};
    for (uint32_t Version : {2u, 3u, 4u}) {
      SCOPED_TRACE("v" + std::to_string(Version));
      std::string Path = uniqueTempPath(std::string(Fixed ? "f" : "b") +
                                        "_v" + std::to_string(Version));
      instr::TraceRecorder Rec;
      ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, Version));
      runCaseWith(Def, Fixed, Rec);
      ASSERT_TRUE(Rec.finalize());
      Counts[Version - 2] = Rec.recordCount();

      for (unsigned Jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(Jobs));
        Ingested Got = ingest({Path}, Jobs);
        ASSERT_TRUE(Got.Ok) << Got.Err;
        EXPECT_EQ(Got.Out.Dot, Want.Dot);
        expectLiveWarnings(Got.Out.Warnings, Want.Warnings, Def, Fixed);
        EXPECT_EQ(Got.Stats.Streams[0].Version, Version);
      }
      std::remove(Path.c_str());
    }
    // Same events in, same record stream length out of every encoding.
    EXPECT_EQ(Counts[0], Counts[1]);
    EXPECT_EQ(Counts[1], Counts[2]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, CrossVersionParity,
                         ::testing::Range<size_t>(0, allCases().size()),
                         caseName);

//===----------------------------------------------------------------------===//
// Cross-version parity: AcmeAir workload
//===----------------------------------------------------------------------===//

TEST(CrossVersionParityAcmeAir, V3AndV4ReplayIdentically) {
  std::string P3 = uniqueTempPath("v3"), P4 = uniqueTempPath("v4");
  instr::TraceRecorder R3, R4;
  ASSERT_TRUE(R3.open(P3, /*Shard=*/0, /*Version=*/3));
  ASSERT_TRUE(R4.open(P4, /*Shard=*/0, /*Version=*/4));
  ag::AsyncGBuilder Live;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Live);
  {
    // One run, the live builder and both recorders attached: the two files
    // encode the identical event stream the live graph was built from.
    jsrt::Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = 300;
    WCfg.Clients = 4;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&Live);
    RT.hooks().attach(&R3);
    RT.hooks().attach(&R4);
    jsrt::Function Main = RT.makeBuiltin(
        "main", [&](jsrt::Runtime &, const jsrt::CallArgs &) {
          App.start(JSLOC);
          Driver.start();
          return jsrt::Completion::normal();
        });
    RT.main(Main);
    ASSERT_EQ(Driver.completed(), WCfg.TotalRequests);
    ASSERT_EQ(Driver.errors(), 0u);
  }
  Rendered Want = render(Live.graph());
  ASSERT_TRUE(R3.finalize());
  ASSERT_TRUE(R4.finalize());
  ASSERT_EQ(R3.recordCount(), R4.recordCount());
  ASSERT_GT(R4.recordCount(), 1000u);
  // The headline compression must hold on a real workload, not just on
  // hand-picked cases.
  EXPECT_GE(static_cast<double>(R3.recordBytes()),
            4.0 * static_cast<double>(R4.recordBytes()));

  for (const std::string &P : {P3, P4})
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE(P + " jobs=" + std::to_string(Jobs));
      Ingested Got = ingest({P}, Jobs);
      ASSERT_TRUE(Got.Ok) << Got.Err;
      // Multi-megabyte strings: compare without gtest's full diff.
      EXPECT_TRUE(Got.Out.Dot == Want.Dot);
      EXPECT_TRUE(Got.Out.Warnings == Want.Warnings);
    }
  std::remove(P3.c_str());
  std::remove(P4.c_str());
}

//===----------------------------------------------------------------------===//
// Sharded round-trip
//===----------------------------------------------------------------------===//

TEST(ShardedRoundTrip, V4ShardTracesRebuildMergedGraph) {
  std::string Dir = uniqueTempPath("shards", "");
  ASSERT_EQ(::system(("mkdir -p " + Dir).c_str()), 0);
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 2;
  Cfg.TotalRequests = 200;
  Cfg.TotalClients = 4;
  Cfg.RecordDir = Dir;
  Cfg.TraceVer = 4;
  cluster::ClusterHarness H(Cfg);
  cluster::ClusterResult R = H.run();
  ASSERT_EQ(R.TotalCompleted, Cfg.TotalRequests);
  ASSERT_EQ(R.TotalErrors, 0u);
  for (const cluster::ShardResult &S : R.Shards)
    EXPECT_GT(S.RecordedBytes, 0u);

  // Offline: one stream per shard trace, detectors attached as the harness
  // had them, merged by the hub in shard order.
  std::vector<std::string> Paths;
  for (uint32_t S = 0; S < Cfg.Loops; ++S)
    Paths.push_back(Dir + "/shard" + std::to_string(S) + ".agtrace");
  Ingested Got = ingest(Paths);
  ASSERT_TRUE(Got.Ok) << Got.Err;
  EXPECT_EQ(Got.Out.Dot, viz::toDot(H.merged()));
  EXPECT_EQ(Got.Out.Warnings, viz::warningsReport(H.merged()));

  for (const std::string &P : Paths)
    std::remove(P.c_str());
  std::remove(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Decoder robustness: corrupt inputs fail cleanly, never crash
//===----------------------------------------------------------------------===//

class Robustness : public ::testing::Test {
protected:
  void SetUp() override {
    // A real v4 trace exercising every record kind: several Table-I case
    // runs appended into one file (one run alone is under 200 bytes when
    // the test process starts cold — too small for the cut/flip sweeps).
    // Replay correctness of the concatenation is irrelevant here; the
    // decoder only has to survive it.
    Path = uniqueTempPath("robust");
    MutPath = Path + ".mut";
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, /*Version=*/4));
    for (size_t C = 0; C < allCases().size() && C < 6; ++C)
      runCaseWith(allCases()[C], /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());
    Original = slurpBytes(Path);
    ASSERT_GT(Original.size(), 512u);
  }
  void TearDown() override {
    std::remove(Path.c_str());
    std::remove(MutPath.c_str());
  }

  /// Replays \p Bytes at the codec level. The hard requirement is
  /// memory-safe, terminating behavior with a non-empty error whenever the
  /// replay reports failure.
  CodecReplay replayMutated(const std::vector<uint8_t> &Bytes) {
    spitBytes(MutPath, Bytes);
    CodecReplay R = codecReplay(MutPath);
    if (!R.Ok) {
      EXPECT_FALSE(R.Err.empty());
    }
    return R;
  }

  std::string Path, MutPath;
  std::vector<uint8_t> Original;
};

TEST_F(Robustness, TruncationsRecoverCleanPrefix) {
  const size_t N = Original.size();
  // Cuts landing in the header, the record section, and the symbol
  // section. A cut inside the 8-byte magic is unrecoverable and must fail;
  // everything else recovers a (possibly empty) clean prefix: exactly the
  // frames that end before the cut.
  std::vector<size_t> Cuts = {0,     1,     7,         16,     32,
                              63,    64,    N / 4,     N / 2,  3 * N / 4,
                              N - 64, N - 17, N - 1};
  for (size_t Cut : Cuts) {
    if (Cut >= N)
      continue;
    SCOPED_TRACE("truncated to " + std::to_string(Cut) + " of " +
                 std::to_string(N) + " bytes");
    CodecReplay R = replayMutated(std::vector<uint8_t>(
        Original.begin(), Original.begin() + static_cast<long>(Cut)));
    if (Cut < sizeof(trace::TraceMagic)) {
      EXPECT_FALSE(R.Ok);
      continue;
    }
    EXPECT_TRUE(R.Ok) << R.Err;
    EXPECT_TRUE(R.Recovered);
    EXPECT_EQ(R.Records, recordsOfFramesBefore(Path, Cut));
  }
}

TEST_F(Robustness, TornTailRecoversPrefixWithDotParity) {
  // A single deterministic case run, so the recovered prefix replays into
  // a real graph and DOT output is comparable across job counts and cuts.
  std::string P = uniqueTempPath("torn");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(P, /*Shard=*/0, /*Version=*/4));
  runCaseWith(allCases()[0], /*Fixed=*/false, Rec);
  ASSERT_TRUE(Rec.finalize());
  std::vector<uint8_t> Full = slurpBytes(P);
  Rendered Live = liveCase(allCases()[0], /*Fixed=*/false);

  trace::TraceFileHeader H;
  std::memcpy(&H, Full.data(), sizeof(H));
  ASSERT_EQ(H.Version, 4u);
  ASSERT_LT(H.SymtabOffset, Full.size());

  // Ingests \p Bytes at jobs 1 and 4; the two must agree byte for byte.
  auto ingestTorn = [&](const std::vector<uint8_t> &Bytes) {
    spitBytes(MutPath, Bytes);
    Ingested One = ingest({MutPath}, 1);
    Ingested Four = ingest({MutPath}, 4);
    std::remove(MutPath.c_str());
    EXPECT_TRUE(One.Ok) << One.Err;
    EXPECT_TRUE(Four.Ok) << Four.Err;
    EXPECT_EQ(One.Out.Dot, Four.Out.Dot);
    EXPECT_EQ(One.Stats.Records, Four.Stats.Records);
    EXPECT_TRUE(One.Stats.Streams[0].Recovered);
    return One;
  };

  // Cut exactly at the symbol section: what a crash after the last frame
  // flush (but before finalize) leaves behind. Also zero the header's
  // patched counts to match the placeholder a real torn file carries.
  // Every record survives, so the graph must equal the live build's.
  {
    std::vector<uint8_t> T(Full.begin(),
                           Full.begin() +
                               static_cast<long>(H.SymtabOffset));
    for (size_t I = 16; I < 32; ++I)
      T[I] = 0;
    Ingested Got = ingestTorn(T);
    EXPECT_EQ(Got.Out.Dot, Live.Dot);
    EXPECT_EQ(Got.Out.Warnings, Live.Warnings);
    EXPECT_EQ(Got.Stats.Records, Rec.recordCount());
    EXPECT_EQ(Got.Stats.Streams[0].DroppedTailBytes, 0u);
  }

  // Mid-frame and mid-header cuts: the (possibly empty) prefix holds the
  // frames that end before the cut.
  for (size_t Cut : {size_t(16), size_t(32), size_t(32) + 20,
                     static_cast<size_t>(H.SymtabOffset) / 2}) {
    if (Cut >= Full.size())
      continue;
    SCOPED_TRACE("cut at " + std::to_string(Cut));
    Ingested Got = ingestTorn(std::vector<uint8_t>(
        Full.begin(), Full.begin() + static_cast<long>(Cut)));
    EXPECT_EQ(Got.Stats.Records, recordsOfFramesBefore(P, Cut));
  }

  // Bit-flipped tail: damage in the record section's last frame loses at
  // most that frame. A flip in a value column decodes as valid but
  // inconsistent data, which the graph builder rejects by assertion, so
  // this one replays at the codec level.
  {
    std::vector<uint8_t> M = Full;
    size_t Flip = H.SymtabOffset - 20;
    M[Flip] ^= 0x40;
    // Invalidate the symbol section too so the strict open cannot succeed
    // and mask the flip.
    M.resize(H.SymtabOffset);
    CodecReplay R = replayMutated(M);
    EXPECT_TRUE(R.Ok) << R.Err;
    EXPECT_TRUE(R.Recovered);
    EXPECT_GE(R.Records, recordsOfFramesBefore(P, Flip));
    EXPECT_LE(R.Records, Rec.recordCount());
  }

  std::remove(P.c_str());
}

TEST_F(Robustness, BitFlipsNeverCrash) {
  const size_t N = Original.size();
  // Deterministic sweep: 64 flip positions spread over the whole file,
  // cycling through bit indices — covers the header fields, frame headers,
  // raw and varint columns, and the symbol section. A flip may land in a
  // symbol string or a value column and decode as a different-but-valid
  // trace; everything else must fail with an error. Either way: no crash,
  // no hang, no out-of-bounds access (sanitizer-enforced).
  const size_t Positions = 64;
  for (size_t I = 0; I < Positions; ++I) {
    size_t Off = (I * N) / Positions;
    int Bit = static_cast<int>(I % 8);
    SCOPED_TRACE("flip bit " + std::to_string(Bit) + " at byte " +
                 std::to_string(Off));
    std::vector<uint8_t> M = Original;
    M[Off] ^= static_cast<uint8_t>(1u << Bit);
    replayMutated(M);
  }
}

TEST_F(Robustness, GarbageRecordSectionRecoversEmptyPrefix) {
  // Keep the valid header, stomp the record section with a repeating
  // pattern: no frame magic can survive, so the strict open fails and
  // recovery finds no clean frame — a successful replay of an empty
  // prefix, with the damage reported.
  std::vector<uint8_t> M = Original;
  size_t End = M.size() > 128 ? M.size() - 64 : M.size();
  for (size_t I = sizeof(trace::TraceFileHeader); I < End; ++I)
    M[I] = static_cast<uint8_t>(0xA5 ^ (I & 0xFF));
  CodecReplay R = replayMutated(M);
  EXPECT_TRUE(R.Ok) << R.Err;
  EXPECT_TRUE(R.Recovered);
  EXPECT_EQ(R.Records, 0u);
  EXPECT_GT(R.DroppedTailBytes, 0u);
}

//===----------------------------------------------------------------------===//
// Decoder-owned functions
//===----------------------------------------------------------------------===//

/// Keeps every Function handle the decoder hands out.
struct FunctionKeeper final : instr::AnalysisBase {
  const char *analysisName() const override { return "function-keeper"; }
  void onFunctionEnter(const instr::FunctionEnterEvent &E) override {
    Kept.push_back(E.F);
  }
  std::vector<jsrt::Function> Kept;
};

trace::TraceRecord funcRecord(trace::TraceOp Op, uint64_t Id) {
  trace::TraceRecord R;
  R.Op = static_cast<uint8_t>(Op);
  R.D64 = Id;
  if (Op == trace::TraceOp::FuncDef) {
    R.C32 = Symbol("fn" + std::to_string(Id)).id();
    R.F64 = trace::packLoc(Symbol("keep.js").id(), static_cast<uint32_t>(Id));
  }
  return R;
}

TEST(DecoderFunctions, OutliveTheDecoderAndItsRehashes) {
  // The decoder's functions live in one pool it shares with every handle
  // it gives out. Functions 1-4 are re-entered after each new definition,
  // so the batch memo serves them across every rehash of the function
  // table (1,000 ids outgrow the initial 256-entry reservation). They sit
  // in four memo slots, so the new id that triggers a rehash cannot
  // refresh all of them; a stale memo would hand out freed storage, which
  // the ASan codec leg reports.
  const uint64_t N = 1000;
  FunctionKeeper Sink;
  std::vector<uint64_t> Entered;
  {
    std::vector<trace::TraceRecord> Records;
    for (uint64_t Id = 1; Id <= N; ++Id) {
      Records.push_back(funcRecord(trace::TraceOp::FuncDef, Id));
      for (uint64_t Run = 1; Run <= std::min<uint64_t>(Id, 4); ++Run) {
        Records.push_back(funcRecord(trace::TraceOp::Enter, Run));
        Records.push_back(funcRecord(trace::TraceOp::Exit, Run));
        Entered.push_back(Run);
      }
      Records.push_back(funcRecord(trace::TraceOp::Enter, Id));
      Records.push_back(funcRecord(trace::TraceOp::Exit, Id));
      Entered.push_back(Id);
    }
    instr::TraceDecoder Decoder;
    Decoder.decodeBatch(Records.data(), Records.size(), Sink);
    EXPECT_EQ(Decoder.badRecords(), 0u);
  }
  ASSERT_EQ(Sink.Kept.size(), Entered.size());
  for (size_t I = 0; I != Entered.size(); ++I) {
    const jsrt::Function &F = Sink.Kept[I];
    EXPECT_EQ(F.id(), Entered[I]);
    EXPECT_EQ(F.name(), "fn" + std::to_string(Entered[I]));
    EXPECT_EQ(F.loc().line(), Entered[I]);
  }
}

} // namespace
