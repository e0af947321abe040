//===- TraceReplayTest.cpp - .agtrace record/replay round-trips --------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec's correctness contract: a graph rebuilt from a recorded
/// `.agtrace` trace through ag::IngestHub — or built off-thread through the
/// async pipeline under either backpressure policy — must be byte-identical
/// (as DOT) to the graph the builder produces inline. Runs the check over
/// every Table-I case, buggy and fixed variants. Also covers trace-file
/// validation (bad magic, wrong version).
///
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "ag/AsyncPipeline.h"
#include "cases/Case.h"
#include "instr/TraceCodec.h"
#include "detect/Detectors.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

using namespace asyncg;
using namespace asyncg::cases;

namespace {

using testutil::ingest;
using testutil::uniqueTempPath;

class TraceRoundTrip : public ::testing::TestWithParam<size_t> {};

std::string caseName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string N = allCases()[Info.param].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

TEST_P(TraceRoundTrip, ReplayedGraphMatchesSyncDot) {
  const CaseDef &Def = allCases()[GetParam()];
  for (bool Fixed : {false, true}) {
    if (Fixed && !Def.HasFix)
      continue;
    SCOPED_TRACE(Fixed ? "fixed" : "buggy");

    std::string Path = uniqueTempPath(Fixed ? "fixed" : "buggy");
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path));
    runCaseWith(Def, Fixed, Rec);
    ASSERT_TRUE(Rec.finalize());
    EXPECT_GT(Rec.recordCount(), 0u);

    testutil::Ingested Got = ingest({Path});
    ASSERT_TRUE(Got.Ok) << Got.Err;
    EXPECT_EQ(Got.Out.Dot, testutil::liveCase(Def, Fixed).Dot);
    std::remove(Path.c_str());
  }
}

TEST_P(TraceRoundTrip, AsyncPipelineGraphMatchesSyncDot) {
  const CaseDef &Def = allCases()[GetParam()];
  for (ag::BackpressurePolicy Policy :
       {ag::BackpressurePolicy::Block, ag::BackpressurePolicy::Degrade}) {
    SCOPED_TRACE(Policy == ag::BackpressurePolicy::Block ? "block"
                                                         : "degrade");
    for (bool Fixed : {false, true}) {
      if (Fixed && !Def.HasFix)
        continue;
      SCOPED_TRACE(Fixed ? "fixed" : "buggy");

      ag::AsyncGBuilder OffThread;
      detect::DetectorSuite Detectors;
      Detectors.attachTo(OffThread);
      ag::PipelineConfig Cfg;
      Cfg.Policy = Policy;
      ag::DegradationStats D;
      {
        ag::AsyncPipeline Pipeline(OffThread, Cfg);
        runCaseWith(Def, Fixed, Pipeline);
        Pipeline.stop();
        D = Pipeline.degradation();
      }
      // A Table-I case never fills the default ring, so the ladder must
      // not have moved: parity holds with nothing shed.
      EXPECT_EQ(D.Escalations, 0u);
      EXPECT_EQ(D.RecordsShed, 0u);
      testutil::Rendered Live = testutil::liveCase(Def, Fixed);
      testutil::Rendered Got = testutil::render(OffThread.graph());
      EXPECT_EQ(Got.Dot, Live.Dot);
      testutil::expectLiveWarnings(Got.Warnings, Live.Warnings, Def, Fixed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, TraceRoundTrip,
                         ::testing::Range<size_t>(0, allCases().size()),
                         caseName);

//===----------------------------------------------------------------------===//
// Trace-file validation
//===----------------------------------------------------------------------===//

TEST(TraceFile, RejectsBadMagic) {
  std::string Path = uniqueTempPath("badmagic");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  const char Junk[64] = "definitely not a trace";
  std::fwrite(Junk, 1, sizeof(Junk), F);
  std::fclose(F);

  testutil::Ingested Got = ingest({Path});
  EXPECT_FALSE(Got.Ok);
  EXPECT_NE(Got.Err.find("bad magic"), std::string::npos) << Got.Err;
  std::remove(Path.c_str());
}

TEST(TraceFile, RejectsWrongVersion) {
  std::string Path = uniqueTempPath("badversion");
  // Start from a valid (empty) trace, then corrupt the version field.
  {
    trace::TraceFileWriter W;
    ASSERT_TRUE(W.open(Path));
    ASSERT_TRUE(W.finalize());
  }
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  uint32_t Bogus = trace::TraceVersion + 41;
  std::fseek(F, offsetof(trace::TraceFileHeader, Version), SEEK_SET);
  std::fwrite(&Bogus, sizeof(Bogus), 1, F);
  std::fclose(F);

  testutil::Ingested Got = ingest({Path});
  EXPECT_FALSE(Got.Ok);
  EXPECT_NE(Got.Err.find("unsupported trace version"), std::string::npos)
      << Got.Err;
  std::remove(Path.c_str());
}

TEST(TraceFile, RejectsMissingFile) {
  testutil::Ingested Got = ingest({uniqueTempPath("nonexistent_nope")});
  EXPECT_FALSE(Got.Ok);
  EXPECT_FALSE(Got.Err.empty());
}

} // namespace
