//===- TraceTestUtil.h - shared helpers of the trace and ingest tests -*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the record/replay test suites share: per-test temp paths, whole-file
/// byte I/O for mutation sweeps, the live in-process build every replay is
/// checked against, one IngestHub run, and the frame-scan oracle for a
/// recovered prefix.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_TESTS_TRACETESTUTIL_H
#define ASYNCG_TESTS_TRACETESTUTIL_H

#include "ag/IngestHub.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

namespace asyncg {
namespace testutil {

/// A temp path unique to the running test and process. ctest runs every
/// discovered test as its own process, in parallel, and they all share
/// TempDir(): a fixed name lets one test overwrite another's input.
inline std::string uniqueTempPath(const std::string &Tag,
                                  const std::string &Ext = ".agtrace") {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Name = T ? std::string(T->test_suite_name()) + "." + T->name()
                       : std::string("notest");
  for (char &C : Name)
    if (C == '/')
      C = '_';
  return ::testing::TempDir() + Name + "_" + std::to_string(::getpid()) +
         "_" + Tag + Ext;
}

inline std::vector<uint8_t> slurpBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  Bytes.resize(static_cast<size_t>(Size));
  EXPECT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
  return Bytes;
}

inline void spitBytes(const std::string &Path,
                      const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  if (!Bytes.empty()) {
    EXPECT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  std::fclose(F);
}

/// A graph as the tests compare it: DOT rendering plus warnings report.
struct Rendered {
  std::string Dot;
  std::string Warnings;
};

inline Rendered render(const ag::AsyncGraph &G) {
  return {viz::toDot(G), viz::warningsReport(G)};
}

/// The live in-process build of a Table-I case (builder attached to the
/// runtime, detectors on): the independent reference every replay of the
/// case's recording must reproduce. Case runs are deterministic.
inline Rendered liveCase(const cases::CaseDef &Def, bool Fixed) {
  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  cases::runCaseWith(Def, Fixed, Builder);
  return render(Builder.graph());
}

/// Checks the warnings report of a graph built through the trace codec (a
/// replay, or the async pipeline) against the live build's. They agree
/// byte for byte except where a warning names a callback that never runs:
/// the encoder defines a function (TraceOp::FuncDef) only when it is first
/// entered, so the decoder knows such a callback by id alone and the name
/// in the warning text is empty. Among the Table-I cases only SO-10444077's
/// buggy variant does this (it removes a fresh, never-called handler);
/// there the reports must still agree line for line.
inline void expectLiveWarnings(const std::string &Got, const std::string &Live,
                               const cases::CaseDef &Def, bool Fixed) {
  if (Def.Name != "SO-10444077" || Fixed) {
    EXPECT_EQ(Got, Live);
    return;
  }
  auto Lines = [](const std::string &S) {
    return std::count(S.begin(), S.end(), '\n');
  };
  EXPECT_EQ(Lines(Got), Lines(Live));
  EXPECT_NE(Got, Live) << "callback names now survive replay: compare the "
                          "reports exactly";
}

/// What one IngestHub run over a set of trace files produced.
struct Ingested {
  bool Ok = false;
  std::string Err;
  Rendered Out;
  ag::IngestStats Stats;
};

/// Ingests \p Paths (one stream each, merged in order) through IngestHub
/// at \p Jobs, with a detector suite per stream builder.
inline Ingested ingest(const std::vector<std::string> &Paths,
                       unsigned Jobs = 1) {
  ag::IngestOptions Opts;
  Opts.Jobs = Jobs;
  ag::IngestHub Hub(Opts);
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  for (const std::string &P : Paths) {
    Suites.emplace_back(new detect::DetectorSuite());
    Suites.back()->attachTo(Hub.builder(Hub.addFile(P)));
  }
  Ingested R;
  R.Ok = Hub.run(&R.Err);
  if (R.Ok)
    R.Out = render(Hub.graph());
  R.Stats = Hub.stats();
  return R;
}

/// The oracle for a torn copy of the finalized v4 trace at \p IntactPath
/// cut at byte \p Cut: the records of the intact file's frames that end at
/// or before the cut, located by the strict frame scan rather than by the
/// recovery scan under test.
inline uint64_t recordsOfFramesBefore(const std::string &IntactPath,
                                      uint64_t Cut) {
  trace::TraceMmapReader Map;
  std::string Err;
  EXPECT_TRUE(Map.open(IntactPath, &Err)) << Err;
  std::vector<trace::TraceFrameRef> Frames;
  EXPECT_TRUE(trace::scanV4Frames(
      Map.recordData(), static_cast<size_t>(Map.recordByteSize()),
      Map.header().RecordCount, Frames, &Err))
      << Err;
  uint64_t Records = 0;
  for (const trace::TraceFrameRef &F : Frames)
    if (sizeof(trace::TraceFileHeader) + F.Offset + F.Bytes <= Cut)
      Records += F.Records;
  return Records;
}

} // namespace testutil
} // namespace asyncg

#endif // ASYNCG_TESTS_TRACETESTUTIL_H
