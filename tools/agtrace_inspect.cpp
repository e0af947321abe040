//===- agtrace_inspect.cpp - .agtrace structure dump ---------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Prints the structure of an `.agtrace` file: header fields, per-opcode
// record counts, symbol-table size, and — for v4 columnar traces — the
// per-column compressed byte totals across all frames, so the effect of
// the delta compression is visible column by column:
//
//   agtrace_inspect [--stats] run.agtrace [more.agtrace ...]
//
// Works on v2/v3 raw-row traces and v4 frame traces alike; raw traces
// simply report 32 bytes/record with no column breakdown.
//
// --stats appends, for v4 traces, the frame-shape histograms (bytes per
// frame and records per frame in power-of-two buckets) and a decode-time
// breakdown that times the two stages the parallel ingest hub splits:
// the header-only frame scan (what trace::TracePlan runs up front for
// the ingest hub) and the full record decode. Default output is unchanged so
// existing golden diffs keep passing.
//
//===----------------------------------------------------------------------===//

#include "support/TraceFormat.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace asyncg;
using namespace asyncg::trace;

namespace {

const char *opName(unsigned Op) {
  switch (static_cast<TraceOp>(Op)) {
  case TraceOp::FuncDef:
    return "FuncDef";
  case TraceOp::EnterTrigger:
    return "EnterTrigger";
  case TraceOp::Enter:
    return "Enter";
  case TraceOp::Exit:
    return "Exit";
  case TraceOp::ApiBase:
    return "ApiBase";
  case TraceOp::ApiExt:
    return "ApiExt";
  case TraceOp::ApiFuncs:
    return "ApiFuncs";
  case TraceOp::ApiInputs:
    return "ApiInputs";
  case TraceOp::ObjCreate:
    return "ObjCreate";
  case TraceOp::ReactionResult:
    return "ReactionResult";
  case TraceOp::PromiseLink:
    return "PromiseLink";
  case TraceOp::LoopEnd:
    return "LoopEnd";
  case TraceOp::ObjectRelease:
    return "ObjectRelease";
  case TraceOp::ShardInfo:
    return "ShardInfo";
  }
  return "unknown";
}

const char *colName(unsigned C) {
  static const char *Names[FrameColumns] = {"Op",  "Mask", "A8",  "B16",
                                            "C32", "D64",  "E64", "F64"};
  return C < FrameColumns ? Names[C] : "?";
}

/// Log2 bucket index for the frame-shape histograms (bucket B covers
/// [2^B, 2^(B+1))).
unsigned bucketOf(uint64_t V) {
  unsigned B = 0;
  while (V > 1) {
    V >>= 1;
    ++B;
  }
  return B;
}

void printHistogram(const char *Title, const uint64_t *Buckets, unsigned N,
                    uint64_t Total) {
  std::printf("  %s\n", Title);
  unsigned Lo = N, Hi = 0;
  for (unsigned B = 0; B != N; ++B)
    if (Buckets[B]) {
      if (B < Lo)
        Lo = B;
      Hi = B;
    }
  for (unsigned B = Lo; B <= Hi && Lo != N; ++B) {
    double Pct = Total ? 100.0 * Buckets[B] / Total : 0.0;
    std::printf("    [%8" PRIu64 ", %8" PRIu64 ") %8" PRIu64 "  %5.1f%%  ",
                uint64_t(1) << B, uint64_t(1) << (B + 1), Buckets[B], Pct);
    for (int Bar = 0; Bar < static_cast<int>(Pct / 2.5); ++Bar)
      std::putchar('#');
    std::putchar('\n');
  }
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

int inspect(const std::string &Path, bool Stats) {
  TraceMmapReader Image;
  std::string Err;
  if (!Image.open(Path, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  const TraceFileHeader &Header = Image.header();

  uint64_t RecordBytes = Image.recordByteSize();
  uint64_t SymtabBytes = Image.size() - Header.SymtabOffset;
  std::printf("%s\n", Path.c_str());
  std::printf("  version        v%" PRIu32 "\n", Header.Version);
  std::printf("  file size      %" PRIu64 " bytes\n", Image.size());
  std::printf("  records        %" PRIu64 " (%" PRIu64
              " record bytes, %.2f bytes/rec)\n",
              Header.RecordCount, RecordBytes,
              Header.RecordCount
                  ? static_cast<double>(RecordBytes) / Header.RecordCount
                  : 0.0);
  std::printf("  symbols        %zu (%" PRIu64 " bytes)\n",
              Image.symbolRemap().size(), SymtabBytes);

  // Per-opcode counts; for v4 also the per-column compressed totals.
  uint64_t OpCount[TraceOpLimit + 1] = {};
  const uint8_t *Rec = Image.recordData();
  if (Header.Version <= TraceLastRawVersion) {
    for (uint64_t I = 0; I != Header.RecordCount; ++I) {
      uint8_t Op = Rec[I * sizeof(TraceRecord)];
      ++OpCount[Op < TraceOpLimit ? Op : TraceOpLimit];
    }
    if (Stats)
      std::printf("  stats          raw v%" PRIu32 " rows: no frame "
                  "structure to histogram\n",
                  Header.Version);
  } else {
    uint64_t ColTotal[FrameColumns] = {};
    uint64_t Frames = 0;
    uint64_t SymFrames = 0, SymFrameBytes = 0;
    constexpr unsigned HistBuckets = 32;
    uint64_t ByteHist[HistBuckets] = {}, RecHist[HistBuckets] = {};
    const uint8_t *P = Rec;
    uint64_t Left = RecordBytes;
    auto DecodeT0 = std::chrono::steady_clock::now();
    while (Left > 0) {
      size_t Skip = 0;
      if (skipSymFrame(P, static_cast<size_t>(Left), Skip)) {
        ++SymFrames;
        SymFrameBytes += Skip;
        P += Skip;
        Left -= Skip;
        continue;
      }
      size_t Consumed = 0;
      bool Ok = decodeV4Frame(
          P, static_cast<size_t>(Left), Consumed,
          [&](const TraceRecord &R) {
            ++OpCount[R.Op < TraceOpLimit ? R.Op : TraceOpLimit];
          },
          &Err);
      if (!Ok) {
        std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
        return 1;
      }
      TraceFrameHeader FH;
      std::memcpy(&FH, P, sizeof(FH));
      for (unsigned C = 0; C != FrameColumns; ++C)
        ColTotal[C] += FH.ColBytes[C];
      ++ByteHist[bucketOf(Consumed) < HistBuckets ? bucketOf(Consumed)
                                                  : HistBuckets - 1];
      ++RecHist[bucketOf(FH.RecordCount) < HistBuckets
                    ? bucketOf(FH.RecordCount)
                    : HistBuckets - 1];
      ++Frames;
      P += Consumed;
      Left -= Consumed;
    }
    double DecodeMs = msSince(DecodeT0);
    std::printf("  frames         %" PRIu64 " (%u records/frame max)\n",
                Frames, FrameRecords);
    if (SymFrames)
      std::printf("  checkpoints    %" PRIu64 " symbol frames (%" PRIu64
                  " bytes)\n",
                  SymFrames, SymFrameBytes);
    std::printf("  columns        (compressed bytes across all frames)\n");
    for (unsigned C = 0; C != FrameColumns; ++C)
      std::printf("    %-12s %10" PRIu64 "  %6.2f bytes/rec\n", colName(C),
                  ColTotal[C],
                  Header.RecordCount
                      ? static_cast<double>(ColTotal[C]) / Header.RecordCount
                      : 0.0);

    if (Stats) {
      printHistogram("frame bytes    (histogram)", ByteHist, HistBuckets,
                     Frames);
      printHistogram("frame records  (histogram)", RecHist, HistBuckets,
                     Frames);

      // Time the two stages the parallel ingest hub splits: the
      // header-only frame scan it runs up front, and the full record
      // decode its workers carry. The decode number above already ran;
      // re-run the scan alone so the split is visible.
      std::vector<TraceFrameRef> Refs;
      auto ScanT0 = std::chrono::steady_clock::now();
      if (!scanV4Frames(Rec, static_cast<size_t>(RecordBytes),
                        Header.RecordCount, Refs, &Err)) {
        std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
        return 1;
      }
      double ScanMs = msSince(ScanT0);
      std::printf("  decode time\n");
      std::printf("    frame scan   %8.3f ms  (%" PRIu64 " frames located)\n",
                  ScanMs, static_cast<uint64_t>(Refs.size()));
      std::printf("    record decode%8.3f ms  (%.1f Mrec/s, %.1f MiB/s)\n",
                  DecodeMs,
                  DecodeMs > 0 ? Header.RecordCount / DecodeMs / 1e3 : 0.0,
                  DecodeMs > 0
                      ? RecordBytes / DecodeMs * 1e3 / (1024.0 * 1024.0)
                      : 0.0);
    }
  }

  std::printf("  opcodes\n");
  for (unsigned Op = 0; Op <= TraceOpLimit; ++Op)
    if (OpCount[Op])
      std::printf("    %-14s %10" PRIu64 "\n",
                  Op == TraceOpLimit ? "unknown" : opName(Op), OpCount[Op]);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Stats = false;
  std::vector<std::string> Paths;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--stats")
      Stats = true;
    else
      Paths.push_back(Argv[I]);
  }
  if (Paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--stats] FILE.agtrace [FILE.agtrace ...]\n",
                 Argv[0]);
    return 2;
  }
  int Rc = 0;
  for (const std::string &P : Paths)
    Rc |= inspect(P, Stats);
  return Rc;
}
