//===- Common.cpp - agbench shared helpers --------------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <malloc.h>

using namespace asyncg;

namespace agbench {

void RunResult::unitWarnings(const std::set<std::string> &W,
                             const char *Unit) {
  if (!HaveWarnings) {
    Warnings = W;
    HaveWarnings = true;
    return;
  }
  if (W != Warnings)
    problem(std::string(Unit) + " produced a different warning set (" +
            std::to_string(W.size()) + " sites vs " +
            std::to_string(Warnings.size()) + ")");
}

std::set<std::string> siteKeys(const ag::AsyncGraph &G) {
  std::set<std::string> Keys;
  for (const ag::Warning &W : G.warnings())
    Keys.insert(std::string(ag::bugCategoryName(W.Category)) + " @ " +
                W.Loc.str());
  return Keys;
}

GraphStats graphStats(const ag::AsyncGraph &G) {
  GraphStats S;
  S.TicksCommitted = G.liveTickCount() + G.retired().Ticks;
  S.NodesAdded = G.nodeCount() + G.retired().Nodes;
  S.EdgesAdded = G.liveEdgeCount() + G.retired().Edges;
  S.LiveNodes = G.nodeCount();
  S.Warnings = G.warnings().size();
  S.FootprintMib = mib(static_cast<double>(G.memoryFootprint()));
  return S;
}

ag::BuilderConfig retiringBuilder() {
  ag::BuilderConfig C;
  C.Retire = true;
  return C;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void LatencyHistogram::add(double Us) {
  size_t I = Us > 1 ? static_cast<size_t>(std::log(Us) / std::log(Growth)) : 0;
  I = std::min(I, NumBuckets - 1);
  ++Counts[I];
  Sums[I] += Us;
  ++Total;
}

double LatencyHistogram::percentile(double P) const {
  uint64_t Rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(P * static_cast<double>(Total))));
  uint64_t Seen = 0;
  for (size_t I = 0; I != NumBuckets; ++I)
    if ((Seen += Counts[I]) >= Rank)
      return Sums[I] / static_cast<double>(Counts[I]);
  return 0;
}

double peakRssMib() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

void trimHeap() { malloc_trim(0); }

} // namespace agbench
