//===- InProcess.cpp - acmeair_inline and promise_fanin -------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The two workloads that run a program on the simulated kernel with AsyncG
// built inline on the loop thread, so runtime, builder and detectors all
// block the work serially:
//
//   acmeair_inline  AcmeAir served to 8 closed-loop clients inside the loop
//                   thread: many small request ticks, few live promises.
//   promise_fanin   rounds of a depth-12 binary tree of Promise.all pairs
//                   over 4,096 leaf promises: thousands of promises live
//                   at once, which stresses the builder's promise and
//                   release paths instead of its per-tick ones.
//
// A unit (one fresh runtime + builder + detector suite) is the repeated
// measurement: a batch of requests, or one fan-in round. Every unit's
// event counts and warning set must repeat the set-up's exactly.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Tracing.h"

#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "detect/Detectors.h"
#include "jsrt/Runtime.h"
#include "node/Http.h"
#include "sim/Network.h"
#include "sim/Random.h"
#include "support/Format.h"

#include <algorithm>
#include <functional>
#include <memory>

using namespace asyncg;
using namespace asyncg::jsrt;

namespace agbench {
namespace {

/// A program a unit runs: started from the main tick, judged afterwards.
class SimProgram {
public:
  virtual ~SimProgram() = default;
  virtual void start(Runtime &RT) = 0;
  /// Operations (requests, rounds) the unit attempted and how many failed.
  virtual uint64_t attempted() const = 0;
  virtual uint64_t failed() const = 0;
  /// Wall latencies in microseconds: of every request (acmeair), of every
  /// reaction of the tree (fan-in).
  std::vector<double> LatUs;
};

/// Makes unit \p Unit's program (and its seeded inputs) on a runtime.
using ProgramFactory =
    std::function<std::unique_ptr<SimProgram>(Runtime &, uint64_t Unit)>;

//===----------------------------------------------------------------------===//
// acmeair_inline
//===----------------------------------------------------------------------===//

/// AcmeAir plus 8 closed-loop clients on the loop's simulated sockets. The
/// clients repeat acmeair::WorkloadDriver's login flow, request mix and
/// per-client seeding, and also stamp every request with the wall clock,
/// which WorkloadDriver does not expose.
class AcmeAirProgram final : public SimProgram {
public:
  AcmeAirProgram(Runtime &RT, uint64_t Seed, uint64_t Requests)
      : RT(RT), App(RT), Seed(Seed), Requests(Requests) {
    LatUs.reserve(Requests);
  }

  void start(Runtime &) override {
    App.start(JSLINE("main.js", 1));
    const int Customers = App.config().Customers;
    for (int I = 0; I != NumClients; ++I) {
      Client &C = Clients[I];
      C.Rng = sim::Random(Seed * 7919 + static_cast<uint64_t>(I));
      C.User = "uid" + std::to_string(C.Rng.nextInt(
                           0, static_cast<uint64_t>(Customers - 1)));
    }
    for (Client &C : Clients) {
      Client *CP = &C;
      RT.network().connect(
          App.config().Port, [this, CP](std::shared_ptr<sim::Socket> S) {
            CP->Sock = std::move(S);
            CP->Sock->onData([this, CP](const std::string &Msg) {
              node::http::ClientResponse Res;
              if (node::http::parseResponse(Msg, Res))
                onResponse(*CP, Res.Status, Res.Body);
            });
            issueNext(*CP);
          });
    }
  }

  uint64_t attempted() const override { return Requests; }
  uint64_t failed() const override { return Requests - Completed + Errors; }

private:
  static constexpr int NumClients = 8;

  struct Client {
    sim::Random Rng{0};
    std::shared_ptr<sim::Socket> Sock;
    std::string User;
    std::string Token;
    Clock::time_point Sent;
  };

  void send(Client &C, const std::string &Method, const std::string &Path,
            const std::string &Body = std::string()) {
    C.Sent = Clock::now();
    C.Sock->write(node::http::frameRequestLine(Method, Path));
    if (!Body.empty())
      C.Sock->write(node::http::frameDataChunk(Body));
    C.Sock->write(node::http::frameEnd());
  }

  void issueNext(Client &C) {
    if (Issued >= Requests) {
      C.Sock->end();
      return;
    }
    ++Issued;
    const std::string Login = "user=" + C.User + "&password=password";
    if (C.Token.empty())
      return send(C, "POST", "/rest/api/login", Login);

    acmeair::WorkloadMix M;
    double Weights[5] = {M.QueryFlights, M.ViewProfile, M.BookFlight,
                         M.UpdateProfile, M.Login};
    const auto &Air = acmeair::AcmeAirApp::airports();
    switch (C.Rng.pickWeighted(Weights)) {
    case 0: {
      size_t A = C.Rng.nextInt(0, Air.size() - 1);
      size_t B = C.Rng.nextInt(0, Air.size() - 2);
      if (B >= A)
        ++B;
      return send(C, "GET",
                  "/rest/api/queryflights?from=" + Air[A] + "&to=" + Air[B]);
    }
    case 1:
      return send(C, "GET", "/rest/api/customer/byid?token=" + C.Token);
    case 2: {
      size_t A = C.Rng.nextInt(0, Air.size() - 1);
      std::string Flight = Air[A] + "-" + Air[(A + 1) % Air.size()] + "|f0";
      return send(C, "POST", "/rest/api/bookflights",
                  "token=" + C.Token + "&flight=" + Flight);
    }
    case 3:
      return send(C, "POST", "/rest/api/customer/update",
                  "token=" + C.Token + "&name=Customer" +
                      std::to_string(C.Rng.nextInt(0, 999)));
    default:
      return send(C, "POST", "/rest/api/login", Login);
    }
  }

  void onResponse(Client &C, int Status, const std::string &Body) {
    LatUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - C.Sent)
            .count());
    ++Completed;
    if (Status != 200)
      ++Errors;
    else if (startsWith(Body, "OK token="))
      C.Token = Body.substr(9);
    issueNext(C);
  }

  Runtime &RT;
  acmeair::AcmeAirApp App;
  uint64_t Seed;
  uint64_t Requests;
  Client Clients[NumClients];
  uint64_t Issued = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
};

//===----------------------------------------------------------------------===//
// promise_fanin
//===----------------------------------------------------------------------===//

/// Seeded leaf schedule: per leaf, -1 resolves it from setImmediate, 0..2
/// from a setTimeout of that many milliseconds.
std::vector<int> faninDelays(uint64_t Seed, unsigned Depth) {
  sim::Random Rng(Seed);
  std::vector<int> Delays(size_t(1) << Depth);
  for (int &D : Delays)
    D = Rng.nextBool() ? -1 : static_cast<int>(Rng.nextInt(0, 2));
  return Delays;
}

/// One fan-in round, as the JavaScript it models (line numbers are the
/// source locations the graph and the warnings carry):
///
///   1  function main() {
///   2    const t0 = now();
///   3    let level = delays.map(d => new Promise(resolve => {
///   4      if (d < 0) setImmediate(resolve);
///   5      else setTimeout(resolve, d);
///   6    }));
///   7    while (level.length > 1)
///   8      level = pairs(level).map(([a, b]) =>
///   9        Promise.all([a, b])
///  10          .then(pair => { record(now() - t0); return pair; }));
///  11    level[0].then(() => { record(now() - t0); done = true; })
///  12            .catch(report);
///  13  }
///
/// Every reaction of the tree records its latency from the round's start:
/// 4,096 samples a round, which give the latency percentiles enough tail
/// (a run has a few dozen rounds). The round's promises are released after
/// the root reacts, inside the unit's serving time but outside every
/// latency.
class FaninProgram final : public SimProgram {
  static constexpr const char *File = "fanin.js";

public:
  explicit FaninProgram(std::vector<int> Delays) : Delays(std::move(Delays)) {}

  void start(Runtime &RT) override {
    Clock::time_point T0 = Clock::now();
    Function Leaf = RT.makeFunction(
        "leaf", JSLINE(File, 3), [this](Runtime &R, const CallArgs &A) {
          Function Resolve(A.arg(0).asFunctionRef());
          int D = Delays[NextLeaf++];
          if (D < 0)
            R.setImmediate(JSLINE(File, 4), Resolve);
          else
            R.setTimeout(JSLINE(File, 5), Resolve, D);
          return Completion::normal();
        });
    auto Record = [this, T0] {
      LatUs.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - T0)
              .count());
    };
    Function Join = RT.makeFunction("join", JSLINE(File, 10),
                                    [Record](Runtime &, const CallArgs &A) {
                                      Record();
                                      return Completion::normal(A.arg(0));
                                    });
    Function Done = RT.makeFunction(
        "roundDone", JSLINE(File, 11), [this, Record](Runtime &,
                                                      const CallArgs &) {
          Record();
          Finished = true;
          return Completion::normal();
        });
    Function Report = RT.makeFunction("report", JSLINE(File, 12),
                                      [this](Runtime &, const CallArgs &) {
                                        Rejected = true;
                                        return Completion::normal();
                                      });

    std::vector<PromiseRef> Level;
    Level.reserve(Delays.size());
    for (size_t I = 0; I != Delays.size(); ++I)
      Level.push_back(RT.promiseCreate(JSLINE(File, 3), Leaf));
    while (Level.size() > 1) {
      std::vector<PromiseRef> Up;
      Up.reserve(Level.size() / 2);
      for (size_t I = 0; I + 1 < Level.size(); I += 2) {
        PromiseRef Pair =
            RT.promiseAll(JSLINE(File, 9), {Level[I], Level[I + 1]});
        Up.push_back(RT.promiseThen(JSLINE(File, 10), Pair, Join));
      }
      Level = std::move(Up);
    }
    PromiseRef Root = RT.promiseThen(JSLINE(File, 11), Level[0], Done);
    RT.promiseCatch(JSLINE(File, 12), Root, Report);
  }

  uint64_t attempted() const override { return 1; }
  uint64_t failed() const override {
    return !Finished || Rejected || LatUs.size() != Delays.size();
  }

private:
  std::vector<int> Delays;
  size_t NextLeaf = 0;
  bool Finished = false;
  bool Rejected = false;
};

//===----------------------------------------------------------------------===//
// Units
//===----------------------------------------------------------------------===//

enum class UnitMode {
  Plain,   ///< the builder attached directly: what users run
  Counted, ///< a count-only HookShim in front (set-up)
  Traced,  ///< HookShim + SuiteShim: sampled timing and spans
};

struct UnitStats {
  double WallS = 0; ///< construction + RT.main + teardown
  double MainS = 0; ///< RT.main: serving the whole unit
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Ticks = 0;
  GraphStats Graph;
  LayerCounts Counts;
};

UnitStats runUnit(const ProgramFactory &Make, uint64_t Unit, UnitMode Mode,
                  SpanBuffer *Spans, RunResult &R, LatencyHistogram *Lat) {
  UnitStats U;
  trimHeap();
  Clock::time_point T0 = Clock::now();
  uint32_t UnitSpan = NoSpan, MainSpan = NoSpan;
  if (Mode == UnitMode::Traced) {
    UnitSpan = Spans->begin(Spans->intern("unit"), NoSpan, 0);
    MainSpan = Spans->begin(Spans->intern("jsrt.main"), UnitSpan, 0);
  }
  int64_t UnitStartNs = nowNs();
  {
    Runtime RT;
    std::unique_ptr<SimProgram> P = Make(RT, Unit);
    ag::AsyncGBuilder B(retiringBuilder());
    detect::DetectorSuite Suite;
    Tracer T(Mode == UnitMode::Traced ? Spans : nullptr);
    T.Parent = MainSpan;
    SuiteShim SuiteT(Suite, T);
    std::unique_ptr<HookShim> Shim;
    if (Mode == UnitMode::Traced)
      B.addObserver(&SuiteT);
    else
      Suite.attachTo(B);
    if (Mode == UnitMode::Plain) {
      RT.hooks().attach(&B);
    } else {
      Shim = std::make_unique<HookShim>(B, T);
      RT.hooks().attach(Shim.get());
    }

    Function Main = RT.makeBuiltin("main", [&](Runtime &R2, const CallArgs &) {
      P->start(R2);
      return Completion::normal();
    });
    int64_t MainStartNs = nowNs();
    Clock::time_point M0 = Clock::now();
    RT.main(Main);
    U.MainS = secondsSince(M0);
    if (Mode == UnitMode::Traced)
      Spans->finish(MainSpan, MainStartNs, nowNs());

    U.Attempted = P->attempted();
    U.Failed = P->failed();
    U.Ticks = RT.tickCount();
    U.Graph = graphStats(B.graph());
    U.Counts = T.Counts;
    R.unitWarnings(siteKeys(B.graph()), "a unit");
    if (Lat)
      for (double Us : P->LatUs)
        Lat->add(Us);
  }
  if (Mode == UnitMode::Traced)
    Spans->finish(UnitSpan, UnitStartNs, nowNs());
  U.WallS = secondsSince(T0);
  return U;
}

bool sameCounts(const LayerCounts &A, const LayerCounts &B) {
  return std::equal(std::begin(A.Calls), std::end(A.Calls),
                    std::begin(B.Calls)) &&
         A.Promises == B.Promises;
}

/// The per-layer metrics of a traced sim run, plus the reconciliation gate.
void layerMetrics(const Options &O, const std::vector<UnitStats> &Traced,
                  const std::vector<UnitStats> &Plain, RunResult &R) {
  auto Med = [&](auto &&Get) { return medianOf(Traced, Get); };
  const double Ops = static_cast<double>(Traced.front().Attempted);
  auto BuilderS = [](const UnitStats &U) {
    return U.Counts.builderSelfNs() / 1e9;
  };
  auto DetectS = [](const UnitStats &U) {
    return U.Counts.detectorsNs() / 1e9;
  };
  auto JsrtS = [&](const UnitStats &U) {
    return U.MainS - BuilderS(U) - DetectS(U);
  };

  R.metric("jsrt.self_s", Med(JsrtS), "s");
  R.metric("jsrt.ticks", Med([](const UnitStats &U) { return U.Ticks; }),
           "count");
  for (unsigned K = 0; K != HkLoopEnd; ++K)
    R.metric(std::string("instr.events.") + HookNames[K],
             Med([K](const UnitStats &U) { return U.Counts.Calls[K]; }),
             "count");
  R.metric("instr.events_per_op",
           Med([](const UnitStats &U) { return U.Counts.events(); }) / Ops,
           "count");
  R.metric("ag.builder.self_s", Med(BuilderS), "s");
  for (unsigned K = 0; K != HkLoopEnd; ++K)
    R.metric(std::string("ag.builder.ns_per_call.") + HookNames[K],
             Med([K](const UnitStats &U) { return U.Counts.nsPerCall(K); }),
             "ns");
  graphMetrics(R, Traced);
  detectorMetrics(R, Traced);

  double TracedWall = Med([](const UnitStats &U) { return U.WallS; });
  double PlainWall =
      medianOf(Plain, [](const UnitStats &U) { return U.WallS; });
  R.metric("trace.overhead_pct", (TracedWall / PlainWall - 1) * 100, "%");

  // The ledger rule: the layers' self times must account for the traced
  // wall time within 10%, and the runtime's residual must stay positive
  // (a negative one means the sampled estimates overshoot).
  double Sum = Med(JsrtS) + Med(BuilderS) + Med(DetectS);
  double Off = std::abs(Sum - TracedWall) / TracedWall;
  if (O.Reconcile && (Off > 0.10 || Med(JsrtS) <= 0))
    R.problem("reconciliation: jsrt " + std::to_string(Med(JsrtS)) +
              " s + builder " + std::to_string(Med(BuilderS)) +
              " s + detect " + std::to_string(Med(DetectS)) + " s = " +
              std::to_string(Sum) + " s against a traced wall of " +
              std::to_string(TracedWall) + " s");
}

/// Set-up, then the measured phase, of one sim workload.
RunResult runSimWorkload(const Options &O, const ProgramFactory &Make) {
  RunResult R;
  SpanBuffer Spans(O.Traced ? size_t(1) << 18 : 0);

  // Set-up: one counted unit, which fixes the per-unit event and promise
  // counts every later unit must repeat.
  LayerCounts Calib;
  std::vector<double> SetupS;
  for (unsigned I = 0; I != O.Size.SetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    UnitStats U = runUnit(Make, 0, UnitMode::Counted, nullptr, R, nullptr);
    SetupS.push_back(secondsSince(T0));
    if (U.Failed)
      R.problem("set-up unit failed " + std::to_string(U.Failed) + " of " +
                std::to_string(U.Attempted) + " operations");
    if (I && !sameCounts(U.Counts, Calib))
      R.problem("set-up units disagree on their event counts");
    Calib = U.Counts;
  }

  std::vector<UnitStats> Plain, Traced;
  LatencyHistogram Lat;
  Clock::time_point Start = Clock::now();
  for (uint64_t Unit = 1;
       Plain.size() < O.Size.MinUnits || secondsSince(Start) < O.Seconds;
       ++Unit) {
    Plain.push_back(runUnit(Make, Unit, UnitMode::Plain, nullptr, R,
                            O.Traced ? nullptr : &Lat));
    if (O.Traced) {
      Traced.push_back(
          runUnit(Make, Unit, UnitMode::Traced, &Spans, R, nullptr));
      if (!sameCounts(Traced.back().Counts, Calib))
        R.problem("a traced unit's event counts differ from the set-up's");
    }
  }
  for (const std::vector<UnitStats> *Units : {&Plain, &Traced})
    for (const UnitStats &U : *Units) {
      R.Attempted += U.Attempted;
      R.Failed += U.Failed;
    }

  if (O.Traced) {
    layerMetrics(O, Traced, Plain, R);
    if (!O.OutDir.empty() &&
        !Spans.writeTsv(O.OutDir + "/" + O.Workload + ".spans.tsv"))
      R.problem("cannot write the spans file under " + O.OutDir);
    return R;
  }

  auto PerSecond = [&](double PerUnit) {
    return medianOf(
        Plain, [PerUnit](const UnitStats &U) { return PerUnit / U.MainS; });
  };
  R.metric("req_per_s", PerSecond(static_cast<double>(Plain[0].Attempted)),
           "req/s");
  R.metric("promises_per_s", PerSecond(static_cast<double>(Calib.Promises)),
           "promises/s");
  R.metric("records_per_s", PerSecond(static_cast<double>(Calib.events())),
           "records/s");
  R.metric("latency_p50_us", Lat.percentile(0.50), "us");
  R.metric("latency_p99_us", Lat.percentile(0.99), "us");
  R.metric("peak_rss_mib", peakRssMib(), "MiB");
  R.metric("setup_s", median(SetupS), "s");
  return R;
}

} // namespace

// Every acmeair_inline unit serves the same seeded requests: at 50,000
// requests per unit the mix is stable, and identical units make the
// set-up's event counts exact for all of them.
RunResult runAcmeAirInline(const Options &O) {
  return runSimWorkload(O, [&O](Runtime &RT, uint64_t) {
    return std::make_unique<AcmeAirProgram>(RT, O.Seed, O.Size.InlineRequests);
  });
}

// Each promise_fanin unit draws its own leaf schedule from the seed. The
// cost of a round depends on the order its leaves resolve in, so a run
// medians over many schedules; the event counts do not depend on it.
RunResult runPromiseFanin(const Options &O) {
  return runSimWorkload(O, [&O](Runtime &, uint64_t Unit) {
    return std::make_unique<FaninProgram>(
        faninDelays(O.Seed * 7919 + Unit, O.Size.FaninDepth));
  });
}

} // namespace agbench
