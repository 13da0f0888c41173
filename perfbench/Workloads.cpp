//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads.  Each one has a set-up (workload generation, the
/// traffic model and, per workload, seeding and boot), a timed body that
/// repeats until the run's time is used, and a verification step whose
/// reference is computed outside every timed region.
///
/// The untraced run measures the end-to-end metrics.  The traced run
/// sets up and runs the body once untraced and once with spans around
/// every call into a library layer, checks that both give identical
/// deterministic outputs, and then reaches the layers that are only
/// called from inside another layer by calling their public functions
/// directly on the same inputs (the probes).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "LoadGen.h"
#include "Spans.h"

#include "FigureCommon.h"

#include "analysis/Linter.h"
#include "core/Consumer.h"
#include "core/PackageManager.h"
#include "core/Seeder.h"
#include "fleet/ServerSim.h"
#include "fleet/SteadyState.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Lower.h"
#include "jit/Recorders.h"
#include "jit/Region.h"
#include "jit/TransLayout.h"
#include "layout/FunctionSort.h"
#include "obs/Observability.h"
#include "profile/PackageRebase.h"
#include "runtime/Builtins.h"
#include "runtime/ValueOps.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

using namespace jumpstart;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// A run is kSlices slices, each a set-up followed by timed bodies until
/// the slice's share of --seconds has passed.  A slice repeats a cheap
/// set-up while the slice's set-ups have taken under kSliceSetupSec, up
/// to kMaxSliceSetups times, so its median is as steady as an expensive
/// one's.  setup_s, seeder_publish_s and consumer_boot_s are medians over
/// the run's set-ups.
constexpr size_t kSlices = 5;
constexpr size_t kMaxSliceSetups = 5;
constexpr double kSliceSetupSec = 0.2;
/// Endpoint requests, and helper calls, in a verification burst.
constexpr size_t kBurst = 48;
/// Requests each seeder serves (the figures' growPackage default).
constexpr uint32_t kSeederRequests = 1200;
/// boot: seeders folded into one package, and consumer boots, per body.
constexpr uint32_t kBootSeeders = 3;
constexpr uint32_t kBootConsumers = 12;
/// Consumers each warmup, serve and steady set-up boots.
constexpr uint32_t kSetupBoots = 4;
/// Requests the interpreter probes replay.
constexpr size_t kInterpProbeRequests = 1500;

/// Seed streams derived from the workload seed.
enum Stream : uint64_t {
  kSeederStream = 1,
  kConsumerStream,
  kWarmupStream,
  kSteadyStream,
  kVerifyStream,
  kServeStream,
  kProbeStream,
  kNoJsStream,
};

/// Counts verification operations; a mismatch is a failed operation.
class Checker {
public:
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failed <= 10)
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

double peakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Inputs: the generated site, its traffic, request samples and references.
//===----------------------------------------------------------------------===//

/// The site program and its traffic model are the figures' (standard
/// site, traffic seed 42) for every workload seed; the workload seed
/// drives every request stream and schedule drawn from them.  Letting the
/// seed also generate the program or the regional traffic mix moved
/// consumer_boot_s by 15-30% (interquartile range over seeds): the set of
/// hot functions, and the largest CFG Ext-TSP lays out, change with them,
/// so run-to-run comparisons would have measured the seed, not the code.
fleet::WorkloadParams siteParams() { return bench::standardSite(); }
constexpr uint64_t kTrafficSeed = 42;
/// The seeder seed of the figures' package (bench::growPackage).  warmup,
/// serve and steady boot from that one package; its content, and with it
/// consumer_boot_s, varied by 7-10% across seeder seeds.  boot draws its
/// seeders' seeds from the workload seed, and merges three of them.
constexpr uint64_t kFigureSeederSeed = 12;

struct Site {
  std::unique_ptr<fleet::Workload> W;
  std::unique_ptr<fleet::TrafficModel> Traffic;
};

Site makeSite(std::unique_ptr<fleet::Workload> W) {
  Site S;
  S.W = std::move(W);
  S.Traffic = std::make_unique<fleet::TrafficModel>(
      *S.W, fleet::TrafficParams(), kTrafficSeed);
  return S;
}

Site generateSite(SpanRecorder *T) {
  std::unique_ptr<fleet::Workload> W;
  {
    ScopedSpan Span(T, "fleet.generate");
    W = fleet::generateWorkload(siteParams());
  }
  return makeSite(std::move(W));
}

/// The frontend compile generateWorkload performs internally, repeated
/// directly over the generated sources (traced run only).
void probeFrontend(const fleet::Workload &W, SpanRecorder *T, Checker &C) {
  std::vector<frontend::SourceFile> Files;
  double Bytes = 0;
  for (const auto &[Name, Source] : W.Sources) {
    Files.push_back({Name, Source});
    Bytes += static_cast<double>(Source.size());
  }
  bc::Repo R;
  std::vector<std::string> Diags;
  {
    ScopedSpan Span(T, "frontend.compile");
    Diags = frontend::compileProgram(R, runtime::BuiltinTable::standard(),
                                     Files);
  }
  countAt(T, "frontend.bytes", Bytes);
  C.check(Diags.empty() && R.numFuncs() == W.Repo.numFuncs(),
          "frontend recompile matches the generated repo");
}

struct Request {
  bc::FuncId F;
  std::vector<runtime::Value> Args;
};

std::vector<Request> sampleRequests(const Site &S, uint64_t Seed, size_t N,
                                    uint32_t Bucket = 0) {
  Rng R(Seed);
  std::vector<Request> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    uint32_t E = S.Traffic->sampleEndpoint(0, Bucket, R);
    Out.push_back({S.W->Endpoints[E], fleet::TrafficModel::makeArgs(R)});
  }
  return Out;
}

/// The semantic reference: a bare interpreter on the legacy engine.
std::vector<vm::RequestObservables>
referenceObservables(const fleet::Workload &W,
                     const std::vector<Request> &Reqs) {
  runtime::ClassTable Classes(W.Repo);
  runtime::Heap Heap;
  interp::InterpOptions O;
  O.Engine = interp::InterpEngine::Legacy;
  interp::Interpreter I(W.Repo, Classes, Heap,
                        runtime::BuiltinTable::standard(), O);
  std::string Output;
  I.setOutput(&Output);
  std::vector<vm::RequestObservables> Out;
  Out.reserve(Reqs.size());
  for (const Request &Rq : Reqs) {
    interp::InterpResult Res = I.call(Rq.F, Rq.Args);
    vm::RequestObservables Obs;
    Obs.Ret = runtime::toString(Res.Ret);
    Obs.Output = Output;
    Obs.Faults = Res.Faults;
    Obs.Ok = Res.Ok;
    Out.push_back(std::move(Obs));
    Heap.reset();
    Output.clear();
  }
  return Out;
}

bool sameObservables(const vm::RequestObservables &A,
                     const vm::RequestObservables &B) {
  return A.Ret == B.Ret && A.Output == B.Output && A.Faults == B.Faults &&
         A.Ok == B.Ok;
}

/// A verification burst: inputs plus their reference observables.
struct Burst {
  std::vector<Request> Reqs;
  std::vector<vm::RequestObservables> Ref;
};

/// kBurst sampled endpoint requests, then kBurst direct calls of helper
/// functions ("h<N>") on integer arguments.  The generated endpoints
/// mostly return null and print nothing, so the helpers' numeric results
/// are what makes the comparison sensitive to a wrong computation.
Burst makeBurst(const Site &S, uint64_t Seed) {
  Burst B;
  B.Reqs = sampleRequests(S, deriveSeed(Seed, kVerifyStream), kBurst);
  Rng R(deriveSeed(Seed, kVerifyStream + 100));
  const bc::Repo &Repo = S.W->Repo;
  while (B.Reqs.size() < 2 * kBurst) {
    bc::FuncId F = Repo.findFunction(strFormat(
        "h%llu", static_cast<unsigned long long>(R.nextBelow(
                     siteParams().NumHelpers))));
    if (!F.valid())
      throw std::runtime_error("verification: helper function missing");
    std::vector<runtime::Value> Args;
    for (uint32_t I = 0; I < Repo.func(F).NumParams; ++I)
      Args.push_back(runtime::Value::integer(
          static_cast<int64_t>(R.nextBelow(1u << 16))));
    B.Reqs.push_back({F, std::move(Args)});
  }
  B.Ref = referenceObservables(*S.W, B.Reqs);
  return B;
}

/// Runs the burst on \p Server's serial path, each request one check.
void verifySerial(vm::Server &Server, const Burst &B, Checker &C,
                  const char *What, SpanRecorder *T = nullptr) {
  for (size_t I = 0; I < B.Reqs.size(); ++I) {
    vm::RequestResult Res;
    {
      ScopedSpan Span(T, "vm.execute", I + 1);
      Res = Server.executeRequest(B.Reqs[I].F, B.Reqs[I].Args);
    }
    C.check(sameObservables(Res.Obs, B.Ref[I]),
            strFormat("%s: request %zu matches the reference", What, I));
  }
}

//===----------------------------------------------------------------------===//
// Shared steps: seeding and consumer boot.
//===----------------------------------------------------------------------===//

struct Seeded {
  core::SeederOutcome Outcome;
  double Seconds = 0;
};

Seeded seed(const Site &S, const vm::ServerConfig &Config,
            core::PackageManager &M, uint64_t SeederId, uint64_t Seed,
            SpanRecorder *T, Checker &C) {
  core::SeederParams P;
  P.Region = 0;
  P.Bucket = 0;
  P.SeederId = SeederId;
  P.Requests = kSeederRequests;
  P.Seed = Seed;
  Seeded Out;
  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Span(T, "core.seeder_workflow");
    Out.Outcome = core::runSeederWorkflow(*S.W, *S.Traffic, Config,
                                          core::JumpStartOptions(), M, P);
  }
  Out.Seconds = secondsSince(T0);
  C.check(Out.Outcome.Published,
          strFormat("seeder %llu published",
                    static_cast<unsigned long long>(SeederId)));
  return Out;
}

struct Booted {
  core::ConsumerOutcome Outcome;
  double Seconds = 0;
};

Booted boot(const fleet::Workload &W, const vm::ServerConfig &Config,
            const core::PackageManager &M, uint32_t Bucket, uint64_t Seed,
            SpanRecorder *T, Checker &C) {
  core::ConsumerParams P;
  P.Region = 0;
  P.Bucket = Bucket;
  P.Seed = Seed;
  Booted Out;
  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Span(T, "core.start_consumer");
    Out.Outcome =
        core::startConsumer(W, Config, core::JumpStartOptions(), M, P);
  }
  Out.Seconds = secondsSince(T0);
  countAt(T, "core.attempts", Out.Outcome.Attempts);
  countAt(T, "core.rejections",
          static_cast<double>(Out.Outcome.Rejections.size()));
  countAt(T, "core.boots", 1);
  C.check(Out.Outcome.UsedJumpStart && Out.Outcome.Rejections.empty(),
          "consumer booted with Jump-Start and no rejection");
  return Out;
}

/// The deterministic outputs of a body: traced and untraced runs of one
/// seed must agree on every field.
struct Fingerprint {
  std::vector<double> Values;
  /// The JIT counts addJit recorded (also part of Values).
  double Translations = 0;
  double CodeKiB = 0;
  void add(double V) { Values.push_back(V); }
  void addJit(const vm::Server &S) {
    Translations = static_cast<double>(S.theJit().transDb().size());
    CodeKiB = static_cast<double>(S.theJit().totalCodeBytes()) / 1024.0;
    add(Translations);
    add(CodeKiB);
  }
  bool operator==(const Fingerprint &O) const { return Values == O.Values; }
};

/// The traced run's JIT counts (jit.translations, jit.code_kb).
void addJitCounts(const Fingerprint &F, std::map<std::string, double> &Extra) {
  Extra["jit.translations"] = F.Translations;
  Extra["jit.code_kb"] = F.CodeKiB;
}

//===----------------------------------------------------------------------===//
// Probes: direct calls to the layers a body only reaches indirectly.
//===----------------------------------------------------------------------===//

/// Replays \p Reqs on bare interpreters: plain, and with the JIT's
/// profiling hooks attached (what every serial request pays).
void probeInterp(const fleet::Workload &W, const vm::ServerConfig &Config,
                 const std::vector<Request> &Reqs, SpanRecorder *T) {
  for (bool Instrumented : {false, true}) {
    runtime::ClassTable Classes(W.Repo);
    runtime::Heap Heap;
    interp::Interpreter I(W.Repo, Classes, Heap,
                          runtime::BuiltinTable::standard(), Config.Interp);
    std::string Output;
    I.setOutput(&Output);
    jit::Jit J(W.Repo, Config.Jit);
    jit::JitProfilingHooks Hooks(J);
    if (Instrumented)
      I.setCallbacks(&Hooks);
    const char *Name = Instrumented ? "interp.instrumented" : "interp.plain";
    uint64_t Steps = 0;
    uint64_t Allocs0 = Heap.hostAllocs();
    for (size_t Rq = 0; Rq < Reqs.size(); ++Rq) {
      ScopedSpan Span(T, Name, Rq + 1);
      Steps += I.call(Reqs[Rq].F, Reqs[Rq].Args).Steps;
      Heap.reset();
      Output.clear();
    }
    if (Instrumented)
      continue;
    countAt(T, "interp.requests", static_cast<double>(Reqs.size()));
    countAt(T, "interp.steps", static_cast<double>(Steps));
    countAt(T, "interp.ic_hits", static_cast<double>(I.caches().ICHits));
    countAt(T, "interp.ic_misses", static_cast<double>(I.caches().ICMisses));
    countAt(T, "runtime.allocs",
            static_cast<double>(Heap.hostAllocs() - Allocs0));
  }
}

/// Re-lowers and re-lays-out every optimized translation of \p S, and
/// recomputes the C3 function order of \p Pkg (null: \p S's own profile).
void probeJit(vm::Server &S, const profile::ProfilePackage *Pkg,
              SpanRecorder *T) {
  jit::Jit &J = S.theJit();
  const bc::Repo &R = J.repo();
  const jit::JitConfig &Cfg = J.config();
  jit::LayoutOptions LO;
  LO.UseExtTsp = Cfg.UseExtTsp;
  LO.SplitCold = Cfg.SplitHotCold;
  std::vector<const jit::VasmUnit *> Units;
  for (const auto &Tr : J.transDb().all())
    if (Tr->Kind == jit::TransKind::Optimized && Tr->Unit)
      Units.push_back(Tr->Unit.get());
  for (const jit::VasmUnit *U : Units) {
    jit::RegionDescriptor Region = jit::selectRegion(
        R, J.blockCache(), J.profileStore(), U->Func, Cfg.Region);
    jit::LowerOptions LOpts;
    LOpts.Kind = jit::TransKind::Optimized;
    LOpts.TypeMonoThreshold = Cfg.TypeMonoThreshold;
    {
      ScopedSpan Span(T, "jit.lower");
      std::unique_ptr<jit::VasmUnit> Unit = jit::lowerFunction(
          R, J.blockCache(), U->Func, &J.profileStore(), &Region, LOpts);
    }
    {
      ScopedSpan Span(T, "layout.unit");
      jit::UnitLayout L = jit::layoutUnit(*U, LO);
      (void)L;
    }
    countAt(T, "layout.blocks", static_cast<double>(U->Blocks.size()));
  }
  // The graph Jit::buildPackage orders by: tier-2 arcs when the seeder's
  // instrumented optimized code recorded any, else the tier-1 graph.
  layout::CallGraph G =
      Pkg && !Pkg->Opt.CallArcs.empty()
          ? jit::buildTier2CallGraph(R, Pkg->Opt, J.profileStore())
          : jit::buildTier1CallGraph(R, J.blockCache(), J.profileStore());
  ScopedSpan Span(T, "layout.c3");
  std::vector<uint32_t> Order = layout::c3Order(G);
  (void)Order;
}

//===----------------------------------------------------------------------===//
// Workload plumbing.
//===----------------------------------------------------------------------===//

/// What one run of a workload measured.
struct Samples {
  std::vector<double> SetupSec;
  std::vector<double> BodySec;
  std::vector<double> SeederSec;
  std::vector<double> BootSec;
  double PackageKiB = 0;
  std::vector<Metric> Reported;
};

/// Boots kSetupBoots consumers (a set-up's consumer_boot_s samples) and
/// \returns the last one's server.
std::unique_ptr<vm::Server> bootForSetup(const fleet::Workload &W,
                                         const vm::ServerConfig &Config,
                                         const core::PackageManager &M,
                                         uint64_t Seed, Samples &Out,
                                         SpanRecorder *T, Checker &C) {
  std::unique_ptr<vm::Server> Server;
  for (uint32_t K = 0; K < kSetupBoots; ++K) {
    Booted B = boot(W, Config, M, 0,
                    deriveSeed(Seed, kConsumerStream * 100 + K), T, C);
    Out.BootSec.push_back(B.Seconds);
    Server = std::move(B.Outcome.Server);
  }
  return Server;
}

/// Runs the slices: \p Setup (which appends to Out.SetupSec) and then
/// \p Body, at least once per slice.  Spreading the set-ups over the run
/// keeps one burst of host noise from landing on all of them.
template <typename SetupFn, typename BodyFn>
void runSlices(double Seconds, const Samples &Out, SetupFn &&Setup,
               BodyFn &&Body) {
  Clock::time_point Start = Clock::now();
  for (size_t Slice = 1; Slice <= kSlices; ++Slice) {
    double SetupSec = 0;
    for (size_t N = 0; N < kMaxSliceSetups && SetupSec < kSliceSetupSec;
         ++N) {
      Setup();
      SetupSec += Out.SetupSec.back();
    }
    do
      Body();
    while (secondsSince(Start) <
           Seconds * static_cast<double>(Slice) / kSlices);
  }
}

//===----------------------------------------------------------------------===//
// warmup: paper Fig. 4.
//===----------------------------------------------------------------------===//

fleet::ServerSimParams warmupParams(uint64_t Seed) {
  // The paper's 10-minute window at the figure's offered load.
  fleet::ServerSimParams P;
  P.DurationSeconds = 600;
  P.OfferedRps = 340;
  P.Seed = deriveSeed(Seed, kWarmupStream);
  return P;
}

struct WarmupSetup {
  Site S;
  vm::ServerConfig Config;
  profile::ProfilePackage Pkg;
  double PackageKiB = 0;
};

WarmupSetup setupWarmup(uint64_t Seed, Samples &Out, SpanRecorder *T,
                        Checker &C) {
  Clock::time_point T0 = Clock::now();
  WarmupSetup W;
  W.S = generateSite(T);
  W.Config = bench::figureServerConfig();
  core::PackageManager M;
  Seeded Sd = seed(W.S, W.Config, M, 1, kFigureSeederSeed, T, C);
  W.Pkg = Sd.Outcome.Package;
  W.PackageKiB = static_cast<double>(Sd.Outcome.PackageBytes) / 1024.0;
  // The package must also pass a real consumer's accept path (strict
  // lint, install); runWarmup installs it without those checks.
  bootForSetup(*W.S.W, W.Config, M, Seed, Out, T, C);
  Out.SetupSec.push_back(secondsSince(T0));
  Out.SeederSec.push_back(Sd.Seconds);
  return W;
}

/// fleet::runWarmup's loop, step for step, with a span around each call
/// into the server (the traced stand-in for the opaque runWarmup call).
/// \returns the capacity loss it computes, which must equal runWarmup's.
double tracedWarmupRun(const WarmupSetup &W, vm::ServerConfig Config,
                       const fleet::ServerSimParams &P,
                       const profile::ProfilePackage *Pkg, SpanRecorder *T,
                       std::vector<Request> &Executed,
                       std::unique_ptr<vm::Server> &ServerOut) {
  const fleet::Workload &Wl = *W.S.W;
  const fleet::TrafficModel &Traffic = *W.S.Traffic;
  Rng R(P.Seed);
  obs::Observability O;
  O.Clock.set(0);
  TimeSeries NormalizedRps("normalized_rps");
  if (Config.WarmupEndpoints.empty())
    for (uint32_t I = 0; I < 16; ++I)
      Config.WarmupEndpoints.push_back(
          Wl.Endpoints[Traffic.sampleEndpoint(P.Region, P.Bucket, R)].raw());
  Config.Obs = &O;
  Config.Name = P.RunLabel;
  auto Server = std::make_unique<vm::Server>(Wl.Repo, Config, R.next());
  if (Pkg) {
    ScopedSpan Span(T, "vm.install");
    if (!Server->installPackage(*Pkg).ok())
      throw std::runtime_error("traced warmup: package rejected");
  }
  vm::InitStats Init;
  {
    ScopedSpan Span(T, "vm.startup");
    Init = Server->startup();
  }
  jit::Jit &J = Server->theJit();
  double Now = Init.TotalSeconds;
  NormalizedRps.record(0, 0);
  const double CoreSecondsPerTick =
      static_cast<double>(Config.Cores) * P.TickSeconds;
  while (Now < P.DurationSeconds) {
    ScopedSpan Tick(T, "fleet.tick");
    double SampleCost = 0;
    uint32_t NumSamples = std::max(1u, P.SamplesPerTick);
    for (uint32_t S = 0; S < NumSamples; ++S) {
      uint32_t E = Traffic.sampleEndpoint(P.Region, P.Bucket, R);
      Request Rq{Wl.Endpoints[E], fleet::TrafficModel::makeArgs(R)};
      {
        ScopedSpan Span(T, "vm.execute", Executed.size() + 1);
        SampleCost += Server->executeRequest(Rq.F, Rq.Args).Seconds;
      }
      Executed.push_back(std::move(Rq));
    }
    double ServiceSec = SampleCost / NumSamples;
    jit::JitPhase Phase = J.phase();
    bool Retranslating = Phase == jit::JitPhase::Optimizing ||
                         Phase == jit::JitPhase::Relocating;
    double JitWall;
    {
      ScopedSpan Span(T, Retranslating ? "jit.grant_retranslate"
                                       : "jit.grant");
      JitWall = Server->grantJitTime(P.TickSeconds);
    }
    double JitCoreSeconds =
        JitWall * static_cast<double>(Config.JitWorkerCores);
    double ServeCapacity =
        std::max(0.0, CoreSecondsPerTick - JitCoreSeconds);
    double Offered = P.OfferedRps * P.TickSeconds;
    double Served = std::min(Offered, ServeCapacity / ServiceSec);
    uint64_t Extra = static_cast<uint64_t>(Served);
    Extra -= std::min<uint64_t>(Extra, NumSamples);
    for (uint64_t I = 0; I < Extra; ++I)
      J.onRequestFinished();
    Now += P.TickSeconds;
    O.Clock.set(Now);
    NormalizedRps.record(Now, Served / Offered);
    {
      ScopedSpan Span(T, "jit.code_bytes");
      uint64_t Code = J.totalCodeBytes();
      (void)Code;
    }
  }
  ServerOut = std::move(Server);
  return NormalizedRps.areaAbove(1.0, 0, P.DurationSeconds) /
         P.DurationSeconds;
}

void runWarmupWorkload(const RunOptions &Opts, Samples &Out, Checker &C,
                       SpanRecorder *T, std::map<std::string, double> &Extra) {
  const fleet::ServerSimParams P = warmupParams(Opts.Seed);
  std::unique_ptr<WarmupSetup> W;
  std::unique_ptr<Burst> B;
  std::optional<Fingerprint> First;
  auto Setup = [&] {
    W = std::make_unique<WarmupSetup>(setupWarmup(Opts.Seed, Out, nullptr, C));
    if (!B)
      B = std::make_unique<Burst>(makeBurst(W->S, Opts.Seed));
  };
  auto Body = [&] {
    Clock::time_point T0 = Clock::now();
    fleet::WarmupResult NoJs =
        fleet::runWarmup(*W->S.W, *W->S.Traffic, W->Config, P);
    fleet::WarmupResult Js =
        fleet::runWarmup(*W->S.W, *W->S.Traffic, W->Config, P, &W->Pkg);
    Out.BodySec.push_back(secondsSince(T0));
    Fingerprint F;
    F.add(NoJs.CapacityLossFraction);
    F.add(Js.CapacityLossFraction);
    F.addJit(*Js.Server);
    if (First)
      C.check(F == *First, "warmup body repeats its virtual results");
    else
      First = F;
    verifySerial(*NoJs.Server, *B, C, "warmup no-Jump-Start server");
    verifySerial(*Js.Server, *B, C, "warmup Jump-Start server");
  };
  runSlices(Opts.Seconds, Out, Setup, Body);
  Out.PackageKiB = W->PackageKiB;
  Out.Reported.push_back({"capacity_loss_nojs", First->Values[0], "fraction"});
  Out.Reported.push_back({"capacity_loss_js", First->Values[1], "fraction"});
  if (!T)
    return;

  // Traced: a fresh set-up with spans, the body as runWarmup's steps.
  Samples Traced;
  WarmupSetup TW = setupWarmup(Opts.Seed, Traced, T, C);
  probeFrontend(*TW.S.W, T, C);
  std::vector<Request> Executed;
  std::unique_ptr<vm::Server> NoJsServer, JsServer;
  Fingerprint F;
  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Span(T, "bench.body");
    F.add(tracedWarmupRun(TW, TW.Config, P, nullptr, T, Executed,
                          NoJsServer));
    F.add(tracedWarmupRun(TW, TW.Config, P, &TW.Pkg, T, Executed, JsServer));
  }
  double TracedSec = secondsSince(T0);
  F.addJit(*JsServer);
  C.check(F == *First, "traced warmup matches runWarmup's virtual results");
  Extra["bench.trace_overhead_pct"] =
      100.0 * (TracedSec / medianOf(Out.BodySec) - 1.0);
  addJitCounts(F, Extra);
  if (Executed.size() > kInterpProbeRequests)
    Executed.resize(kInterpProbeRequests);
  probeInterp(*TW.S.W, TW.Config, Executed, T);
  probeJit(*JsServer, &TW.Pkg, T);
}

//===----------------------------------------------------------------------===//
// boot: the seeder -> consumer lifecycle (paper Fig. 3).
//===----------------------------------------------------------------------===//

struct BootSetup {
  Site S0; ///< release 0: what the seeders profile
  Site S1; ///< release 1: the drifted site the consumers boot
  vm::ServerConfig Config;
};

BootSetup setupBoot(support::ThreadPool *Pool, Samples &Out,
                    SpanRecorder *T) {
  Clock::time_point T0 = Clock::now();
  BootSetup B;
  B.S0 = generateSite(T);
  fleet::DriftParams D;
  D.Release = 1;
  {
    ScopedSpan Span(T, "fleet.generate");
    B.S1 = makeSite(fleet::generateDriftedWorkload(siteParams(), D));
  }
  B.Config = bench::figureServerConfig();
  B.Config.CompilePool = Pool;
  Out.SetupSec.push_back(secondsSince(T0));
  return B;
}

struct BootBody {
  Fingerprint F;
  std::unique_ptr<vm::Server> LastConsumer;
  std::vector<uint8_t> Release1;
};

BootBody runBootBody(const BootSetup &B, uint64_t Seed, Samples &Out,
                     SpanRecorder *T, Checker &C) {
  BootBody R;
  core::PackageManager M;
  for (uint32_t K = 0; K < kBootSeeders; ++K) {
    Seeded Sd = seed(B.S0, B.Config, M, K + 1,
                     deriveSeed(Seed, kSeederStream * 100 + K), T, C);
    Out.SeederSec.push_back(Sd.Seconds);
  }
  core::PackageManifest Merged;
  support::Status S;
  {
    ScopedSpan Span(T, "profile.merge");
    S = M.merge(0, 0, &Merged);
  }
  C.check(S.ok(), "seeder packages merge");
  Out.PackageKiB = static_cast<double>(Merged.Bytes) / 1024.0;
  R.F.add(static_cast<double>(Merged.Bytes));
  R.F.add(static_cast<double>(Merged.Checksum));

  // Release 1: rebase the merged package onto the drifted site and ship
  // it as a delta against release 0's.
  core::PackageHandle H;
  profile::ProfilePackage MergedPkg;
  C.check(M.fetch(Merged.Id, H).ok() &&
              profile::ProfilePackage::deserialize(*H.Blob, MergedPkg),
          "merged package decodes");
  profile::ProfilePackage Rebased;
  C.check(profile::rebasePackage(MergedPkg, B.S0.W->Repo, B.S1.W->Repo,
                                 vm::Server::repoFingerprint(B.S1.W->Repo),
                                 Rebased)
              .ok(),
          "merged package rebases onto release 1");
  std::vector<uint8_t> Bytes = Rebased.serialize();
  M.beginRelease();
  core::PackageManifest Delta;
  {
    ScopedSpan Span(T, "profile.delta_encode");
    S = M.publishDelta(0, 1, Bytes, Merged.Id, &Delta);
  }
  C.check(S.ok(), "release 1 publishes as a delta");
  countAt(T, "profile.delta_wire_bytes", static_cast<double>(Delta.DeltaBytes));
  countAt(T, "profile.delta_full_bytes", static_cast<double>(Delta.Bytes));
  std::vector<uint8_t> Rebuilt;
  {
    ScopedSpan Span(T, "profile.delta_apply");
    S = M.reconstruct(Delta.Id, Rebuilt);
  }
  C.check(S.ok() && Rebuilt == Bytes, "release 1 reconstructs exactly");
  R.F.add(static_cast<double>(Delta.DeltaBytes));

  for (uint32_t K = 0; K < kBootConsumers; ++K) {
    Booted Bt = boot(*B.S1.W, B.Config, M, 1,
                     deriveSeed(Seed, kConsumerStream * 100 + K), T, C);
    Out.BootSec.push_back(Bt.Seconds);
    if (K + 1 == kBootConsumers) {
      R.F.addJit(*Bt.Outcome.Server);
      R.LastConsumer = std::move(Bt.Outcome.Server);
    }
  }
  R.Release1 = std::move(Rebuilt);
  return R;
}

/// The layers inside runSeederWorkflow and startConsumer, called directly
/// on the same inputs.
void probeBoot(const BootSetup &B, const BootBody &Body, uint64_t Seed,
               SpanRecorder *T, Checker &C) {
  vm::ServerConfig SeederConfig = B.Config;
  SeederConfig.Jit.SeederInstrumentation = true;
  std::unique_ptr<vm::Server> Seeder;
  {
    ScopedSpan Span(T, "fleet.run_seeder");
    Seeder = fleet::runSeeder(*B.S0.W, *B.S0.Traffic, SeederConfig, 0, 0,
                              kSeederRequests,
                              deriveSeed(Seed, kSeederStream * 100));
  }
  profile::ProfilePackage Pkg;
  {
    ScopedSpan Span(T, "jit.build_package");
    Pkg = Seeder->buildSeederPackage(0, 0, 1);
  }
  std::vector<uint8_t> Blob;
  {
    ScopedSpan Span(T, "profile.encode");
    Blob = Pkg.serialize();
  }
  analysis::Linter SeederLint(
      B.S0.W->Repo,
      static_cast<uint32_t>(runtime::BuiltinTable::standard().size()));
  {
    ScopedSpan Span(T, "analysis.lint");
    C.check(analysis::countErrors(SeederLint.lintPackage(Pkg)) == 0,
            "seeder package lints clean");
  }
  verifySerial(*Seeder, makeBurst(B.S0, Seed), C, "boot seeder server", T);

  // Consumer side, on the release-1 bytes the consumers booted from.
  profile::ProfilePackage Decoded;
  {
    ScopedSpan Span(T, "profile.decode");
    C.check(profile::ProfilePackage::deserialize(Body.Release1, Decoded),
            "release 1 decodes");
  }
  analysis::Linter ConsumerLint(
      B.S1.W->Repo,
      static_cast<uint32_t>(runtime::BuiltinTable::standard().size()));
  {
    ScopedSpan Span(T, "analysis.lint");
    C.check(analysis::countErrors(ConsumerLint.lintPackage(Decoded)) == 0,
            "release 1 lints clean");
  }
  vm::ServerConfig ConsumerConfig = B.Config;
  core::applyOptimizationOptions(ConsumerConfig, core::JumpStartOptions());
  vm::Server Consumer(B.S1.W->Repo, ConsumerConfig,
                      deriveSeed(Seed, kProbeStream));
  {
    ScopedSpan Span(T, "vm.install");
    C.check(Consumer.installPackage(Decoded).ok(), "release 1 installs");
  }
  {
    ScopedSpan Span(T, "vm.startup");
    C.check(Consumer.startup().UsedJumpStart, "probe consumer uses it");
  }
  probeJit(Consumer, &Decoded, T);
}

void runBootWorkload(const RunOptions &Opts, Samples &Out, Checker &C,
                     SpanRecorder *T, std::map<std::string, double> &Extra) {
  ThreadCounts Threads = threadsFor("boot", Opts.Nproc);
  support::ThreadPool Pool(Threads.CompilePool);
  std::unique_ptr<BootSetup> B;
  std::unique_ptr<Burst> Verify;
  std::optional<Fingerprint> First;

  auto Body = [&](const BootSetup &Setup, Samples &S, SpanRecorder *Tr) {
    Clock::time_point T0 = Clock::now();
    BootBody R;
    {
      ScopedSpan Span(Tr, "bench.body");
      R = runBootBody(Setup, Opts.Seed, S, Tr, C);
    }
    S.BodySec.push_back(secondsSince(T0));
    verifySerial(*R.LastConsumer, *Verify, C, "boot consumer");
    return R;
  };
  runSlices(
      Opts.Seconds, Out,
      [&] {
        B = std::make_unique<BootSetup>(setupBoot(&Pool, Out, nullptr));
        if (!Verify)
          Verify = std::make_unique<Burst>(makeBurst(B->S1, Opts.Seed));
      },
      [&] {
        BootBody R = Body(*B, Out, nullptr);
        if (First)
          C.check(R.F == *First, "boot body repeats its outputs");
        else
          First = R.F;
      });
  TailSummary Boots = summarize(Out.BootSec);
  Out.Reported.push_back({"consumer_boot_tail_s", Boots.Tail, "s"});
  Out.Reported.push_back({"consumer_boot_tail_pct", Boots.TailPct, "%"});
  Out.Reported.push_back(
      {"consumer_boot_n", static_cast<double>(Boots.Count), "count"});
  if (!T)
    return;

  Samples Traced;
  std::unique_ptr<BootSetup> TB =
      std::make_unique<BootSetup>(setupBoot(&Pool, Traced, T));
  probeFrontend(*TB->S0.W, T, C);
  BootBody R = Body(*TB, Traced, T);
  C.check(R.F == *First, "traced boot matches the untraced outputs");
  Extra["bench.trace_overhead_pct"] =
      100.0 * (Traced.BodySec.front() / medianOf(Out.BodySec) - 1.0);
  addJitCounts(R.F, Extra);
  probeBoot(*TB, R, Opts.Seed, T, C);
  probeInterp(*TB->S1.W, TB->Config,
              sampleRequests(TB->S1, deriveSeed(Opts.Seed, kProbeStream),
                             kInterpProbeRequests),
              T);
}

//===----------------------------------------------------------------------===//
// serve: open-loop concurrent serving by a warmed Jump-Start consumer.
//===----------------------------------------------------------------------===//

struct ServeSetup {
  Site S;
  std::unique_ptr<vm::Server> Server;
  vm::ServerConfig Config;
  double PackageKiB = 0;

  ServeSetup() = default;
  ServeSetup(ServeSetup &&) = default;
  ServeSetup &operator=(ServeSetup &&) = default;
  ~ServeSetup() {
    if (Server && Server->serving())
      Server->endConcurrentServing();
  }
};

ServeSetup setupServe(uint64_t Seed, unsigned Workers, Samples &Out,
                      SpanRecorder *T, Checker &C) {
  Clock::time_point T0 = Clock::now();
  ServeSetup V;
  V.S = generateSite(T);
  V.Config = bench::figureServerConfig();
  V.Config.ServeWorkers = Workers;
  core::PackageManager M;
  Seeded Sd = seed(V.S, V.Config, M, 1, kFigureSeederSeed, T, C);
  V.PackageKiB = static_cast<double>(Sd.Outcome.PackageBytes) / 1024.0;
  V.Server = bootForSetup(*V.S.W, V.Config, M, Seed, Out, T, C);
  // Warmed: finish any compile work the boot queued, so serving runs with
  // no JIT activity.
  while (V.Server->theJit().hasPendingWork()) {
    ScopedSpan Span(T, "jit.grant");
    V.Server->grantJitTime(1.0);
  }
  {
    ScopedSpan Span(T, "vm.begin_serving");
    V.Server->beginConcurrentServing();
  }
  Out.SetupSec.push_back(secondsSince(T0));
  Out.SeederSec.push_back(Sd.Seconds);
  return V;
}

/// One rung of the ladder: its schedule and its requests.
struct Rung {
  double Rate = 0;
  std::vector<double> Due;
  std::vector<Request> Reqs;
};

struct LadderPass {
  std::vector<OpenLoopResult> Rungs;
  double MaxRps = 0;
};

void runServeWorkload(const RunOptions &Opts, Samples &Out, Checker &C,
                      SpanRecorder *T, std::map<std::string, double> &Extra) {
  const ThreadCounts Threads = threadsFor("serve", Opts.Nproc);
  const ServeLadder &L = Opts.Ladder;
  std::unique_ptr<ServeSetup> V;
  // Inputs, drawn once (every set-up builds the same site).
  std::vector<Rung> Ladder;
  std::unique_ptr<Burst> Verify;
  auto DrawInputs = [&](const Site &S) {
    for (size_t K = 0; K < L.Rates.size(); ++K) {
      Rung Rg;
      Rg.Rate = L.Rates[K];
      size_t N = static_cast<size_t>(Rg.Rate * L.WindowSec);
      Rg.Due = poissonSchedule(deriveSeed(Opts.Seed, kServeStream * 100 + K),
                               Rg.Rate, N);
      Rg.Reqs = sampleRequests(S, deriveSeed(Opts.Seed, kServeStream + K), N);
      Ladder.push_back(std::move(Rg));
    }
    Verify = std::make_unique<Burst>(makeBurst(S, Opts.Seed));
  };

  // Request indices restart with each server, so every server sees the
  // same request stream.
  uint64_t NextIndex = 0;
  auto Pass = [&](vm::Server &Server, SpanRecorder *Tr, Samples &S) {
    LadderPass P;
    // Serve spans run on the worker threads; link them to the body.
    const int64_t Body = Tr ? Tr->current() : SpanRecorder::kNoParent;
    Clock::time_point T0 = Clock::now();
    for (const Rung &Rg : Ladder) {
      uint64_t Base = NextIndex;
      OpenLoopResult R =
          runOpenLoop(Rg.Due, Threads.ServeWorkers, [&](size_t I) {
            ScopedSpan Span(Tr, "vm.serve", Base + I + 1, Body);
            vm::RequestResult Res =
                Server.serve(Rg.Reqs[I].F, Rg.Reqs[I].Args, Base + I);
            return !Res.Shed && Res.Obs.Ok && Res.Obs.Faults == 0;
          });
      NextIndex += Rg.Due.size();
      C.Attempted += Rg.Due.size();
      C.Failed += R.Failed;
      bool Passes = R.Failed == 0 && !R.BacklogGrowing &&
                    percentileOf(R.LatencyUs, 99) <= L.P99LimitUs;
      if (Passes)
        P.MaxRps = std::max(P.MaxRps, Rg.Rate);
      P.Rungs.push_back(std::move(R));
    }
    S.BodySec.push_back(secondsSince(T0));
    // Verification burst on the concurrent path.
    for (size_t I = 0; I < Verify->Reqs.size(); ++I) {
      vm::RequestResult Res =
          Server.serve(Verify->Reqs[I].F, Verify->Reqs[I].Args, NextIndex++);
      C.check(!Res.Shed && sameObservables(Res.Obs, Verify->Ref[I]),
              strFormat("serve: request %zu matches the reference", I));
    }
    return P;
  };

  size_t RefRung = 0;
  for (size_t K = 0; K < L.Rates.size(); ++K)
    if (L.Rates[K] == L.ReferenceRate)
      RefRung = K;

  std::vector<std::vector<double>> RungLatency(L.Rates.size());
  std::vector<double> MaxRps;
  auto Absorb = [&](const LadderPass &P) {
    for (size_t K = 0; K < Ladder.size(); ++K)
      RungLatency[K].insert(RungLatency[K].end(),
                            P.Rungs[K].LatencyUs.begin(),
                            P.Rungs[K].LatencyUs.end());
    MaxRps.push_back(P.MaxRps);
  };

  // Counts per pass: every pass serves the same requests.
  vm::ServeStats Stats;
  auto ServeFingerprint = [&Stats](vm::Server &S, size_t Passes) {
    Stats = S.endConcurrentServing();
    Fingerprint F;
    F.add(static_cast<double>(Stats.Served) / static_cast<double>(Passes));
    F.add(static_cast<double>(Stats.Shed));
    F.add(static_cast<double>(Stats.Faults));
    F.addJit(S);
    F.add(static_cast<double>(Stats.SnapshotsPublished));
    return F;
  };

  // Ends the current server's serving window and checks its counts.
  std::optional<Fingerprint> First;
  size_t Passes = 0;
  auto Retire = [&] {
    if (!V)
      return;
    Fingerprint F = ServeFingerprint(*V->Server, Passes);
    C.check(Stats.Shed == 0 && Stats.Faults == 0,
            "serve: nothing shed or faulted");
    if (First)
      C.check(F == *First, "every serving window gives the same counts");
    else
      First = F;
    V.reset();
  };
  runSlices(
      Opts.Seconds, Out,
      [&] {
        Retire();
        V = std::make_unique<ServeSetup>(
            setupServe(Opts.Seed, Threads.ServeWorkers, Out, nullptr, C));
        NextIndex = 0;
        Passes = 0;
        if (!Verify)
          DrawInputs(V->S);
      },
      [&] {
        Absorb(Pass(*V->Server, nullptr, Out));
        ++Passes;
      });
  Out.PackageKiB = V->PackageKiB;
  Retire();
  const std::vector<double> &RefLatency = RungLatency[RefRung];
  TailSummary Ref = summarize(RefLatency);
  Out.Reported.push_back({"serve_p50_us", Ref.Median, "us"});
  Out.Reported.push_back({"serve_p99_us", percentileOf(RefLatency, 99), "us"});
  Out.Reported.push_back({"serve_n", static_cast<double>(Ref.Count), "count"});
  Out.Reported.push_back({"serve_max_rps", medianOf(MaxRps), "1/s"});
  for (size_t K = 0; K < Ladder.size(); ++K)
    Out.Reported.push_back({strFormat("serve_p99_us@%.0f", Ladder[K].Rate),
                            percentileOf(RungLatency[K], 99), "us"});
  if (!T)
    return;

  // Traced: a fresh set-up and one traced pass.

  Samples Traced;
  V = std::make_unique<ServeSetup>(
      setupServe(Opts.Seed, Threads.ServeWorkers, Traced, T, C));
  probeFrontend(*V->S.W, T, C);
  NextIndex = 0;
  LadderPass Tp;
  {
    ScopedSpan Span(T, "bench.body");
    Tp = Pass(*V->Server, T, Traced);
  }
  Fingerprint F = ServeFingerprint(*V->Server, 1);
  C.check(F == *First, "traced serve matches the untraced counts");
  Extra["bench.trace_overhead_pct"] =
      100.0 * (Traced.BodySec.front() / medianOf(Out.BodySec) - 1.0);
  addJitCounts(F, Extra);
  Extra["vm.shed"] = static_cast<double>(Stats.Shed);
  Extra["vm.faults"] = static_cast<double>(Stats.Faults);
  Extra["vm.snapshots_published"] =
      static_cast<double>(Stats.SnapshotsPublished);
  // Queueing at the reference rate (what serve_p99_us sees); generator
  // lateness over the whole ladder.
  const std::vector<double> &Queue = Tp.Rungs[RefRung].QueueUs;
  std::vector<double> Lag;
  for (const OpenLoopResult &R : Tp.Rungs)
    Lag.insert(Lag.end(), R.GeneratorLagUs.begin(), R.GeneratorLagUs.end());
  Extra["vm.queue_us"] = medianOf(Queue);
  Extra["vm.queue_p99_us"] = percentileOf(Queue, 99);
  Extra["bench.generator_lag_us"] = percentileOf(Lag, 99);
  const std::vector<Request> &RefReqs = Ladder[RefRung].Reqs;
  std::vector<Request> Probe(
      RefReqs.begin(),
      RefReqs.begin() + static_cast<std::ptrdiff_t>(std::min(
                            RefReqs.size(), kInterpProbeRequests)));
  probeInterp(*V->S.W, V->Config, Probe, T);
}

//===----------------------------------------------------------------------===//
// steady: paper Fig. 5.
//===----------------------------------------------------------------------===//

struct SteadySetup {
  Site S;
  std::unique_ptr<vm::Server> Js;
  std::unique_ptr<vm::Server> NoJs;
  profile::ProfilePackage Pkg;
  double PackageKiB = 0;
};

SteadySetup setupSteady(uint64_t Seed, Samples &Out, SpanRecorder *T,
                        Checker &C) {
  Clock::time_point T0 = Clock::now();
  SteadySetup St;
  St.S = generateSite(T);
  vm::ServerConfig Config = bench::figureServerConfig();
  Config.Jit.ProfileRequestTarget = 400; // fast maturity, as in fig5
  core::PackageManager M;
  Seeded Sd = seed(St.S, Config, M, 1, kFigureSeederSeed, T, C);
  St.Pkg = Sd.Outcome.Package;
  St.PackageKiB = static_cast<double>(Sd.Outcome.PackageBytes) / 1024.0;
  St.Js = bootForSetup(*St.S.W, Config, M, Seed, Out, T, C);
  // No Jump-Start: the server warms itself on its own traffic.
  {
    ScopedSpan Span(T, "fleet.run_seeder");
    St.NoJs = fleet::runSeeder(*St.S.W, *St.S.Traffic, Config, 0, 0,
                               kSeederRequests,
                               deriveSeed(Seed, kNoJsStream));
  }
  Out.SetupSec.push_back(secondsSince(T0));
  Out.SeederSec.push_back(Sd.Seconds);
  return St;
}

fleet::SteadyStateParams steadyParams(uint64_t Seed) {
  fleet::SteadyStateParams P;
  P.Requests = 800;
  P.WarmupRequests = 150;
  P.Seed = deriveSeed(Seed, kSteadyStream);
  P.Machine = bench::scaledMachine();
  return P;
}

void runSteadyWorkload(const RunOptions &Opts, Samples &Out, Checker &C,
                       SpanRecorder *T, std::map<std::string, double> &Extra) {
  const fleet::SteadyStateParams P = steadyParams(Opts.Seed);
  auto Body = [&](SteadySetup &St, Samples &S, SpanRecorder *Tr) {
    Fingerprint F;
    fleet::SteadyStateResult Js, NoJs;
    Clock::time_point T0 = Clock::now();
    {
      ScopedSpan Span(Tr, "bench.body");
      {
        ScopedSpan Inner(Tr, "sim.measure");
        Js = fleet::measureSteadyState(*St.S.W, *St.S.Traffic, *St.Js, P);
      }
      {
        ScopedSpan Inner(Tr, "sim.measure");
        NoJs = fleet::measureSteadyState(*St.S.W, *St.S.Traffic, *St.NoJs, P);
      }
    }
    S.BodySec.push_back(secondsSince(T0));
    F.add(NoJs.CyclesPerRequest);
    F.add(Js.CyclesPerRequest);
    F.addJit(*St.Js);
    countAt(Tr, "sim.instructions",
            static_cast<double>(Js.Counters.Instructions +
                                NoJs.Counters.Instructions));
    if (Tr) {
      Extra["sim.js.l1i_miss_rate"] = Js.L1IMissRate;
      Extra["sim.js.itlb_miss_rate"] = Js.ITlbMissRate;
      Extra["sim.js.branch_miss_rate"] = Js.BranchMissRate;
      Extra["sim.nojs.l1i_miss_rate"] = NoJs.L1IMissRate;
      Extra["sim.nojs.itlb_miss_rate"] = NoJs.ITlbMissRate;
      Extra["sim.nojs.branch_miss_rate"] = NoJs.BranchMissRate;
    }
    return F;
  };

  std::unique_ptr<SteadySetup> St;
  std::unique_ptr<Burst> B;
  auto Verify = [&] {
    if (!St)
      return;
    verifySerial(*St->Js, *B, C, "steady Jump-Start server");
    verifySerial(*St->NoJs, *B, C, "steady no-Jump-Start server");
  };
  // Later bodies reuse a set-up's servers, so only each set-up's first
  // body is compared and reported.
  std::optional<Fingerprint> First;
  bool Fresh = false;
  runSlices(
      Opts.Seconds, Out,
      [&] {
        Verify();
        St.reset();
        St = std::make_unique<SteadySetup>(
            setupSteady(Opts.Seed, Out, nullptr, C));
        if (!B)
          B = std::make_unique<Burst>(makeBurst(St->S, Opts.Seed));
        Fresh = true;
      },
      [&] {
        Fingerprint F = Body(*St, Out, nullptr);
        if (Fresh && First)
          C.check(F == *First, "each set-up's first body repeats its results");
        else if (Fresh)
          First = F;
        Fresh = false;
      });
  Verify();
  Out.PackageKiB = St->PackageKiB;
  Out.Reported.push_back(
      {"steady_speedup_pct",
       100.0 * (First->Values[0] / First->Values[1] - 1.0), "%"});
  if (!T)
    return;

  St.reset();
  Samples Traced;
  St = std::make_unique<SteadySetup>(setupSteady(Opts.Seed, Traced, T, C));
  probeFrontend(*St->S.W, T, C);
  Fingerprint F = Body(*St, Traced, T);
  C.check(F == *First, "traced steady state matches the untraced run");
  Extra["bench.trace_overhead_pct"] =
      100.0 * (Traced.BodySec.front() / medianOf(Out.BodySec) - 1.0);
  addJitCounts(F, Extra);
  probeInterp(*St->S.W, bench::figureServerConfig(),
              sampleRequests(St->S, deriveSeed(Opts.Seed, kProbeStream),
                             kInterpProbeRequests),
              T);
}

//===----------------------------------------------------------------------===//
// Per-layer metrics from the spans.
//===----------------------------------------------------------------------===//

struct LayerMetricDef {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order.  Every workload's
/// traced run reports all of them; a layer the workload does not reach
/// reads 0.
const std::vector<LayerMetricDef> &layerMetricDefs() {
  static const std::vector<LayerMetricDef> Defs = {
      {"fleet.generate_s", "s"},
      {"frontend.compile_s", "s"},
      {"frontend.kb_per_s", "KiB/s"},
      {"vm.execute_us", "us"},
      {"vm.execute_tail_us", "us"},
      {"vm.execute_tail_pct", "%"},
      {"vm.execute_n", "count"},
      {"jit.grant_s", "s"},
      {"jit.grant_retranslate_s", "s"},
      {"jit.code_bytes_us", "us"},
      {"jit.translations", "count"},
      {"jit.code_kb", "KiB"},
      {"interp.instrumented_us", "us"},
      {"interp.plain_us", "us"},
      {"jit.hooks_us", "us"},
      {"interp.steps_per_req", "count"},
      {"interp.ic_hit_ratio", "fraction"},
      {"runtime.allocs_per_req", "count"},
      {"fleet.run_seeder_s", "s"},
      {"jit.build_package_s", "s"},
      {"profile.encode_s", "s"},
      {"profile.decode_s", "s"},
      {"profile.merge_s", "s"},
      {"profile.delta_encode_s", "s"},
      {"profile.delta_apply_s", "s"},
      {"profile.delta_ratio", "fraction"},
      {"analysis.lint_s", "s"},
      {"vm.install_s", "s"},
      {"vm.startup_s", "s"},
      {"jit.lower_s", "s"},
      {"layout.unit_s", "s"},
      {"layout.blocks", "count"},
      {"layout.max_blocks", "count"},
      {"layout.c3_s", "s"},
      {"core.attempts", "count"},
      {"core.rejections", "count"},
      {"vm.begin_serving_s", "s"},
      {"vm.serve_us", "us"},
      {"vm.serve_p99_us", "us"},
      {"vm.serve_n", "count"},
      {"vm.queue_us", "us"},
      {"vm.queue_p99_us", "us"},
      {"vm.shed", "count"},
      {"vm.faults", "count"},
      {"vm.snapshots_published", "count"},
      {"bench.generator_lag_us", "us"},
      {"sim.measure_s", "s"},
      {"sim.minstr_per_s", "Minstr/s"},
      {"sim.js.l1i_miss_rate", "fraction"},
      {"sim.js.itlb_miss_rate", "fraction"},
      {"sim.js.branch_miss_rate", "fraction"},
      {"sim.nojs.l1i_miss_rate", "fraction"},
      {"sim.nojs.itlb_miss_rate", "fraction"},
      {"sim.nojs.branch_miss_rate", "fraction"},
      {"bench.trace_overhead_pct", "%"},
      {"self.frontend_s", "s"},
      {"self.fleet_s", "s"},
      {"self.vm_s", "s"},
      {"self.jit_s", "s"},
      {"self.interp_s", "s"},
      {"self.runtime_s", "s"},
      {"self.profile_s", "s"},
      {"self.analysis_s", "s"},
      {"self.core_s", "s"},
      {"self.layout_s", "s"},
      {"self.sim_s", "s"},
      {"self.bench_s", "s"},
  };
  return Defs;
}

void addLayerMetrics(const SpanRecorder &T,
                     const std::map<std::string, double> &Extra,
                     std::vector<Metric> &Out) {
  std::map<std::string, SpanRecorder::Aggregate> Agg = T.aggregate();
  std::map<std::string, double> V = Extra;
  auto Total = [&](const char *Name) {
    auto It = Agg.find(Name);
    return It == Agg.end() ? 0.0 : It->second.TotalSec;
  };
  auto Durations = [&](const char *Name) {
    auto It = Agg.find(Name);
    return It == Agg.end() ? std::vector<double>() : It->second.DurationsSec;
  };
  auto MedianUs = [&](const char *Name) {
    std::vector<double> D = Durations(Name);
    return D.empty() ? 0.0 : 1e6 * medianOf(D);
  };
  auto Per = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };

  V["fleet.generate_s"] = Total("fleet.generate");
  V["frontend.compile_s"] = Total("frontend.compile");
  V["frontend.kb_per_s"] =
      Per(T.total("frontend.bytes") / 1024.0, Total("frontend.compile"));
  TailSummary Exec = summarize(Durations("vm.execute"));
  V["vm.execute_us"] = 1e6 * Exec.Median;
  V["vm.execute_tail_us"] = 1e6 * Exec.Tail;
  V["vm.execute_tail_pct"] = Exec.TailPct;
  V["vm.execute_n"] = static_cast<double>(Exec.Count);
  V["jit.grant_s"] = Total("jit.grant") + Total("jit.grant_retranslate");
  V["jit.grant_retranslate_s"] = Total("jit.grant_retranslate");
  V["jit.code_bytes_us"] = MedianUs("jit.code_bytes");
  V["interp.instrumented_us"] = MedianUs("interp.instrumented");
  V["interp.plain_us"] = MedianUs("interp.plain");
  V["jit.hooks_us"] = V["interp.instrumented_us"] - V["interp.plain_us"];
  double Requests = T.total("interp.requests");
  V["interp.steps_per_req"] = Per(T.total("interp.steps"), Requests);
  V["interp.ic_hit_ratio"] =
      Per(T.total("interp.ic_hits"),
          T.total("interp.ic_hits") + T.total("interp.ic_misses"));
  V["runtime.allocs_per_req"] = Per(T.total("runtime.allocs"), Requests);
  V["fleet.run_seeder_s"] = Total("fleet.run_seeder");
  V["jit.build_package_s"] = Total("jit.build_package");
  V["profile.encode_s"] = Total("profile.encode");
  V["profile.decode_s"] = Total("profile.decode");
  V["profile.merge_s"] = Total("profile.merge");
  V["profile.delta_encode_s"] = Total("profile.delta_encode");
  V["profile.delta_apply_s"] = Total("profile.delta_apply");
  V["profile.delta_ratio"] = Per(T.total("profile.delta_wire_bytes"),
                                 T.total("profile.delta_full_bytes"));
  V["analysis.lint_s"] = Total("analysis.lint");
  V["vm.install_s"] = Total("vm.install");
  V["vm.startup_s"] = Total("vm.startup");
  V["jit.lower_s"] = Total("jit.lower");
  V["layout.unit_s"] = Total("layout.unit");
  V["layout.c3_s"] = Total("layout.c3");
  double Blocks = 0, MaxBlocks = 0;
  for (const SpanRecorder::Count &C : T.counts())
    if (std::string(C.Name) == "layout.blocks") {
      Blocks += C.Value;
      MaxBlocks = std::max(MaxBlocks, C.Value);
    }
  V["layout.blocks"] = Blocks;
  V["layout.max_blocks"] = MaxBlocks;
  double Boots = T.total("core.boots");
  V["core.attempts"] = Per(T.total("core.attempts"), Boots);
  V["core.rejections"] = T.total("core.rejections");
  V["vm.begin_serving_s"] = Total("vm.begin_serving");
  std::vector<double> Serve = Durations("vm.serve");
  V["vm.serve_us"] = Serve.empty() ? 0.0 : 1e6 * medianOf(Serve);
  V["vm.serve_p99_us"] = Serve.empty() ? 0.0 : 1e6 * percentileOf(Serve, 99);
  V["vm.serve_n"] = static_cast<double>(Serve.size());
  V["sim.measure_s"] = Total("sim.measure");
  V["sim.minstr_per_s"] =
      Per(T.total("sim.instructions") / 1e6, Total("sim.measure"));
  for (const auto &[Layer, Sec] : T.selfByLayer())
    V["self." + Layer + "_s"] = Sec;

  for (const LayerMetricDef &D : layerMetricDefs()) {
    auto It = V.find(D.Name);
    Out.push_back({D.Name, It == V.end() ? 0.0 : It->second, D.Unit});
  }
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"warmup", "boot", "serve",
                                                 "steady"};
  return Names;
}

ThreadCounts threadsFor(const std::string &Workload, unsigned Nproc) {
  ThreadCounts T;
  if (Workload == "boot") {
    T.CompilePool = std::max(1u, Nproc);
  } else if (Workload == "serve") {
    // The generator plus at least one serve worker.
    T.Generator = 1;
    T.ServeWorkers = Nproc > 1 ? Nproc - 1 : 1;
  }
  return T;
}

RunResult runWorkload(const RunOptions &Opts) {
  RunResult Result;
  Result.Threads = threadsFor(Opts.Workload, Opts.Nproc);
  Samples Out;
  Checker C;
  std::unique_ptr<SpanRecorder> Recorder;
  if (Opts.Trace)
    Recorder = std::make_unique<SpanRecorder>();
  std::map<std::string, double> Extra;

  if (Opts.Workload == "warmup")
    runWarmupWorkload(Opts, Out, C, Recorder.get(), Extra);
  else if (Opts.Workload == "boot")
    runBootWorkload(Opts, Out, C, Recorder.get(), Extra);
  else if (Opts.Workload == "serve")
    runServeWorkload(Opts, Out, C, Recorder.get(), Extra);
  else if (Opts.Workload == "steady")
    runSteadyWorkload(Opts, Out, C, Recorder.get(), Extra);
  else
    throw std::invalid_argument("unknown workload " + Opts.Workload);

  Result.EndToEnd = {
      {"setup_s", medianOf(Out.SetupSec), "s"},
      {"wall_s", medianOf(Out.BodySec), "s"},
      {"peak_rss_mb", peakRssMiB(), "MiB"},
      {"seeder_publish_s", medianOf(Out.SeederSec), "s"},
      {"package_kb", Out.PackageKiB, "KiB"},
      {"consumer_boot_s", medianOf(Out.BootSec), "s"},
  };
  Result.Reported = std::move(Out.Reported);
  Result.Reported.push_back(
      {"bodies", static_cast<double>(Out.BodySec.size()), "count"});
  if (Recorder) {
    addLayerMetrics(*Recorder, Extra, Result.Layers);
    if (!Opts.SpansPath.empty() && !Recorder->write(Opts.SpansPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   Opts.SpansPath.c_str());
  }
  Result.Attempted = C.Attempted;
  Result.Failed = C.Failed;
  return Result;
}

} // namespace perfbench
