//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark: workloads driven through the public entry
/// points of driver (AceCompiler), codegen (CkksExecutor) and service
/// (InferenceService), every decrypted output checked against the
/// cleartext interpreter nn::executeSingle.
///
///   mlp-latency       encrypted MLP in process, images back to back
///   mlp-serve         the same MLP behind the service, closed loop of
///                     8 clients with one request outstanding each
///   linear-serve      84->10 FC behind the service, open loop at a
///                     fixed arrival rate over 4 sessions; not in
///                     BENCHMARK.json (README.md)
///   resnet20-latency  nano-resnet-20 in process; not in BENCHMARK.json
///                     (README.md)
///
/// Usage (run.py builds this binary and calls it the same way):
///
///   acebench --workload NAME --seed N --seconds S --trace 0|1
///            [--smoke] [--spans PATH]
///
/// --trace 0 prints the end-to-end metrics measured with telemetry off.
/// --trace 1 runs the same timed phase untraced, then again with
/// telemetry on, and prints the per-layer metrics of the traced phase.
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}; README.md in this directory lists every metric and the
/// end-to-end metric each per-layer one should move.
///
/// Spans are recorded only here, around the calls into each layer;
/// --spans writes them as Chrome trace JSON at exit.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fhe/PolyBackend.h"
#include "service/InferenceService.h"
#include "support/LimbPool.h"
#include "support/MemTrack.h"
#include "support/PipelineConfig.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ace;

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Every workload runs on a 4-thread global pool, whatever the host.
constexpr size_t kPoolThreads = 4;
/// Sessions of linear-serve's open loop.
constexpr size_t kOpenLoopSessions = 4;
/// Clients of mlp-serve's closed loop, each on its own session: twice
/// the pool, so a full set of requests is queued whenever a dispatcher
/// wave ends and every wave is full (README.md: with one client per
/// worker, waves split 1+3 or 2+2 by arrival races and the run is
/// bimodal).
constexpr size_t kClosedLoopClients = 2 * kPoolThreads;
/// Open-loop arrival rate of linear-serve: about half the ~220/s at which
/// requests dispatched one at a time saturate a 4-core host. Nearer that
/// knee, or up in the batched regime, host noise swings the p90 or
/// collapses the queue (README.md).
constexpr double kLinearRatePerSecond = 100.0;
/// Admission queue of both serving workloads: deep enough that the open
/// loop's bursts queue rather than shed.
constexpr size_t kQueueCapacity = 64;
/// Ledger slack: child spans must cover their parent span to within
/// max(1% of the parent, 1 ms) (see checkPhase).
constexpr double kLedgerSlackShare = 0.01;
constexpr double kLedgerSlackSeconds = 1e-3;

double secondsBetween(TimePoint A, TimePoint B) {
  return std::chrono::duration<double>(B - A).count();
}

double cpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         1e-9 * static_cast<double>(Ts.tv_nsec);
}

/// Linear-interpolated quantile (Q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Seeds derived from the workload seed: one stream for the model
/// inputs, one per set-up trial for the key and encryption randomness.
uint64_t inputSeed(uint64_t Seed) { return splitmix64(Seed ^ 0x1A2B3C4Dull); }
uint64_t keySeed(uint64_t Seed, uint64_t Trial) {
  uint64_t S = splitmix64(splitmix64(Seed) + Trial);
  return S ? S : 1;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's own spans, kept in memory and written at exit as
/// Chrome trace events. Sample 0 marks set-up spans.
class SpanLog {
public:
  void record(const char *Name, const char *Parent, uint64_t Sample,
              TimePoint Start, TimePoint End) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back({Name, Parent, Sample, Start, End, threadIndex()});
  }

  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    std::lock_guard<std::mutex> Lock(Mutex);
    OS << "{\"traceEvents\": [";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Entry &S = Spans[I];
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n {\"name\": \"%s\", \"cat\": \"bench\", \"ph\": "
                    "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                    "\"tid\": %u, \"args\": {\"sample\": %llu, "
                    "\"parent\": \"%s\"}}",
                    I ? "," : "", S.Name, micros(S.Start),
                    1e6 * secondsBetween(S.Start, S.End), S.Tid,
                    static_cast<unsigned long long>(S.Sample), S.Parent);
      OS << Buf;
    }
    OS << "\n]}\n";
    return static_cast<bool>(OS);
  }

private:
  struct Entry {
    const char *Name;
    const char *Parent;
    uint64_t Sample;
    TimePoint Start, End;
    unsigned Tid;
  };

  static unsigned threadIndex() {
    static std::atomic<unsigned> Next{0};
    thread_local unsigned Index = Next++;
    return Index;
  }
  double micros(TimePoint T) const {
    return 1e6 * secondsBetween(Epoch, T);
  }

  mutable std::mutex Mutex;
  std::vector<Entry> Spans;
  TimePoint Epoch = Clock::now();
};

SpanLog &spans() {
  static SpanLog Log;
  return Log;
}

/// Times one call as a span; returns its seconds.
template <typename Fn>
double timed(const char *Name, const char *Parent, uint64_t Sample, Fn &&F) {
  TimePoint Start = Clock::now();
  F();
  TimePoint End = Clock::now();
  spans().record(Name, Parent, Sample, Start, End);
  return secondsBetween(Start, End);
}

//===----------------------------------------------------------------------===//
// Samples and correctness
//===----------------------------------------------------------------------===//

/// One image or request of a timed phase.
struct Sample {
  bool Ok = false;
  double ErrMax = 0.0;
  bool Top1 = false;
  /// Client-observed latency (the parent span) and the sum of its child
  /// spans, for the ledger check.
  double LatencyS = 0.0;
  double ChildSumS = 0.0;
  /// Child spans: encrypt, run (or submit->reply), decrypt.
  double EncryptS = 0.0, MiddleS = 0.0, DecryptS = 0.0;
  /// Service-reported stages (serving workloads; negative when absent).
  double QueueS = -1.0, ExecS = -1.0;
  /// Open loop: how late the generator sent it.
  double LateS = 0.0;
  /// Process CPU seconds across the run() call (in process).
  double RunCpuS = 0.0;
  TimePoint End;
};

/// Compares decrypted logits with the cleartext interpreter's output.
void checkLogits(Sample &S, const StatusOr<std::vector<double>> &Logits,
                 const nn::Tensor &Clear) {
  if (!Logits.ok() || Logits->size() != Clear.Values.size() ||
      Clear.Values.empty()) {
    S.Ok = false;
    return;
  }
  double Err = 0.0;
  size_t EncTop = 0;
  for (size_t I = 0; I < Logits->size(); ++I) {
    double V = (*Logits)[I];
    if (!std::isfinite(V)) {
      S.Ok = false;
      return;
    }
    Err = std::max(Err, std::fabs(V - static_cast<double>(Clear.Values[I])));
    if (V > (*Logits)[EncTop])
      EncTop = I;
  }
  S.Ok = true;
  S.ErrMax = Err;
  S.Top1 = EncTop == nn::argmax(Clear);
}

/// Model inputs with their cleartext logits.
struct InputSet {
  std::vector<nn::Tensor> Inputs;
  std::vector<nn::Tensor> Clear;
  /// Draws rejected as outside the compiled program's calibrated domain.
  size_t Rejected = 0;
};

/// Draws \p Count inputs from \p Seed: a prototype plus Gaussian noise,
/// clamped to [-1, 1] (the model zoo's synthetic distribution), or
/// uniform in [-1, 1] when there are no prototypes.
///
/// The compiler scales every ReLU input by its calibrated bound
/// (CompileState::Bounds) so the sign approximation sees [-1, 1]; a draw
/// whose cleartext ReLU input exceeds that bound is outside the compiled
/// program's domain and is redrawn (README.md: such inputs decrypt to
/// logits off by ~1e15 instead of failing).
InputSet drawInputs(const onnx::Model &Model,
                    const std::vector<nn::Tensor> &Prototypes,
                    const std::vector<int64_t> &Shape, size_t Count,
                    double Sigma, uint64_t Seed,
                    const std::map<std::string, double> &Bounds) {
  std::vector<std::string> ReluInputs;
  for (const onnx::Node &N : Model.MainGraph.Nodes)
    if (N.Kind == onnx::OpKind::OK_Relu)
      ReluInputs.push_back(N.Inputs[0]);
  Rng R(Seed);
  InputSet Out;
  while (Out.Inputs.size() < Count) {
    if (Out.Rejected > 100 * Count)
      reportFatalError("too few draws inside the calibrated domain");
    nn::Tensor X;
    if (Prototypes.empty()) {
      X.Shape = Shape;
      X.Values.resize(static_cast<size_t>(X.elementCount()));
      for (auto &V : X.Values)
        V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    } else {
      X = Prototypes[R.uniform(Prototypes.size())];
      for (auto &V : X.Values)
        V = std::fmax(-1.0f, std::fmin(1.0f, V + static_cast<float>(
                                                    R.gaussian() * Sigma)));
    }
    auto Acts = nn::activationBounds(Model.MainGraph, X);
    auto Clear = nn::executeSingle(Model.MainGraph, X);
    if (!Acts.ok() || !Clear.ok())
      reportFatalError("cleartext reference failed");
    bool InDomain = true;
    for (const std::string &Name : ReluInputs) {
      auto Bound = Bounds.find(Name);
      InDomain = InDomain && Bound != Bounds.end() &&
                 Acts->count(Name) && Acts->at(Name) <= Bound->second;
    }
    if (!InDomain) {
      ++Out.Rejected;
      continue;
    }
    Out.Inputs.push_back(std::move(X));
    Out.Clear.push_back(Clear.take());
  }
  return Out;
}

[[noreturn]] void die(const std::string &What, const Status &S) {
  std::fprintf(stderr, "acebench: %s: %s\n", What.c_str(),
               S.message().c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// A model under test: its calibration set, the distribution its inputs
/// are drawn from, and the largest acceptable logit error.
struct ModelCase {
  std::string Name;
  onnx::Model Model;
  /// bench::compileOrDie calibrates on the first four images.
  nn::Dataset Calib;
  /// Inputs are a prototype plus Gaussian noise of Sigma, or uniform in
  /// [-1, 1] when there are no prototypes.
  std::vector<int64_t> Shape;
  double Sigma = 0.0;
  /// Largest acceptable |encrypted - cleartext| logit difference.
  double Tolerance = 0.0;
};

/// nano-resnet-20, the paper's Fig. 6 model; a tiny CNN of the same
/// structure in smoke mode.
ModelCase resnet20Case(bool Smoke) {
  ModelCase C;
  C.Sigma = 0.12;
  C.Tolerance = 0.5;
  if (!Smoke) {
    bench::BenchModel M = std::move(bench::buildPaperModels(1).front());
    C.Name = M.Spec.Name;
    C.Model = std::move(M.Model);
    C.Calib = std::move(M.Data);
  } else {
    nn::NanoResNetSpec Spec;
    Spec.Name = "tiny-cnn";
    Spec.Channels = {2, 4};
    Spec.InputHW = 4;
    Spec.InputChannels = 2;
    Spec.Classes = 4;
    C.Name = Spec.Name;
    C.Calib = nn::makeSyntheticDataset({1, 2, 4, 4}, 4, 8, 0.1, 23);
    auto ModelOr = nn::buildNanoResNet(Spec, C.Calib, 29);
    if (!ModelOr.ok())
      die("tiny model build", ModelOr.status());
    C.Model = ModelOr.take();
  }
  C.Shape = C.Calib.Images.front().Shape;
  return C;
}

/// The encrypted_mlp example's model: two ReLU layers, two bootstraps.
ModelCase mlpCase() {
  ModelCase C;
  C.Name = "mlp-24-16-12-6";
  C.Model = nn::buildMlp({24, 16, 12, 6}, 31);
  C.Calib = nn::makeSyntheticDataset({1, 24}, 6, 12, 0.1, 77);
  C.Shape = {1, 24};
  C.Sigma = 0.1;
  C.Tolerance = 0.25;
  return C;
}

/// The paper's Fig. 4 linear_infer: one 84->10 gemv, no bootstrap.
ModelCase linearCase() {
  ModelCase C;
  C.Name = "linear-84-10";
  C.Model = nn::buildLinearInfer(3);
  C.Shape = {1, 84};
  C.Tolerance = 1e-3;
  Rng R(17);
  for (int I = 0; I < 4; ++I) {
    nn::Tensor T;
    T.Shape = C.Shape;
    T.Values.resize(84);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    C.Calib.Images.push_back(std::move(T));
  }
  return C;
}

/// What one set-up trial cost, by layer.
struct SetupTrial {
  double TotalS = 0.0;
  double CompileS = 0.0;
  /// CkksExecutor::setup (in process) or the median openSession.
  double ExecSetupS = 0.0;
};

struct Phase {
  std::vector<Sample> Samples;
  double WallS = 0.0;
  double CpuS = 0.0;

  /// Stamps the wall time from \p Start to the last completion.
  void close(TimePoint Start, double Cpu0) {
    CpuS = cpuSeconds() - Cpu0;
    TimePoint Last = Start;
    for (const Sample &S : Samples)
      Last = std::max(Last, S.End);
    WallS = secondsBetween(Start, Last);
  }
};

air::CompileOptions workloadOptions(uint64_t Seed, uint64_t Trial) {
  return bench::benchOptions(keySeed(Seed, Trial));
}

class Workload {
public:
  Workload(uint64_t Seed, ModelCase Case)
      : Seed(Seed), Case(std::move(Case)) {}
  virtual ~Workload() = default;

  /// Compiles, sets up and warms up from scratch, replacing any earlier
  /// set-up. Warm-up (first image, or first request per session) fills
  /// lazy keys, the limb pool and the plaintext cache, so it belongs to
  /// set-up time, not latency.
  SetupTrial setup(uint64_t Trial) {
    release();
    Compiled.reset();
    SetupTrial T;
    TimePoint Start = Clock::now();
    T.CompileS = timed("compile", "setup", 0, [&] {
      Compiled = bench::compileOrDie(Case.Model, Case.Calib,
                                     workloadOptions(Seed, Trial));
    });
    // Every trial calibrates on the same images, so the bounds and with
    // them the inputs are the same for all trials.
    if (Data.Inputs.empty())
      Data = drawInputs(Case.Model, Case.Calib.Prototypes, Case.Shape, 64,
                        Case.Sigma, inputSeed(Seed), Compiled->State.Bounds);
    T.ExecSetupS = prepare();
    timed("warmup", "setup", 0, [&] { warmUp(); });
    TimePoint End = Clock::now();
    spans().record("setup", "", 0, Start, End);
    T.TotalS = secondsBetween(Start, End);
    return T;
  }

  /// Runs images or requests for \p Seconds; sample ids start at
  /// \p FirstId.
  virtual Phase run(double Seconds, uint64_t FirstId) = 0;
  virtual service::InferenceService *service() { return nullptr; }
  double tolerance() const { return Case.Tolerance; }
  size_t rejectedDraws() const { return Data.Rejected; }
  const driver::CompileResult &compiled() const { return *Compiled; }

  /// The effective configuration, as JSON members.
  virtual std::string config() const {
    std::string Packing;
    for (const auto &D : Compiled->State.PackingDecisions)
      Packing += (Packing.empty() ? "" : ",") + D.Layer + "=" +
                 packingStrategyName(D.Strategy);
    return "\"model\": \"" + Case.Name + "\", \"rescale\": \"" +
           rescaleModeName(Compiled->State.ResolvedRescale) +
           "\", \"packing\": \"" + Packing + "\"";
  }

protected:
  /// Drops the executor or service of the previous set-up.
  virtual void release() = 0;
  /// Builds the executor or service over Compiled; returns the seconds
  /// of its key set-up.
  virtual double prepare() = 0;
  virtual void warmUp() = 0;

  const nn::Tensor &input(uint64_t Draw) const {
    return Data.Inputs[Draw % Data.Inputs.size()];
  }
  const nn::Tensor &clear(uint64_t Draw) const {
    return Data.Clear[Draw % Data.Clear.size()];
  }

  uint64_t Seed;
  ModelCase Case;
  InputSet Data;
  std::unique_ptr<driver::CompileResult> Compiled;
};

/// In process through CkksExecutor: compile and set up once, then
/// encryptInput -> run -> decryptLogits back to back.
class InProcess : public Workload {
public:
  using Workload::Workload;

  Phase run(double Seconds, uint64_t FirstId) override {
    Phase P;
    TimePoint Start = Clock::now();
    double Cpu0 = cpuSeconds();
    for (uint64_t I = 0;
         I == 0 || secondsBetween(Start, Clock::now()) < Seconds; ++I)
      P.Samples.push_back(image(FirstId + I));
    P.close(Start, Cpu0);
    return P;
  }

private:
  void release() override { Exec.reset(); }

  double prepare() override {
    Exec = std::make_unique<codegen::CkksExecutor>(Compiled->Program,
                                                  Compiled->State);
    return timed("codegen_setup", "setup", 0, [&] {
      if (Status S = Exec->setup())
        die("executor setup", S);
    });
  }

  void warmUp() override {
    if (!image(0).Ok)
      die("warm-up image", Status::internal("warm-up image failed"));
  }

  Sample image(uint64_t Id) {
    Sample S;
    StatusOr<fhe::Ciphertext> Ct = Status::internal("not run");
    StatusOr<fhe::Ciphertext> Out = Status::internal("not run");
    StatusOr<std::vector<double>> Logits = Status::internal("not run");
    TimePoint Start = Clock::now();
    S.EncryptS = timed("encrypt", "image", Id,
                       [&] { Ct = Exec->encryptInput(input(Id)); });
    if (Ct.ok()) {
      double Cpu0 = cpuSeconds();
      S.MiddleS = timed("run", "image", Id, [&] { Out = Exec->run(*Ct); });
      S.RunCpuS = cpuSeconds() - Cpu0;
    }
    if (Out.ok())
      S.DecryptS = timed("decrypt", "image", Id,
                         [&] { Logits = Exec->decryptLogits(*Out); });
    S.End = Clock::now();
    spans().record("image", "", Id, Start, S.End);
    S.LatencyS = secondsBetween(Start, S.End);
    S.ChildSumS = S.EncryptS + S.MiddleS + S.DecryptS;
    checkLogits(S, Logits, clear(Id));
    return S;
  }

  std::unique_ptr<codegen::CkksExecutor> Exec;
};

/// Behind InferenceService: compile once, open one session with its
/// own keys per client, warm each with one request. A closed loop runs
/// kClosedLoopClients clients with one request outstanding each; an open
/// loop sends at kLinearRatePerSecond from one generator thread,
/// round-robin over kOpenLoopSessions sessions, with one collector
/// thread per session decrypting its replies.
class Serve : public Workload {
public:
  Serve(uint64_t Seed, ModelCase Case, bool OpenLoop)
      : Workload(Seed, std::move(Case)), OpenLoop(OpenLoop),
        NumSessions(OpenLoop ? kOpenLoopSessions : kClosedLoopClients) {}

  Phase run(double Seconds, uint64_t FirstId) override {
    return OpenLoop ? openLoop(Seconds, FirstId)
                    : closedLoop(Seconds, FirstId);
  }

  service::InferenceService *service() override { return Svc.get(); }

  std::string config() const override {
    char Buf[224];
    std::snprintf(Buf, sizeof(Buf),
                  "\"loop\": \"%s\", \"rate_per_s\": %.1f, \"sessions\": "
                  "%zu, \"queue_capacity\": %zu, \"max_batch\": %zu, "
                  "\"lazy_session_keys\": true, ",
                  OpenLoop ? "open" : "closed",
                  OpenLoop ? kLinearRatePerSecond : 0.0, NumSessions,
                  kQueueCapacity, kPoolThreads);
    return Buf + Workload::config();
  }

private:
  void release() override {
    Svc.reset();
    Sessions.clear();
  }

  double prepare() override {
    service::ServiceConfig Config;
    Config.QueueCapacity = kQueueCapacity;
    Svc = std::make_unique<service::InferenceService>(
        Compiled->Program, Compiled->State, Config);
    std::vector<double> Opens;
    for (size_t C = 0; C < NumSessions; ++C) {
      StatusOr<uint64_t> Id = Status::internal("not run");
      Opens.push_back(timed("open_session", "setup", 0,
                            [&] { Id = Svc->openSession(); }));
      if (!Id.ok())
        die("openSession", Id.status());
      Sessions.push_back(*Id);
    }
    return quantile(Opens, 0.5);
  }

  /// The first request per session materializes its lazy rotation keys;
  /// all sessions warm concurrently, as they will run.
  void warmUp() override {
    std::vector<std::thread> Clients;
    std::atomic<bool> AllOk{true};
    for (size_t C = 0; C < NumSessions; ++C)
      Clients.emplace_back([&, C] {
        if (!closedRequest(C, 0).Ok)
          AllOk = false;
      });
    for (auto &Th : Clients)
      Th.join();
    if (!AllOk)
      die("warm-up request", Status::internal("a warm-up request failed"));
  }

  Phase closedLoop(double Seconds, uint64_t FirstId) {
    Phase P;
    std::mutex Mutex;
    std::atomic<uint64_t> Next{FirstId};
    TimePoint Start = Clock::now();
    double Cpu0 = cpuSeconds();
    std::vector<std::thread> Clients;
    for (size_t C = 0; C < NumSessions; ++C)
      Clients.emplace_back([&, C] {
        while (secondsBetween(Start, Clock::now()) < Seconds) {
          Sample S = closedRequest(C, Next++);
          std::lock_guard<std::mutex> Lock(Mutex);
          P.Samples.push_back(S);
        }
      });
    for (auto &Th : Clients)
      Th.join();
    P.close(Start, Cpu0);
    return P;
  }

  /// Encrypt, submit, wait for the reply, decrypt.
  Sample closedRequest(size_t C, uint64_t Id) {
    Sample S;
    TimePoint Start = Clock::now();
    StatusOr<std::vector<uint8_t>> Frame = encrypt(C, Id, S);
    StatusOr<std::vector<double>> Logits = Frame.status();
    if (Frame.ok()) {
      TimePoint Sub = Clock::now();
      StatusOr<service::InferenceService::Ticket> Ticket =
          Svc->submit(Frame.take());
      Logits = reply(C, Id, Sub, Ticket, S);
    }
    finish(S, Id, Start, Logits);
    return S;
  }

  Phase openLoop(double Seconds, uint64_t FirstId) {
    struct Pending {
      uint64_t Id;
      TimePoint Due, Sub;
      Sample S;
      StatusOr<service::InferenceService::Ticket> Ticket;
    };
    struct Lane {
      std::mutex Mutex;
      std::condition_variable Cv;
      std::deque<std::unique_ptr<Pending>> Queue;
      bool Done = false;
    };
    std::vector<Lane> Lanes(NumSessions);
    Phase P;
    std::mutex ResultMutex;

    std::vector<std::thread> Collectors;
    for (size_t C = 0; C < NumSessions; ++C)
      Collectors.emplace_back([&, C] {
        Lane &L = Lanes[C];
        for (;;) {
          std::unique_ptr<Pending> Item;
          {
            std::unique_lock<std::mutex> Lock(L.Mutex);
            L.Cv.wait(Lock, [&] { return L.Done || !L.Queue.empty(); });
            if (L.Queue.empty())
              return;
            Item = std::move(L.Queue.front());
            L.Queue.pop_front();
          }
          StatusOr<std::vector<double>> Logits =
              reply(C, Item->Id, Item->Sub, Item->Ticket, Item->S);
          finish(Item->S, Item->Id, Item->Due, Logits);
          std::lock_guard<std::mutex> Lock(ResultMutex);
          P.Samples.push_back(Item->S);
        }
      });

    TimePoint Start = Clock::now();
    double Cpu0 = cpuSeconds();
    auto Interval = std::chrono::duration<double>(1.0 / kLinearRatePerSecond);
    for (uint64_t I = 0;; ++I) {
      TimePoint Due =
          Start + std::chrono::duration_cast<Clock::duration>(Interval * I);
      if (I > 0 && secondsBetween(Start, Due) >= Seconds)
        break;
      std::this_thread::sleep_until(Due);
      auto Item = std::make_unique<Pending>(Pending{
          FirstId + I, Due, Due, Sample(), Status::internal("not run")});
      size_t C = I % NumSessions;
      TimePoint Send = Clock::now();
      Item->S.LateS = secondsBetween(Due, Send);
      spans().record("gen_late", "request", Item->Id, Due, Send);
      StatusOr<std::vector<uint8_t>> Frame = encrypt(C, Item->Id, Item->S);
      if (Frame.ok()) {
        Item->Sub = Clock::now();
        Item->Ticket = Svc->submit(Frame.take());
      } else {
        Item->Ticket = Frame.status();
      }
      std::lock_guard<std::mutex> Lock(Lanes[C].Mutex);
      Lanes[C].Queue.push_back(std::move(Item));
      Lanes[C].Cv.notify_one();
    }
    for (Lane &L : Lanes) {
      std::lock_guard<std::mutex> Lock(L.Mutex);
      L.Done = true;
      L.Cv.notify_one();
    }
    for (auto &Th : Collectors)
      Th.join();
    P.close(Start, Cpu0);
    return P;
  }

  StatusOr<std::vector<uint8_t>> encrypt(size_t C, uint64_t Id, Sample &S) {
    StatusOr<std::vector<uint8_t>> Frame = Status::internal("not run");
    S.EncryptS = timed("encrypt_request", "request", Id, [&] {
      Frame = Svc->encryptRequest(Sessions[C], input(Id), Id,
                                  /*DeadlineSeconds=*/0.0);
    });
    return Frame;
  }

  /// Waits for the reply of a submitted request (the submit->reply span
  /// starts at \p Sub, before submit()) and decrypts it.
  StatusOr<std::vector<double>>
  reply(size_t C, uint64_t Id, TimePoint Sub,
        StatusOr<service::InferenceService::Ticket> &Ticket, Sample &S) {
    if (!Ticket.ok())
      return Ticket.status();
    service::InferenceResponse R = Ticket->Result.get();
    TimePoint Got = Clock::now();
    spans().record("submit_reply", "request", Id, Sub, Got);
    S.MiddleS = secondsBetween(Sub, Got);
    if (!R.Outcome.ok())
      return R.Outcome;
    S.QueueS = R.QueueSeconds;
    S.ExecS = R.ExecSeconds;
    // The service's own stage times, placed at the end of the wait.
    auto Dur = [](double Seconds) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(std::max(0.0, Seconds)));
    };
    TimePoint ExecStart = Got - Dur(R.ExecSeconds);
    spans().record("service_exec", "submit_reply", Id, ExecStart, Got);
    spans().record("service_queue", "submit_reply", Id,
                   ExecStart - Dur(R.QueueSeconds), ExecStart);
    StatusOr<std::vector<double>> Logits = Status::internal("not run");
    S.DecryptS = timed("decrypt_response", "request", Id, [&] {
      Logits = Svc->decryptResponse(Sessions[C], R.Bytes);
    });
    return Logits;
  }

  void finish(Sample &S, uint64_t Id, TimePoint Start,
              const StatusOr<std::vector<double>> &Logits) {
    S.End = Clock::now();
    spans().record("request", "", Id, Start, S.End);
    S.LatencyS = secondsBetween(Start, S.End);
    S.ChildSumS = S.LateS + S.EncryptS + S.MiddleS + S.DecryptS;
    checkLogits(S, Logits, clear(Id));
  }

  bool OpenLoop;
  size_t NumSessions;
  std::unique_ptr<service::InferenceService> Svc;
  std::vector<uint64_t> Sessions;
};

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

constexpr double kMiB = 1024.0 * 1024.0;

std::vector<double> field(const Phase &P, double Sample::*F) {
  std::vector<double> V;
  for (const Sample &S : P.Samples)
    if (S.Ok)
      V.push_back(S.*F);
  return V;
}

size_t completed(const Phase &P) {
  size_t N = 0;
  for (const Sample &S : P.Samples)
    N += S.Ok;
  return N;
}

std::vector<Metric> endToEnd(const Phase &P, double SetupS) {
  std::vector<double> Lat = field(P, &Sample::LatencyS);
  size_t Done = completed(P);
  return {
      {"setup_s", SetupS, "s"},
      {"latency_p50_s", quantile(Lat, 0.5), "s"},
      {"latency_p90_s", quantile(Lat, 0.9), "s"},
      {"throughput_rps", P.WallS > 0 ? static_cast<double>(Done) / P.WallS
                                     : 0.0,
       "1/s"},
      {"peak_rss_mb", static_cast<double>(peakRssBytes()) / kMiB, "MiB"},
  };
}

/// Printed with the end-to-end metrics but not gated by BENCHMARK.json
/// (README.md): failed_ratio is 0 and top1_agree 1 on a correct run, and
/// logit_err_max, a maximum over a heavy-tailed error, moves with the
/// seed's keys by more than any usable bound. The tolerance check gates
/// every output instead.
std::vector<Metric> reportOnly(const std::vector<const Phase *> &Phases) {
  double Attempted = 0.0, Failed = 0.0, Agree = 0.0, Err = 0.0;
  for (const Phase *P : Phases)
    for (const Sample &S : P->Samples) {
      Attempted += 1.0;
      Failed += !S.Ok;
      Agree += S.Ok && S.Top1;
      if (S.Ok)
        Err = std::max(Err, S.ErrMax);
    }
  double Done = Attempted - Failed;
  return {{"failed_ratio", Attempted > 0 ? Failed / Attempted : 0.0, "ratio"},
          {"top1_agree", Done > 0 ? Agree / Done : 0.0, "ratio"},
          {"logit_err_max", Err, "abs"}};
}

/// Process-wide layer state read before and after the traced phase.
struct LayerState {
  LimbPoolStats Pool;
  GovernorStats Gov;
  service::ServiceStats Svc;
  Histogram::Snapshot Queue, Exec;
};

LayerState readLayers(service::InferenceService *Svc) {
  LayerState L;
  L.Pool = LimbPool::instance().stats();
  L.Gov = ResourceGovernor::instance().stats();
  if (Svc) {
    L.Svc = Svc->stats();
    L.Queue = Svc->latencySnapshot(service::InferenceService::Stage::Queue);
    L.Exec = Svc->latencySnapshot(service::InferenceService::Stage::Exec);
  }
  return L;
}

/// p50 of the values a histogram gained between two snapshots.
double deltaP50(Histogram::Snapshot After, const Histogram::Snapshot &Before) {
  for (size_t I = 0; I < After.Buckets.size(); ++I)
    After.Buckets[I] -= Before.Buckets[I];
  After.Count -= Before.Count;
  After.SumNanos -= Before.SumNanos;
  return After.Count ? After.quantileSeconds(0.5) : 0.0;
}

std::vector<Metric> perLayer(Workload &W, const std::vector<SetupTrial> &Setup,
                             const Phase &Untraced, const Phase &Traced,
                             const LayerState &Before,
                             const LayerState &After) {
  using telemetry::Counter;
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  telemetry::CounterSnapshot Ops = Tel.counters();
  const driver::CompileResult &R = W.compiled();
  double N = std::max<double>(1.0, static_cast<double>(completed(Traced)));
  auto PerSample = [&](Counter C) {
    return static_cast<double>(Ops.get(C)) / N;
  };
  auto OpP50 = [&](Counter C) {
    return Tel.opLatency(C).snapshot().quantileSeconds(0.5);
  };
  auto Median = [](const std::vector<double> &V) { return quantile(V, 0.5); };
  std::vector<double> Compile, ExecSetup;
  for (const SetupTrial &T : Setup) {
    Compile.push_back(T.CompileS);
    ExecSetup.push_back(T.ExecSetupS);
  }
  bool Serving = W.service() != nullptr;
  std::vector<double> TracedLat = field(Traced, &Sample::LatencyS);
  std::vector<double> UntracedLat = field(Untraced, &Sample::LatencyS);

  // codegen: direct calls in process; behind the service the executor
  // runs inside sessions, so read its existing phase times.
  double Enc, Run, Dec;
  double CpuUtil;
  if (Serving) {
    Enc = Tel.phaseSeconds("encrypt") / N;
    Run = Tel.phaseSeconds("run") / N;
    Dec = Tel.phaseSeconds("decrypt") / N;
    CpuUtil = Traced.CpuS / (Traced.WallS * kPoolThreads);
  } else {
    Enc = Median(field(Traced, &Sample::EncryptS));
    Run = Median(field(Traced, &Sample::MiddleS));
    Dec = Median(field(Traced, &Sample::DecryptS));
    double Cpu = 0.0, Wall = 0.0;
    for (const Sample &S : Traced.Samples)
      if (S.Ok) {
        Cpu += S.RunCpuS;
        Wall += S.MiddleS;
      }
    CpuUtil = Wall > 0 ? Cpu / (Wall * kPoolThreads) : 0.0;
  }

  auto Count = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"driver.compile_s", Median(Compile), "s"},
      {"passes.ckks_nodes", Count(R.PhaseNodeCounts.count("CKKS")
                                      ? R.PhaseNodeCounts.at("CKKS")
                                      : 0),
       "count"},
      {"passes.bootstraps", Count(R.State.BootstrapCount), "count"},
      {"passes.rescale_ops", Count(R.State.Budget.Rescale), "count"},
      {"passes.relin_ops", Count(R.State.Budget.Relinearize), "count"},
      {"passes.rotate_ops", Count(R.State.Budget.Rotate), "count"},
      {"passes.rotation_keys", Count(R.State.RotationSteps.size()), "count"},
      {"codegen.setup_s", Serving ? 0.0 : Median(ExecSetup), "s"},
      {"codegen.encrypt_s", Enc, "s"},
      {"codegen.run_s", Run, "s"},
      {"codegen.decrypt_s", Dec, "s"},
      {"codegen.cpu_util", CpuUtil, "ratio"},
      {"codegen.region_bootstrap_s", Tel.phaseSeconds("bootstrap") / N, "s"},
      {"codegen.region_conv_s", Tel.phaseSeconds("conv") / N, "s"},
      {"codegen.region_relu_s", Tel.phaseSeconds("relu") / N, "s"},
      {"codegen.region_gemm_s", Tel.phaseSeconds("gemm") / N, "s"},
      {"fhe.bootstraps", PerSample(Counter::Bootstrap), "count"},
      {"fhe.keyswitches", PerSample(Counter::KeySwitch), "count"},
      {"fhe.keyswitch_digits", PerSample(Counter::KeySwitchDigit), "count"},
      {"fhe.modups", PerSample(Counter::ModUp), "count"},
      {"fhe.hoisted_keyswitches", PerSample(Counter::HoistedKeySwitch),
       "count"},
      {"fhe.rotations", PerSample(Counter::Rotate), "count"},
      {"fhe.ctct_muls", PerSample(Counter::CtCtMul), "count"},
      {"fhe.relins", PerSample(Counter::Relinearize), "count"},
      {"fhe.rescales", PerSample(Counter::Rescale), "count"},
      {"fhe.ntt_forward", PerSample(Counter::NttForward), "count"},
      {"fhe.ntt_inverse", PerSample(Counter::NttInverse), "count"},
      {"fhe.bootstrap_p50_s", OpP50(Counter::Bootstrap), "s"},
      {"fhe.rotate_p50_s", OpP50(Counter::Rotate), "s"},
      {"fhe.mul_p50_s", OpP50(Counter::CtCtMul), "s"},
      {"service.open_session_s", Serving ? Median(ExecSetup) : 0.0, "s"},
      {"service.encrypt_request_s",
       Serving ? Median(field(Traced, &Sample::EncryptS)) : 0.0, "s"},
      {"service.decrypt_response_s",
       Serving ? Median(field(Traced, &Sample::DecryptS)) : 0.0, "s"},
      {"service.queue_p50_s", deltaP50(After.Queue, Before.Queue), "s"},
      {"service.exec_p50_s", deltaP50(After.Exec, Before.Exec), "s"},
      {"service.wire_bytes",
       PerSample(Counter::BytesSerialized) +
           PerSample(Counter::BytesDeserialized),
       "B"},
      {"service.rejected", Count(After.Svc.Rejected - Before.Svc.Rejected),
       "count"},
      {"service.key_cache_mb",
       static_cast<double>(After.Svc.KeyCacheBytes) / kMiB, "MiB"},
      {"support.parallel_for", PerSample(Counter::ParallelFor), "count"},
      {"support.limb_pool_misses",
       Count(After.Pool.Misses - Before.Pool.Misses) / N, "count"},
      {"support.limb_pool_resident_mb",
       static_cast<double>(After.Pool.residentBytes()) / kMiB, "MiB"},
      {"support.governor_charged_mb",
       static_cast<double>(After.Gov.totalChargedBytes()) / kMiB, "MiB"},
      {"support.key_cache_misses",
       Count(After.Gov.KeyCacheMisses - Before.Gov.KeyCacheMisses) / N,
       "count"},
      {"bench.gen_late_p90_s", quantile(field(Traced, &Sample::LateS), 0.9),
       "s"},
      {"bench.trace_overhead",
       quantile(TracedLat, 0.5) / quantile(UntracedLat, 0.5) - 1.0, "ratio"},
  };
}

//===----------------------------------------------------------------------===//
// Checks and output
//===----------------------------------------------------------------------===//

/// Correctness and the span ledger over one phase. Prints what fails.
///
/// Ledger: the child spans of the median-latency sample must cover it to
/// within the slack, and across all samples at most kLedgerSlackShare of
/// the latency may go unattributed (a single sample may show a
/// scheduler preemption between two spans; the median and the total may
/// not). Children may never exceed their parent, and the service's own
/// queue + exec stages must nest inside submit->reply.
bool checkPhase(const Phase &P, double Tolerance, const char *Label) {
  bool Ok = true;
  double GapSum = 0.0, LatencySum = 0.0, WorstNest = 0.0;
  std::vector<const Sample *> Done;
  for (size_t I = 0; I < P.Samples.size(); ++I) {
    const Sample &S = P.Samples[I];
    if (!S.Ok)
      continue;
    Done.push_back(&S);
    if (S.ErrMax > Tolerance) {
      std::printf("check: %s sample %zu logit error %.6g > tolerance %.6g\n",
                  Label, I, S.ErrMax, Tolerance);
      Ok = false;
    }
    double Gap = S.LatencyS - S.ChildSumS;
    GapSum += Gap;
    LatencySum += S.LatencyS;
    if (Gap < -1e-6) {
      std::printf("check: %s sample %zu child spans %.6fs exceed %.6fs\n",
                  Label, I, S.ChildSumS, S.LatencyS);
      Ok = false;
    }
    if (S.ExecS >= 0.0) {
      double Nested = std::max(0.0, S.QueueS) + S.ExecS;
      WorstNest = std::max(WorstNest, Nested / S.MiddleS);
      if (Nested > S.MiddleS + kLedgerSlackSeconds) {
        std::printf("check: %s sample %zu service stages %.6fs exceed "
                    "submit->reply %.6fs\n",
                    Label, I, Nested, S.MiddleS);
        Ok = false;
      }
    }
  }
  if (Done.empty())
    return false;
  std::nth_element(Done.begin(), Done.begin() + Done.size() / 2, Done.end(),
                   [](const Sample *A, const Sample *B) {
                     return A->LatencyS < B->LatencyS;
                   });
  const Sample &Median = *Done[Done.size() / 2];
  double MedianGap = Median.LatencyS - Median.ChildSumS;
  double Slack =
      std::max(kLedgerSlackShare * Median.LatencyS, kLedgerSlackSeconds);
  double Share = LatencySum > 0 ? GapSum / LatencySum : 0.0;
  std::printf("ledger: %s %zu samples; p50 sample %.6fs, children %.6fs "
              "(slack %.6fs); unattributed overall %.3f%% (limit %.0f%%)",
              Label, P.Samples.size(), Median.LatencyS, Median.ChildSumS,
              Slack, 100.0 * Share, 100.0 * kLedgerSlackShare);
  if (WorstNest > 0.0)
    std::printf("; service queue+exec cover up to %.1f%% of submit->reply",
                100.0 * WorstNest);
  std::printf("\n");
  if (MedianGap > Slack || Share > kLedgerSlackShare) {
    std::printf("check: %s span ledger does not add up\n", Label);
    Ok = false;
  }
  return Ok;
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                  Metrics[I].Unit);
    Out += Buf;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;
  std::string SpansPath;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (!(V = Value()))
      return false;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--spans")
      O.SpansPath = V;
    else
      return false;
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "resnet20-latency")
    return std::make_unique<InProcess>(O.Seed, resnet20Case(O.Smoke));
  if (O.Workload == "mlp-latency")
    return std::make_unique<InProcess>(O.Seed, mlpCase());
  if (O.Workload == "mlp-serve")
    return std::make_unique<Serve>(O.Seed, mlpCase(), /*OpenLoop=*/false);
  if (O.Workload == "linear-serve")
    return std::make_unique<Serve>(O.Seed, linearCase(), /*OpenLoop=*/true);
  return nullptr;
}

/// Set-up trials per run: setup_s is their median.
size_t setupTrials(const Options &O) {
  if (O.Smoke)
    return 1;
  if (O.Workload == "resnet20-latency" || O.Workload == "mlp-serve")
    return 2;
  return 5;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: acebench --workload mlp-latency|mlp-serve|"
                 "linear-serve|resnet20-latency --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--spans PATH]\n");
    return 2;
  }
  if (Status S = ThreadPool::instance().setNumThreads(kPoolThreads))
    die("thread pool", S);
  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W) {
    std::fprintf(stderr, "acebench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  std::vector<SetupTrial> Setup;
  for (size_t T = 0; T < setupTrials(O); ++T)
    Setup.push_back(W->setup(T));
  std::vector<double> SetupTotals;
  for (const SetupTrial &T : Setup)
    SetupTotals.push_back(T.TotalS);

  std::printf("config: {\"metadata\": %s, \"workload\": \"%s\", \"seed\": "
              "%llu, \"seconds\": %g, \"trace\": %d, \"smoke\": %d, "
              "\"setup_trials\": %zu, \"poly_backend\": \"%s\", "
              "\"limb_pool\": \"%s\", %s}\n",
              bench::benchMetadataJson("acebench").c_str(),
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, O.Smoke ? 1 : 0, Setup.size(),
              fhe::activePolyBackendName(),
              LimbPool::instance().enabled() ? "on" : "off",
              W->config().c_str());

  Phase Untraced = W->run(O.Seconds, 1);
  bool Correct = checkPhase(Untraced, W->tolerance(), "untraced");
  std::vector<Metric> Metrics;
  std::vector<const Phase *> Phases = {&Untraced};
  Phase Traced;
  if (O.Trace) {
    telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
    Tel.clear();
    LayerState Before = readLayers(W->service());
    Tel.setEnabled(true);
    Traced = W->run(O.Seconds, 1 + Untraced.Samples.size());
    Tel.setEnabled(false);
    LayerState After = readLayers(W->service());
    Correct = checkPhase(Traced, W->tolerance(), "traced") && Correct;
    Metrics = perLayer(*W, Setup, Untraced, Traced, Before, After);
    Phases.push_back(&Traced);
  } else {
    Metrics = endToEnd(Untraced, quantile(SetupTotals, 0.5));
  }

  size_t Attempted = 0, Failed = 0;
  for (const Phase *P : Phases) {
    Attempted += P->Samples.size();
    Failed += P->Samples.size() - completed(*P);
  }
  for (const Metric &M : Metrics)
    std::printf("metric: %-30s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  for (const Metric &M : reportOnly(Phases))
    std::printf("report: %-30s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("report: %-30s %14zu count\n", "out_of_domain_draws",
              W->rejectedDraws());
  if (!O.SpansPath.empty() && !spans().write(O.SpansPath))
    std::fprintf(stderr, "acebench: cannot write %s\n", O.SpansPath.c_str());
  Correct = Correct && Failed == 0;
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}
