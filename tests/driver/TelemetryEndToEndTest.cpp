//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Telemetry across the full pipeline:
//  - property: enabling telemetry does not change encrypted-inference
//    results (bit-identical logits against a disabled run);
//  - golden counters: a small MLP compile+run produces telemetry counts
//    that equal the evaluator's own OpCounters and the compiler's
//    bootstrap plan (the paper's op-count story);
//  - trace contents: the compile emits a span per compiler phase and the
//    run emits the mul/rotate/rescale/bootstrap runtime op spans.
//
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

using namespace ace;
using namespace ace::telemetry;

namespace {

air::CompileOptions toyOptions() {
  air::CompileOptions Opt;
  Opt.ToyParameters = true;
  Opt.LogScale = 45;
  Opt.LogFirstModulus = 55;
  Opt.CalibrationSamples = 4;
  Opt.Seed = 11;
  return Opt;
}

std::vector<nn::Tensor> randomInputs(const std::vector<int64_t> &Shape,
                                     int Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<nn::Tensor> Out;
  for (int I = 0; I < Count; ++I) {
    nn::Tensor T;
    T.Shape = Shape;
    int64_t N = T.elementCount();
    T.Values.resize(N);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Out.push_back(std::move(T));
  }
  return Out;
}

/// Compiles and runs the small bootstrap-bearing MLP; returns the logits.
std::vector<double> runMlp(const onnx::Model &Model,
                           const std::vector<nn::Tensor> &Inputs,
                           std::unique_ptr<driver::CompileResult> *KeepR,
                           std::unique_ptr<codegen::CkksExecutor> *KeepE) {
  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  EXPECT_TRUE(Result.ok()) << Result.status().message();
  auto R = std::move(*Result);
  auto Exec = std::make_unique<codegen::CkksExecutor>(R->Program, R->State);
  Status S = Exec->setup();
  EXPECT_FALSE(S) << S.message();
  auto Logits = Exec->infer(Inputs[0]);
  EXPECT_TRUE(Logits.ok()) << Logits.status().message();
  if (KeepR)
    *KeepR = std::move(R);
  if (KeepE)
    *KeepE = std::move(Exec);
  return Logits.ok() ? *Logits : std::vector<double>();
}

class TelemetryEndToEndTest : public ::testing::Test {
protected:
  void SetUp() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }
  void TearDown() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }
};

TEST_F(TelemetryEndToEndTest, EnablingTelemetryDoesNotChangeResults) {
  onnx::Model Model = nn::buildMlp({16, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);

  std::vector<double> Off = runMlp(Model, Inputs, nullptr, nullptr);
  Telemetry::instance().setEnabled(true);
  std::vector<double> On = runMlp(Model, Inputs, nullptr, nullptr);

  ASSERT_EQ(Off.size(), On.size());
  ASSERT_FALSE(Off.empty());
  for (size_t I = 0; I < Off.size(); ++I)
    EXPECT_EQ(Off[I], On[I]) << "logit " << I
                             << " changed when telemetry was enabled";
}

TEST_F(TelemetryEndToEndTest, GoldenCountersMatchEvaluatorAndPlan) {
  Telemetry::instance().setEnabled(true);
  onnx::Model Model = nn::buildMlp({16, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);

  std::unique_ptr<driver::CompileResult> R;
  std::unique_ptr<codegen::CkksExecutor> Exec;
  std::vector<double> Logits = runMlp(Model, Inputs, &R, &Exec);
  ASSERT_FALSE(Logits.empty());

  CounterSnapshot S = Telemetry::instance().counters();
  const fhe::OpCounters &Ops = Exec->counters();

  // Telemetry hooks sit at exactly the evaluator's counter sites, so the
  // two tallies must agree op for op. The ReLU layer forces real work:
  // every category below is non-zero on this model.
  EXPECT_EQ(Ops.MulCipher, S.get(Counter::CtCtMul));
  EXPECT_EQ(Ops.MulPlain, S.get(Counter::CtPtMul));
  EXPECT_EQ(Ops.Add, S.get(Counter::Add));
  EXPECT_EQ(Ops.Rotate, S.get(Counter::Rotate));
  EXPECT_EQ(Ops.Conjugate, S.get(Counter::Conjugate));
  EXPECT_EQ(Ops.Relinearize, S.get(Counter::Relinearize));
  EXPECT_EQ(Ops.Rescale, S.get(Counter::Rescale));
  EXPECT_EQ(Ops.ModSwitch, S.get(Counter::ModSwitch));
  EXPECT_EQ(Ops.KeySwitch, S.get(Counter::KeySwitch));
  EXPECT_GT(S.get(Counter::CtCtMul), 0u);
  EXPECT_GT(S.get(Counter::Rotate), 0u);
  EXPECT_GT(S.get(Counter::Rescale), 0u);
  EXPECT_GT(S.get(Counter::NttForward), 0u);

  // Hybrid key switching: a ModUp at l active primes processes
  // ceil(l / alpha) grouped digits, and its modup trace row carries l,
  // so the digit counter is exactly the sum over those rows.
  ASSERT_EQ(Telemetry::instance().droppedEventCount(), 0u);
  size_t Alpha = Exec->context().digitSize();
  uint64_t ModUpRows = 0, Digits = 0;
  for (const TraceEvent &E : Telemetry::instance().eventsCopy()) {
    if (E.Name != "modup")
      continue;
    ASSERT_GE(E.Level, 1);
    ++ModUpRows;
    Digits += (static_cast<size_t>(E.Level) + Alpha - 1) / Alpha;
  }
  EXPECT_GT(ModUpRows, 0u);
  EXPECT_EQ(ModUpRows, S.get(Counter::ModUp));
  EXPECT_EQ(Digits, S.get(Counter::KeySwitchDigit));

  // Bootstrap executions match the compiler's plan.
  EXPECT_EQ(R->State.BootstrapCount, S.get(Counter::Bootstrap));
  EXPECT_GT(S.get(Counter::Bootstrap), 0u);
}

TEST_F(TelemetryEndToEndTest, TraceContainsPassAndRuntimeOpSpans) {
  Telemetry::instance().setEnabled(true);
  onnx::Model Model = nn::buildMlp({16, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);
  std::vector<double> Logits = runMlp(Model, Inputs, nullptr, nullptr);
  ASSERT_FALSE(Logits.empty());

  std::set<std::string> Names;
  for (const TraceEvent &E : Telemetry::instance().eventsCopy())
    Names.insert(E.Name);

  // One span per compiler phase...
  for (const char *Phase : {"NN", "VECTOR", "SIHE", "CKKS", "compile"})
    EXPECT_TRUE(Names.count(Phase)) << "missing compiler span " << Phase;
  // ...and the runtime primitives the acceptance criteria name.
  for (const char *Op :
       {"ct-ct-mul", "ct-pt-mul", "rotate", "rescale", "bootstrap",
        "key-switch", "modup", "relinearize"})
    EXPECT_TRUE(Names.count(Op)) << "missing runtime op span " << Op;
  // Bootstrap stage spans nest inside the bootstrap op span.
  for (const char *Stage :
       {"ModRaise", "SubSum", "CoeffToSlot", "EvalMod", "SlotToCoeff"})
    EXPECT_TRUE(Names.count(Stage)) << "missing bootstrap stage " << Stage;

  // Health was recorded with plausible CKKS quantities. Key switches
  // and ModUps carry the level, scale and budget of the ciphertext they
  // serve (relinearize, rotate, conjugate), not a scale-0 placeholder.
  bool SawMulHealth = false, SawKeySwitchHealth = false,
       SawModUpHealth = false;
  for (const auto &[Op, H] : Telemetry::instance().health()) {
    if (Op == Counter::CtCtMul) {
      SawMulHealth = true;
      EXPECT_GT(H.Count, 0u);
      EXPECT_GE(H.MinLevel, 1);
      EXPECT_GT(H.MinNoiseBudgetBits, 0.0);
    }
    if (Op == Counter::KeySwitch || Op == Counter::ModUp) {
      (Op == Counter::KeySwitch ? SawKeySwitchHealth : SawModUpHealth) =
          true;
      EXPECT_GT(H.Count, 0u);
      EXPECT_GE(H.MinLevel, 1);
      EXPECT_TRUE(std::isfinite(H.MinNoiseBudgetBits))
          << counterName(Op) << " row has no noise budget";
      EXPECT_GT(H.MinNoiseBudgetBits, 0.0);
      EXPECT_TRUE(std::isfinite(H.LastLog2Scale));
      EXPECT_GT(H.LastLog2Scale, 10.0) << counterName(Op);
    }
  }
  EXPECT_TRUE(SawMulHealth);
  EXPECT_TRUE(SawKeySwitchHealth);
  EXPECT_TRUE(SawModUpHealth);

  // The written trace is structurally valid Chrome JSON.
  std::string Json;
  {
    std::ostringstream OS;
    Telemetry::instance().writeChromeTrace(OS);
    Json = OS.str();
  }
  EXPECT_EQ('{', Json.front());
  EXPECT_NE(std::string::npos, Json.find("\"traceEvents\":["));
  EXPECT_NE(std::string::npos, Json.find("\"noiseBudgetBits\""));
}

} // namespace
