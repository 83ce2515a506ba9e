//===----------------------------------------------------------------------===//
// Hybrid key switching contracts: the exact kernel count of one key
// switch (forward and inverse NTTs, grouped digits, ModUps) for every
// key-switched op at the levels where the digit grouping changes shape,
// and the precision of key switching at every level of the chain,
// including partial last digits. The closed form is the one written in
// docs/performance.md ("Key switching cost").
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

using namespace ace;
using namespace ace::fhe;
using telemetry::Counter;
using telemetry::CounterSnapshot;
using telemetry::Telemetry;

namespace {

/// Kernel counts of \p Switches key switches sharing \p ModUps
/// decompositions at \p L active primes with digit size \p Alpha
/// (docs/performance.md): with d = ceil(L / Alpha),
///   inverse NTTs = ModUps * L + Switches * 2 * Alpha
///   forward NTTs = ModUps * (d * (L + Alpha) - L) + Switches * 2 * L
///   digits       = ModUps * d.
struct KeySwitchCost {
  uint64_t Forward = 0, Inverse = 0, Digits = 0, ModUps = 0, Switches = 0;
};

KeySwitchCost expectedCost(size_t L, size_t Alpha, size_t Switches,
                           size_t ModUps = 1) {
  size_t D = (L + Alpha - 1) / Alpha;
  KeySwitchCost C;
  C.Inverse = ModUps * L + Switches * 2 * Alpha;
  C.Forward = ModUps * (D * (L + Alpha) - L) + Switches * 2 * L;
  C.Digits = ModUps * D;
  C.ModUps = ModUps;
  C.Switches = Switches;
  return C;
}

class KeySwitchTest : public ::testing::Test {
protected:
  static CkksParams params() {
    // 12 chain primes: alpha = 4, three full digits at the top level.
    CkksParams P;
    P.RingDegree = 256;
    P.Slots = 64;
    P.LogScale = 25;
    P.LogFirstModulus = 55;
    P.NumRescaleModuli = 11;
    P.LogSpecialModulus = 60;
    P.Seed = 41;
    return P;
  }

  KeySwitchTest()
      : Ctx(params()), Enc(Ctx), Gen(Ctx), Pub(Gen.makePublicKey()),
        Decrypt(Ctx, Gen.secretKey()) {
    Gen.fillEvalKeys(Keys, {1, 2, 5, -3}, /*NeedRelin=*/true,
                     /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys);
    Encrypt = std::make_unique<Encryptor>(Ctx, Pub);
  }
  void TearDown() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }

  std::vector<double> randomValues(uint64_t Seed) {
    Rng R(Seed);
    std::vector<double> X(Ctx.slots());
    for (auto &V : X)
      V = R.uniformReal(-1.0, 1.0);
    return X;
  }

  /// Runs \p Op with telemetry on and returns the counter delta.
  template <typename Fn> CounterSnapshot measure(Fn Op) {
    Telemetry::instance().setEnabled(true);
    CounterSnapshot Before = Telemetry::instance().counters();
    Op();
    CounterSnapshot D = Telemetry::instance().counters().deltaSince(Before);
    Telemetry::instance().setEnabled(false);
    return D;
  }

  void expectCost(const CounterSnapshot &D, const KeySwitchCost &C,
                  const char *What, size_t L) {
    EXPECT_EQ(D.get(Counter::NttForward), C.Forward) << What << " at " << L;
    EXPECT_EQ(D.get(Counter::NttInverse), C.Inverse) << What << " at " << L;
    EXPECT_EQ(D.get(Counter::KeySwitchDigit), C.Digits)
        << What << " at " << L;
    EXPECT_EQ(D.get(Counter::ModUp), C.ModUps) << What << " at " << L;
    EXPECT_EQ(D.get(Counter::KeySwitch), C.Switches) << What << " at " << L;
  }

  Context Ctx;
  Encoder Enc;
  KeyGenerator Gen;
  PublicKey Pub;
  Decryptor Decrypt;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
};

TEST_F(KeySwitchTest, DigitSizeIsCeilSqrtOfChainLength) {
  EXPECT_EQ(Ctx.digitSize(), 4u);
  auto DigitSize = [](size_t ChainLength, size_t RingDegree = 128) {
    CkksParams P = params();
    P.RingDegree = RingDegree;
    P.NumRescaleModuli = static_cast<int>(ChainLength) - 1;
    return keySwitchDigitSize(P);
  };
  EXPECT_EQ(DigitSize(1), 1u);
  EXPECT_EQ(DigitSize(2), 2u);
  EXPECT_EQ(DigitSize(4), 2u);
  EXPECT_EQ(DigitSize(5), 3u);
  EXPECT_EQ(DigitSize(38), 7u);
  EXPECT_EQ(DigitSize(49), 7u);
  EXPECT_EQ(DigitSize(50), 8u);
  // A chain that is 128-bit secure with one special prime stays secure:
  // at N = 2^13 (log QP budget 218) four 25-bit primes over a 55-bit q_0
  // (log Q = 130) leave room for one 60-bit special prime, not two.
  EXPECT_EQ(DigitSize(4, 8192), 1u);
  // At N = 2^14 (budget 438) the uncapped alpha = 2 fits.
  EXPECT_EQ(DigitSize(4, 16384), 2u);
  // A chain past the budget even with one special prime is a toy
  // parameter set and keeps ceil(sqrt(L)).
  EXPECT_EQ(DigitSize(12, 8192), 4u);
  EXPECT_EQ(Ctx.numDigits(1), 1u);
  EXPECT_EQ(Ctx.numDigits(4), 1u);
  EXPECT_EQ(Ctx.numDigits(5), 2u);
  EXPECT_EQ(Ctx.numDigits(12), 3u);
  // Every key part spans the chain plus the alpha special primes.
  const SwitchKey &Relin = Keys.Relin;
  ASSERT_EQ(Relin.Parts.size(), 3u);
  EXPECT_EQ(Relin.numQ(), 12u);
  EXPECT_EQ(Relin.Parts[0].first.numComponents(), 16u);
}

/// One key switch per op, at the levels where the grouping changes
/// shape: a single partial digit (1), one full digit (alpha), a full
/// digit plus a one-prime partial digit (alpha + 1), and the top level.
TEST_F(KeySwitchTest, ExactKernelCountsPerKeySwitch) {
  size_t Alpha = Ctx.digitSize();
  size_t Top = Ctx.chainLength();
  std::vector<double> X = randomValues(3);
  for (size_t L : {size_t(1), Alpha, Alpha + 1, Top}) {
    Ciphertext Ct = Encrypt->encryptValues(Enc, X, L);
    KeySwitchCost One = expectedCost(L, Alpha, /*Switches=*/1);

    Ciphertext Product = Eval->mulNoRelin(Ct, Ct);
    expectCost(measure([&] { Eval->relinearize(Product); }), One,
               "relinearize", L);
    expectCost(measure([&] { Eval->rotate(Ct, 5); }), One, "rotate", L);
    expectCost(measure([&] { Eval->conjugate(Ct); }), One, "conjugate", L);

    // A hoisted batch pays one ModUp and one ModDown pair per rotation;
    // the zero step is a copy and joins neither.
    std::vector<int64_t> Steps = {1, 2, 0, 5, -3};
    CounterSnapshot Batch =
        measure([&] { Eval->rotateHoisted(Ct, Steps); });
    expectCost(Batch, expectedCost(L, Alpha, /*Switches=*/4), "hoisted", L);
    EXPECT_EQ(Batch.get(Counter::HoistedKeySwitch), 4u);
  }
}

/// Key switching at every level 1..L, including the partial last digits
/// at levels not divisible by alpha, decrypts within 1e-3 of the
/// plaintext result. Values lie in [-1, 1] at scale 2^25; the worst slot
/// error measured over all levels is ~1e-4, dominated by the fresh
/// encryption noise of the product, while a wrong gadget, digit grouping
/// or basis conversion shows up as an error of order 1 or more.
TEST_F(KeySwitchTest, PrecisionAtEveryLevel) {
  constexpr double Bound = 1e-3;
  std::vector<double> X = randomValues(7), Y = randomValues(8);
  size_t Slots = Ctx.slots();
  for (size_t L = 1; L <= Ctx.chainLength(); ++L) {
    Ciphertext A = Encrypt->encryptValues(Enc, X, L);
    Ciphertext B = Encrypt->encryptValues(Enc, Y, L);

    auto Prod =
        Decrypt.decryptRealValues(Enc, Eval->relinearize(
                                           Eval->mulNoRelin(A, B)));
    auto Rot = Decrypt.decryptRealValues(Enc, Eval->rotate(A, 5));
    auto Conj = Decrypt.decryptRealValues(Enc, Eval->conjugate(A));
    std::vector<Ciphertext> Hoisted = Eval->rotateHoisted(A, {2, -3});
    auto Rot2 = Decrypt.decryptRealValues(Enc, Hoisted[0]);
    auto RotM3 = Decrypt.decryptRealValues(Enc, Hoisted[1]);

    double Worst = 0.0;
    for (size_t I = 0; I < Slots; ++I) {
      Worst = std::max(Worst, std::fabs(Prod[I] - X[I] * Y[I]));
      Worst = std::max(Worst, std::fabs(Rot[I] - X[(I + 5) % Slots]));
      Worst = std::max(Worst, std::fabs(Conj[I] - X[I]));
      Worst = std::max(Worst, std::fabs(Rot2[I] - X[(I + 2) % Slots]));
      Worst = std::max(Worst,
                       std::fabs(RotM3[I] - X[(I + Slots - 3) % Slots]));
    }
    EXPECT_LT(Worst, Bound) << "level " << L;
  }
}

} // namespace
