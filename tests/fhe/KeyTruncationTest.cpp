//===----------------------------------------------------------------------===//
// Level-aware key truncation tests (the Figure 7 memory mechanism): a
// rotation key truncated to level l works for every ciphertext at or
// below l, shrinks quadratically, and matches the full key's results.
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;
using namespace ace::fhe;

namespace {

struct Fixture : ::testing::Test {
  Fixture() {
    CkksParams P;
    P.RingDegree = 1024;
    P.Slots = 64;
    P.LogScale = 45;
    P.LogFirstModulus = 55;
    P.NumRescaleModuli = 11;
    P.LogSpecialModulus = 60;
    P.Seed = 17;
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys);
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(*Ctx, Gen->secretKey());
  }

  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

TEST_F(Fixture, TruncatedKeyShrinksQuadratically) {
  // 12 chain primes group into digits of alpha = 4.
  ASSERT_EQ(Ctx->digitSize(), 4u);
  SwitchKey Full = Gen->makeRotationKey(1);
  SwitchKey Half = Gen->makeRotationKey(1, /*MaxNumQ=*/6);
  EXPECT_EQ(Full.Parts.size(), 3u);
  EXPECT_EQ(Half.Parts.size(), 2u); // the second digit is partial
  EXPECT_EQ(Full.numQ(), 12u);
  EXPECT_EQ(Half.numQ(), 6u);
  EXPECT_EQ(Full.Parts[0].first.numComponents(), 16u);
  EXPECT_EQ(Half.Parts[0].first.numComponents(), 10u);
  // 2 digits over 6 + 4 moduli vs 3 digits over 12 + 4 moduli, exactly.
  size_t PolyBytes = Ctx->bytesPerComponent();
  EXPECT_EQ(Full.byteSize(), 3 * 2 * 16 * PolyBytes);
  EXPECT_EQ(Half.byteSize(), 2 * 2 * 10 * PolyBytes);
}

/// A key truncated to a level that splits a digit still switches every
/// level at or below it, including the partial last digit, whether it is
/// generated eagerly or materialized on first use by the key cache.
TEST_F(Fixture, TruncatedKeyCoversPartialDigits) {
  uint64_t Galois = galoisForRotation(Ctx->degree(), Ctx->slots(), 3);
  Keys.Rotations.emplace(Galois, Gen->makeRotationKey(3, /*MaxNumQ=*/6));
  ASSERT_EQ(Keys.Rotations.at(Galois).Parts.size(), 2u);
  EvalKeys NoKeys;
  RotationKeyCache Cache(*Ctx, *Gen);
  ASSERT_EQ(Cache.declareRotation(3, /*MaxNumQ=*/6), Galois);
  Evaluator LazyEval(*Ctx, *Enc, NoKeys, &Cache);

  Rng R(9);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1, 1);
  for (const Evaluator *E : {Eval.get(), &LazyEval}) {
    for (size_t NumQ = 1; NumQ <= 6; ++NumQ) {
      Ciphertext Ct = Encrypt->encryptValues(*Enc, X, NumQ);
      auto Checked = E->checkedRotate(Ct, 3);
      ASSERT_TRUE(Checked.ok()) << Checked.status().message();
      auto Out = Decrypt->decryptRealValues(*Enc, *Checked);
      for (size_t I = 0; I < X.size(); ++I)
        EXPECT_NEAR(Out[I], X[(I + 3) % Ctx->slots()], 1e-5)
            << "numQ " << NumQ;
    }
    // One prime past the truncation is refused in-band.
    Ciphertext Deep = Encrypt->encryptValues(*Enc, X, 7);
    auto Refused = E->checkedRotate(Deep, 3);
    ASSERT_FALSE(Refused.ok());
    EXPECT_EQ(Refused.status().code(), ErrorCode::KeyMissing);
  }
  auto Cached = Cache.get(Galois);
  ASSERT_TRUE(Cached.ok());
  EXPECT_EQ((*Cached)->Parts.size(), 2u);
  EXPECT_EQ((*Cached)->numQ(), 6u);
}

TEST_F(Fixture, TruncatedKeyRotatesCorrectlyBelowItsLevel) {
  uint64_t Galois = galoisForRotation(Ctx->degree(), Ctx->slots(), 5);
  Keys.Rotations.emplace(Galois, Gen->makeRotationKey(5, /*MaxNumQ=*/4));

  Rng R(3);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1, 1);
  for (size_t NumQ : {size_t(2), size_t(3), size_t(4)}) {
    Ciphertext Ct = Encrypt->encryptValues(*Enc, X, NumQ);
    auto Out = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 5));
    for (size_t I = 0; I < X.size(); ++I)
      EXPECT_NEAR(Out[I], X[(I + 5) % Ctx->slots()], 1e-5)
          << "numQ " << NumQ;
  }
}

TEST_F(Fixture, TruncatedAndFullKeysAgree) {
  uint64_t G2 = galoisForRotation(Ctx->degree(), Ctx->slots(), 2);
  EvalKeys FullKeys;
  FullKeys.Rotations.emplace(G2, Gen->makeRotationKey(2));
  Evaluator FullEval(*Ctx, *Enc, FullKeys);
  Keys.Rotations.emplace(G2, Gen->makeRotationKey(2, /*MaxNumQ=*/3));

  Rng R(5);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1, 1);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);
  auto A = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 2));
  auto B = Decrypt->decryptRealValues(*Enc, FullEval.rotate(Ct, 2));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(A[I], B[I], 1e-6);
}

TEST_F(Fixture, TruncateKeyHelperIsIdempotentAtFullLength) {
  SwitchKey Full = Gen->makeRotationKey(1);
  SwitchKey Same = KeyGenerator::truncateKey(Full, 0);
  EXPECT_EQ(Same.byteSize(), Full.byteSize());
  SwitchKey Same2 = KeyGenerator::truncateKey(Full, 99);
  EXPECT_EQ(Same2.byteSize(), Full.byteSize());
}

} // namespace
