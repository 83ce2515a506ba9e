//===----------------------------------------------------------------------===//
// Unit and property tests for prime-field arithmetic.
//===----------------------------------------------------------------------===//

#include "fhe/ModArith.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;
using namespace ace::fhe;

namespace {

TEST(ModArithTest, AddSubRoundTrip) {
  const uint64_t P = 1000000007ULL;
  Rng R(1);
  for (int I = 0; I < 1000; ++I) {
    uint64_t A = R.uniform(P), B = R.uniform(P);
    EXPECT_EQ(subMod(addMod(A, B, P), B, P), A);
    EXPECT_EQ(addMod(subMod(A, B, P), B, P), A);
  }
}

TEST(ModArithTest, NegMod) {
  const uint64_t P = 97;
  EXPECT_EQ(negMod(0, P), 0u);
  for (uint64_t A = 1; A < P; ++A)
    EXPECT_EQ(addMod(A, negMod(A, P), P), 0u);
}

TEST(ModArithTest, MulModMatchesSmallCases) {
  EXPECT_EQ(mulMod(7, 8, 13), 56 % 13);
  EXPECT_EQ(mulMod(0, 12345, 13), 0u);
  // Near-overflow operands exercise the 128-bit path.
  const uint64_t P = (1ULL << 59) + 21 * (1ULL << 13) + 1;
  uint64_t A = P - 2, B = P - 3;
  // (P-2)(P-3) = P^2 - 5P + 6 = 6 (mod P).
  EXPECT_EQ(mulMod(A, B, P), 6u);
}

TEST(ModArithTest, ShoupMatchesPlain) {
  Rng R(2);
  const uint64_t P = (1ULL << 50) + (1ULL << 14) + 1; // any odd modulus
  for (int I = 0; I < 2000; ++I) {
    uint64_t A = R.uniform(P), B = R.uniform(P);
    uint64_t BS = shoupPrecompute(B, P);
    EXPECT_EQ(mulModShoup(A, B, BS, P), mulMod(A, B, P));
  }
}

TEST(ModArithTest, PowMod) {
  EXPECT_EQ(powMod(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(powMod(5, 0, 97), 1u);
  // Fermat: a^(p-1) = 1.
  const uint64_t P = 1000003;
  Rng R(3);
  for (int I = 0; I < 50; ++I) {
    uint64_t A = 1 + R.uniform(P - 1);
    EXPECT_EQ(powMod(A, P - 1, P), 1u);
  }
}

TEST(ModArithTest, InvMod) {
  const uint64_t P = 1000000007ULL;
  Rng R(4);
  for (int I = 0; I < 200; ++I) {
    uint64_t A = 1 + R.uniform(P - 1);
    EXPECT_EQ(mulMod(A, invMod(A, P), P), 1u);
  }
}

TEST(ModArithTest, IsPrimeKnownValues) {
  EXPECT_FALSE(isPrime(0));
  EXPECT_FALSE(isPrime(1));
  EXPECT_TRUE(isPrime(2));
  EXPECT_TRUE(isPrime(3));
  EXPECT_FALSE(isPrime(4));
  EXPECT_TRUE(isPrime(1000000007ULL));
  EXPECT_FALSE(isPrime(1000000007ULL * 3));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(isPrime(561));
  // Large Mersenne prime 2^61 - 1.
  EXPECT_TRUE(isPrime((1ULL << 61) - 1));
}

TEST(ModArithTest, PrimitiveRootOrder) {
  const uint64_t Order = 1 << 12;
  auto Primes = generateNttPrimes(40, Order, 3, {});
  for (uint64_t P : Primes) {
    uint64_t Root = findPrimitiveRoot(Order, P);
    EXPECT_EQ(powMod(Root, Order, P), 1u);
    EXPECT_NE(powMod(Root, Order / 2, P), 1u);
  }
}

/// The trial-division generator search findGenerator used before it
/// factored P-1 with Pollard-Brent rho: the oracle for the same smallest
/// generator (and hence bit-identical NTT tables).
uint64_t trialDivisionGenerator(uint64_t P) {
  uint64_t Phi = P - 1;
  std::vector<uint64_t> Factors;
  uint64_t M = Phi;
  for (uint64_t F = 2; F * F <= M; ++F) {
    if (M % F != 0)
      continue;
    Factors.push_back(F);
    while (M % F == 0)
      M /= F;
  }
  if (M > 1)
    Factors.push_back(M);
  for (uint64_t Candidate = 2; Candidate < P; ++Candidate) {
    bool IsGenerator = true;
    for (uint64_t F : Factors)
      if (powMod(Candidate, Phi / F, P) == 1) {
        IsGenerator = false;
        break;
      }
    if (IsGenerator)
      return Candidate;
  }
  return 0;
}

TEST(ModArithTest, GeneratorMatchesTrialDivisionOracle) {
  // NTT primes of the widths the contexts use (q_0, rescale and special
  // primes), for ring degrees 2^7 and 2^12.
  for (uint64_t Factor : {uint64_t(1) << 8, uint64_t(1) << 13})
    for (int Bits : {45, 55, 59, 60})
      for (uint64_t P : generateNttPrimes(Bits, Factor, 4, {}))
        EXPECT_EQ(findGenerator(P), trialDivisionGenerator(P))
            << Bits << "-bit prime " << P;
}

TEST(ModArithTest, GeneratedPrimesAreNttFriendly) {
  const uint64_t Factor = 1 << 13;
  auto Primes = generateNttPrimes(45, Factor, 5, {});
  ASSERT_EQ(Primes.size(), 5u);
  for (uint64_t P : Primes) {
    EXPECT_TRUE(isPrime(P));
    EXPECT_EQ((P - 1) % Factor, 0u);
    EXPECT_GE(P, 1ULL << 44);
    EXPECT_LT(P, 1ULL << 45);
  }
  // Distinct and descending.
  for (size_t I = 1; I < Primes.size(); ++I)
    EXPECT_LT(Primes[I], Primes[I - 1]);
}

TEST(ModArithTest, GeneratedPrimesRespectExclusion) {
  const uint64_t Factor = 1 << 13;
  auto First = generateNttPrimes(45, Factor, 2, {});
  auto Second = generateNttPrimes(45, Factor, 2, First);
  for (uint64_t P : Second)
    for (uint64_t Q : First)
      EXPECT_NE(P, Q);
}

} // namespace
