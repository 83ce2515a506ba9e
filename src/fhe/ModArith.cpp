//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/ModArith.h"

#include "support/Status.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

using namespace ace;
using namespace ace::fhe;

uint64_t ace::fhe::powMod(uint64_t Base, uint64_t Exp, uint64_t P) {
  uint64_t Result = 1;
  uint64_t Acc = Base % P;
  while (Exp > 0) {
    if (Exp & 1)
      Result = mulMod(Result, Acc, P);
    Acc = mulMod(Acc, Acc, P);
    Exp >>= 1;
  }
  return Result;
}

uint64_t ace::fhe::invMod(uint64_t A, uint64_t P) {
  assert(A % P != 0 && "cannot invert zero");
  return powMod(A, P - 2, P);
}

bool ace::fhe::isPrime(uint64_t X) {
  if (X < 2)
    return false;
  for (uint64_t Small : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                         23ULL, 29ULL, 31ULL, 37ULL}) {
    if (X == Small)
      return true;
    if (X % Small == 0)
      return false;
  }
  // Miller-Rabin with the deterministic witness set for 64-bit integers.
  uint64_t D = X - 1;
  int R = 0;
  while ((D & 1) == 0) {
    D >>= 1;
    ++R;
  }
  for (uint64_t Witness : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                           23ULL, 29ULL, 31ULL, 37ULL}) {
    uint64_t Y = powMod(Witness, D, X);
    if (Y == 1 || Y == X - 1)
      continue;
    bool Composite = true;
    for (int I = 0; I < R - 1; ++I) {
      Y = mulMod(Y, Y, X);
      if (Y == X - 1) {
        Composite = false;
        break;
      }
    }
    if (Composite)
      return false;
  }
  return true;
}

/// One nontrivial factor of the odd composite \p N by Pollard's rho with
/// Brent's cycle detection, batching 128 differences per gcd. Retries with
/// the next polynomial constant when a cycle closes without a split.
static uint64_t pollardBrent(uint64_t N) {
  constexpr uint64_t Batch = 128;
  for (uint64_t C = 1;; ++C) {
    auto Step = [&](uint64_t X) { return addMod(mulMod(X, X, N), C, N); };
    auto Diff = [](uint64_t A, uint64_t B) { return A > B ? A - B : B - A; };
    uint64_t Y = 2, X = 2, Saved = 2, Prod = 1, G = 1;
    for (uint64_t R = 1; G == 1; R *= 2) {
      X = Y;
      for (uint64_t I = 0; I < R; ++I)
        Y = Step(Y);
      for (uint64_t K = 0; K < R && G == 1; K += Batch) {
        Saved = Y;
        for (uint64_t I = 0, E = std::min(Batch, R - K); I < E; ++I) {
          Y = Step(Y);
          Prod = mulMod(Prod, Diff(X, Y), N);
        }
        G = std::gcd(Prod, N);
      }
    }
    // The batch overshot (the product hit 0 mod N): replay it one
    // difference at a time from the batch start.
    if (G == N) {
      do {
        Saved = Step(Saved);
        G = std::gcd(Diff(X, Saved), N);
      } while (G == 1);
    }
    if (G != N)
      return G;
  }
}

/// Appends the distinct prime factors of \p M (> 1, no factor below 1000)
/// to \p Out.
static void collectLargePrimeFactors(uint64_t M, std::vector<uint64_t> &Out) {
  if (isPrime(M)) {
    if (std::find(Out.begin(), Out.end(), M) == Out.end())
      Out.push_back(M);
    return;
  }
  uint64_t D = pollardBrent(M);
  collectLargePrimeFactors(D, Out);
  collectLargePrimeFactors(M / D, Out);
}

uint64_t ace::fhe::findGenerator(uint64_t P) {
  // Factor P-1: trial division strips the small primes (P-1 = 2N * odd
  // cofactor), Pollard-Brent rho splits what is left. The cofactor of a
  // 60-bit NTT prime can hold two ~25-bit primes, which trial division
  // alone needs ~10^7 steps to reach.
  uint64_t Phi = P - 1;
  std::vector<uint64_t> Factors;
  uint64_t M = Phi;
  for (uint64_t F = 2; F < 1000 && F * F <= M; ++F) {
    if (M % F != 0)
      continue;
    Factors.push_back(F);
    while (M % F == 0)
      M /= F;
  }
  if (M > 1)
    collectLargePrimeFactors(M, Factors);

  for (uint64_t Candidate = 2; Candidate < P; ++Candidate) {
    bool IsGenerator = true;
    for (uint64_t F : Factors) {
      if (powMod(Candidate, Phi / F, P) == 1) {
        IsGenerator = false;
        break;
      }
    }
    if (IsGenerator)
      return Candidate;
  }
  reportFatalError("no generator found for modulus " + std::to_string(P) +
                   " (modulus not prime?)");
}

uint64_t ace::fhe::findPrimitiveRoot(uint64_t Order, uint64_t P) {
  assert((P - 1) % Order == 0 && "order must divide P-1");
  uint64_t Generator = findGenerator(P);
  uint64_t Root = powMod(Generator, (P - 1) / Order, P);
  assert(powMod(Root, Order, P) == 1 && "root order check failed");
  assert(powMod(Root, Order / 2, P) != 1 && "root is not primitive");
  return Root;
}

std::vector<uint64_t>
ace::fhe::generateNttPrimes(int Bits, uint64_t Factor, size_t Count,
                            const std::vector<uint64_t> &Exclude) {
  assert(Bits >= 20 && Bits <= 60 && "prime size out of supported range");
  std::vector<uint64_t> Primes;
  // Scan candidates p = k*Factor + 1 downward from 2^Bits.
  uint64_t Top = (1ULL << Bits);
  uint64_t K = (Top - 1) / Factor;
  while (Primes.size() < Count && K > 1) {
    uint64_t Candidate = K * Factor + 1;
    --K;
    if (Candidate >= Top || (Top >> 1) >= Candidate)
      continue;
    if (!isPrime(Candidate))
      continue;
    if (std::find(Exclude.begin(), Exclude.end(), Candidate) != Exclude.end())
      continue;
    Primes.push_back(Candidate);
  }
  if (Primes.size() < Count)
    reportFatalError("not enough NTT-friendly " + std::to_string(Bits) +
                     "-bit primes with factor " + std::to_string(Factor) +
                     ": needed " + std::to_string(Count) + ", found " +
                     std::to_string(Primes.size()) + " (with " +
                     std::to_string(Exclude.size()) + " excluded)");
  return Primes;
}

std::vector<uint64_t>
ace::fhe::generateBalancedNttPrimes(int Bits, uint64_t Factor, size_t Count,
                                    const std::vector<uint64_t> &Exclude) {
  assert(Bits >= 20 && Bits <= 60 && "prime size out of supported range");
  double Target = std::ldexp(1.0, Bits);
  uint64_t Center = (1ULL << Bits) / Factor;

  // Collect the nearest candidates on both sides of 2^Bits.
  auto IsUsable = [&](uint64_t Candidate) {
    return isPrime(Candidate) &&
           std::find(Exclude.begin(), Exclude.end(), Candidate) ==
               Exclude.end();
  };
  std::vector<uint64_t> Pool;
  uint64_t Lo = Center, Hi = Center + 1;
  while (Pool.size() < 2 * Count + 4 && Lo > 1) {
    uint64_t CandLo = Lo * Factor + 1;
    if (IsUsable(CandLo))
      Pool.push_back(CandLo);
    uint64_t CandHi = Hi * Factor + 1;
    if (CandHi < (3ULL << (Bits - 1)) && IsUsable(CandHi))
      Pool.push_back(CandHi);
    --Lo;
    ++Hi;
  }
  if (Pool.size() < Count)
    reportFatalError("not enough NTT-friendly primes near 2^" +
                     std::to_string(Bits) + " with factor " +
                     std::to_string(Factor) + ": needed " +
                     std::to_string(Count) + ", found " +
                     std::to_string(Pool.size()) + " (with " +
                     std::to_string(Exclude.size()) + " excluded)");
  std::sort(Pool.begin(), Pool.end(), [&](uint64_t A, uint64_t B) {
    return std::fabs(A - Target) < std::fabs(B - Target);
  });
  Pool.resize(2 * Count > Pool.size() ? Pool.size() : 2 * Count);

  // Greedy ordering: keep the cumulative log-deviation from Bits*i minimal
  // so the scale after any number of rescales stays near 2^Bits.
  std::vector<uint64_t> Result;
  std::vector<bool> Used(Pool.size(), false);
  double Deviation = 0.0;
  for (size_t Picked = 0; Picked < Count; ++Picked) {
    size_t Best = SIZE_MAX;
    double BestDev = 0.0;
    for (size_t I = 0; I < Pool.size(); ++I) {
      if (Used[I])
        continue;
      double Dev =
          Deviation + std::log2(static_cast<double>(Pool[I])) - Bits;
      if (Best == SIZE_MAX || std::fabs(Dev) < std::fabs(BestDev)) {
        Best = I;
        BestDev = Dev;
      }
    }
    assert(Best != SIZE_MAX && "prime pool exhausted");
    Used[Best] = true;
    Deviation = BestDev;
    Result.push_back(Pool[Best]);
  }
  return Result;
}
