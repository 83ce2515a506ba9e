//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Context.h"

#include "fhe/ModArith.h"
#include "fhe/PolyBackend.h"
#include "fhe/Security.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::fhe;

bool CkksParams::valid() const {
  if (RingDegree < 8 || (RingDegree & (RingDegree - 1)) != 0)
    return false;
  if (Slots < 1 || Slots > RingDegree / 2 || (Slots & (Slots - 1)) != 0)
    return false;
  if (LogScale < 20 || LogScale > 60)
    return false;
  if (LogFirstModulus < LogScale || LogFirstModulus > 60)
    return false;
  if (NumRescaleModuli < 0 || NumRescaleModuli > 60)
    return false;
  if (LogSpecialModulus < LogFirstModulus || LogSpecialModulus > 60)
    return false;
  return true;
}

size_t ace::fhe::keySwitchDigitSize(const CkksParams &P) {
  size_t ChainLength = static_cast<size_t>(P.NumRescaleModuli) + 1;
  size_t Alpha = 1;
  while (Alpha * Alpha < ChainLength)
    ++Alpha;
  int LogQ = P.LogFirstModulus + P.NumRescaleModuli * P.LogScale;
  int Budget = maxLogQ(P.RingDegree, SecurityLevelKind::SL_128);
  if (Budget > 0 && LogQ + P.LogSpecialModulus <= Budget)
    while (Alpha > 1 &&
           LogQ + static_cast<int>(Alpha) * P.LogSpecialModulus > Budget)
      --Alpha;
  return Alpha;
}

/// Conversion constants from \p Source to every modulus in \p Targets
/// (the nttTable numbering); targets that are source primes get zeros.
static BasisConversion makeConversion(const std::vector<uint64_t> &Source,
                                      const std::vector<uint64_t> &Targets) {
  BasisConversion Conv;
  size_t K = Source.size();
  Conv.NumSource = K;
  for (size_t I = 0; I < K; ++I) {
    uint64_t S = Source[I], Hat = 1;
    for (size_t J = 0; J < K; ++J)
      if (J != I)
        Hat = mulMod(Hat, Source[J] % S, S);
    uint64_t Inv = invMod(Hat, S);
    Conv.InvHat.push_back(Inv);
    Conv.InvHatShoup.push_back(shoupPrecompute(Inv, S));
  }
  Conv.Hat.assign(Targets.size() * K, 0);
  Conv.HatShoup.assign(Targets.size() * K, 0);
  for (size_t T = 0; T < Targets.size(); ++T) {
    uint64_t Q = Targets[T];
    if (std::find(Source.begin(), Source.end(), Q) != Source.end())
      continue;
    for (size_t I = 0; I < K; ++I) {
      uint64_t Hat = 1;
      for (size_t J = 0; J < K; ++J)
        if (J != I)
          Hat = mulMod(Hat, Source[J] % Q, Q);
      Conv.Hat[T * K + I] = Hat;
      Conv.HatShoup[T * K + I] = shoupPrecompute(Hat, Q);
    }
  }
  return Conv;
}

Context::Context(const CkksParams &P) : Params(P) {
  assert(P.valid() && "invalid CKKS parameters");
  // Pin the poly-ops backend now (CPUID probe + ACE_POLY_BACKEND
  // resolution, docs/kernels.md): the choice is per-process and must be
  // settled before any FHE work, not lazily inside a hot loop.
  (void)activePolyBackend();
  uint64_t TwoN = 2 * P.RingDegree;

  // Build the chain: one q_0 prime, NumRescaleModuli rescale primes,
  // alpha special primes. Primes of equal bit width must be distinct, so
  // each generation round excludes everything chosen so far.
  std::vector<uint64_t> Exclude;
  auto Take = [&](int Bits, size_t Count) {
    std::vector<uint64_t> Got = generateNttPrimes(Bits, TwoN, Count, Exclude);
    Exclude.insert(Exclude.end(), Got.begin(), Got.end());
    return Got;
  };

  QModuli = Take(P.LogFirstModulus, 1);
  if (P.NumRescaleModuli > 0) {
    // Rescale primes balanced around 2^LogScale keep the scale close to
    // Delta along the whole chain (bounding add-time scale drift).
    std::vector<uint64_t> Rescale = generateBalancedNttPrimes(
        P.LogScale, TwoN, static_cast<size_t>(P.NumRescaleModuli), Exclude);
    Exclude.insert(Exclude.end(), Rescale.begin(), Rescale.end());
    QModuli.insert(QModuli.end(), Rescale.begin(), Rescale.end());
  }
  size_t L = QModuli.size();
  size_t Alpha = keySwitchDigitSize(P);
  SpecialPrimes = Take(P.LogSpecialModulus, Alpha);

  std::vector<uint64_t> AllModuli = QModuli;
  AllModuli.insert(AllModuli.end(), SpecialPrimes.begin(),
                   SpecialPrimes.end());
  for (uint64_t Q : AllModuli)
    NttTables.push_back(std::make_unique<NttTable>(P.RingDegree, Q));

  // Rescale precomputation: inv(q_l) mod q_j for every (l, j < l).
  InvQLastModQ.resize(L);
  for (size_t Last = 0; Last < L; ++Last) {
    InvQLastModQ[Last].resize(Last);
    for (size_t J = 0; J < Last; ++J)
      InvQLastModQ[Last][J] =
          invMod(QModuli[Last] % QModuli[J], QModuli[J]);
  }

  SpecialModQ.resize(L);
  InvSpecialModQ.resize(L);
  for (size_t J = 0; J < L; ++J) {
    uint64_t PModQ = 1;
    for (uint64_t Special : SpecialPrimes)
      PModQ = mulMod(PModQ, Special % QModuli[J], QModuli[J]);
    SpecialModQ[J] = PModQ;
    InvSpecialModQ[J] = invMod(PModQ, QModuli[J]);
  }

  // ModUp: every prefix of every digit (the last digit of a ciphertext
  // below the top level is partial). ModDown: the whole special basis.
  ModUpConversions.resize(numDigits(L) * Alpha);
  for (size_t Digit = 0, E = numDigits(L); Digit < E; ++Digit) {
    size_t Begin = Digit * Alpha;
    for (size_t Count = 1; Count <= Alpha && Begin + Count <= L; ++Count)
      ModUpConversions[Digit * Alpha + Count - 1] = makeConversion(
          std::vector<uint64_t>(QModuli.begin() + Begin,
                                QModuli.begin() + Begin + Count),
          AllModuli);
  }
  ModDownConversion = makeConversion(SpecialPrimes, QModuli);

  Scale = std::ldexp(1.0, P.LogScale);
}

/// Reverses the low \p Bits bits of \p X.
static uint64_t reverseBits(uint64_t X, int Bits) {
  uint64_t Result = 0;
  for (int I = 0; I < Bits; ++I) {
    Result = (Result << 1) | (X & 1);
    X >>= 1;
  }
  return Result;
}

const std::vector<uint32_t> &
Context::galoisNttPermutation(uint64_t Galois) const {
  std::lock_guard<std::mutex> Lock(GaloisPermMutex);
  auto It = GaloisNttPerms.find(Galois);
  if (It != GaloisNttPerms.end())
    return It->second;

  size_t N = Params.RingDegree;
  uint64_t TwoN = 2 * N;
  assert(Galois % 2 == 1 && Galois < TwoN &&
         "Galois element must be an odd residue mod 2N");
  int LogN = 0;
  while ((size_t(1) << LogN) < N)
    ++LogN;

  // NTT slot i holds the evaluation at psi^(2*bitrev(i)+1); the
  // automorphism X -> X^Galois sends that evaluation point to
  // psi^(Galois*(2*bitrev(i)+1) mod 2N), whose slot index inverts the
  // same odd-exponent encoding. Galois is odd, so the product exponent
  // stays odd and the division below is exact.
  std::vector<uint32_t> Perm(N);
  for (size_t I = 0; I < N; ++I) {
    uint64_t Exp = (Galois * (2 * reverseBits(I, LogN) + 1)) % TwoN;
    Perm[I] = static_cast<uint32_t>(reverseBits((Exp - 1) / 2, LogN));
  }
  return GaloisNttPerms.emplace(Galois, std::move(Perm)).first->second;
}
