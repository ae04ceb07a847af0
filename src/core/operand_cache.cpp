#include "core/operand_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/secded.hpp"
#include "inject/injector.hpp"
#include "util/env.hpp"

namespace ftgemm {

namespace {

/// FNV-1a over a bounded grid of sampled element bit patterns (corners
/// included by construction).  A cheap identity check, not a cryptographic
/// digest: mutations between grid points are invisible — the documented
/// reason resident_a is opt-in for operands the caller keeps stable.
template <typename T>
using StorageBits = std::conditional_t<
    sizeof(T) == 8, std::uint64_t,
    std::conditional_t<sizeof(T) == 4, std::uint32_t,
                       std::conditional_t<sizeof(T) == 2, std::uint16_t,
                                          std::uint8_t>>>;

template <typename T>
std::uint64_t fingerprint_operand(const T* a, index_t lda, bool trans,
                                  index_t m, index_t k) {
  using Bits = StorageBits<T>;
  constexpr index_t kGrid = 8;
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const index_t gi = std::min(kGrid, m);
  const index_t gp = std::min(kGrid, k);
  for (index_t si = 0; si < gi; ++si) {
    const index_t i = gi == 1 ? 0 : (m - 1) * si / (gi - 1);
    for (index_t sp = 0; sp < gp; ++sp) {
      const index_t p = gp == 1 ? 0 : (k - 1) * sp / (gp - 1);
      const T v = trans ? a[p + i * lda] : a[i + p * lda];
      Bits bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(std::uint64_t(bits));
    }
  }
  return h;
}

template <typename S, typename C>
OperandKey make_operand_key(const S* a, index_t lda, bool trans, C alpha,
                            const GemmPlan<S, C>& plan) {
  using Bits = StorageBits<C>;
  OperandKey key;
  key.ptr = reinterpret_cast<std::uintptr_t>(a);
  key.fingerprint = fingerprint_operand(a, lda, trans, plan.key.m,
                                        plan.key.k);
  key.m = plan.key.m;
  key.k = plan.key.k;
  key.lda = lda;
  key.trans = trans;
  Bits abits;
  std::memcpy(&abits, &alpha, sizeof(abits));
  key.alpha_bits = std::uint64_t(abits);
  key.isa = int(plan.isa);
  key.mr = plan.blocking.mr;
  key.kc = plan.blocking.kc;
  key.threads = plan.threads;
  return key;
}

/// Integrity sums over the packed elements' raw bit patterns, added as
/// wrapping unsigned integers: flipping bit b of one element moves its row
/// and column sum by 2^b modulo 2^width, never by zero, so the bit-exact
/// comparison below sees every single flip — including low mantissa bits a
/// floating-point sum would round away.  Integer addition is associative,
/// so any order the compiler vectorizes to gives the same sums.  The zero
/// padding of the ragged edge tile participates: a flip landing in padding
/// is caught too (it would feed the micro-kernels just the same).
template <typename S, typename C>
void integrity_sums(const ResidentAPayload<S, C>& pl,
                    typename ResidentAPayload<S, C>::Sum* rowchk,
                    typename ResidentAPayload<S, C>::Sum* colchk) {
  using Sum = typename ResidentAPayload<S, C>::Sum;
  std::fill(rowchk, rowchk + pl.tiles * pl.mr, Sum(0));
  std::fill(colchk, colchk + pl.k, Sum(0));
  for (index_t p = 0; p < pl.k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, pl.k - p);
    const S* base = pl.panel_at(p);
    for (index_t q = 0; q < pl.tiles; ++q) {
      const S* tile = base + q * (pl.mr * pinc);
      Sum* rc = rowchk + q * pl.mr;
      for (index_t kk = 0; kk < pinc; ++kk) {
        const S* col = tile + kk * pl.mr;
        Sum s = 0;
        for (index_t ii = 0; ii < pl.mr; ++ii) {
          StorageBits<S> bits;
          std::memcpy(&bits, col + ii, sizeof(bits));
          rc[ii] += Sum(bits);
          s += Sum(bits);
        }
        colchk[p + kk] += s;
      }
    }
  }
}

/// Recompute the integrity sums and compare bit-exactly against the stored
/// ones.  True = resident bytes are exactly what the fill wrote.  Scratch
/// is thread-local: this runs on every verified hit, and the serving hot
/// loop must not pay a heap allocation per call.
template <typename S, typename C>
bool verify_payload(const ResidentAPayload<S, C>& pl) {
  using Sum = typename ResidentAPayload<S, C>::Sum;
  thread_local std::vector<Sum> scratch;
  const std::size_t rlen = std::size_t(pl.tiles * pl.mr);
  const std::size_t clen = std::size_t(pl.k);
  if (scratch.size() < rlen + clen) scratch.resize(rlen + clen);
  Sum* rowchk = scratch.data();
  Sum* colchk = scratch.data() + rlen;
  integrity_sums(pl, rowchk, colchk);
  return std::memcmp(rowchk, pl.rowchk.data(), rlen * sizeof(Sum)) == 0 &&
         std::memcmp(colchk, pl.colchk.data(), clen * sizeof(Sum)) == 0;
}

/// Packed-panel storage of a shaped payload, in StorageT elements: exactly
/// elems() on the float paths (the int8 specialization is below).
template <typename S, typename C>
std::size_t panel_storage(const ResidentAPayload<S, C>& pl) {
  return pl.elems();
}

/// Encode one payload from the source operand into its shaped buffers: pack
/// every rank-KC panel (bit-identical bytes to what the executor's cold
/// pack_a_ft stores), reduce Ar in the cold path's per-thread partial
/// order, and fill the integrity sums.
template <typename S, typename C>
void fill_payload(ResidentAPayload<S, C>& pl, const S* a, index_t lda,
                  const GemmPlan<S, C>& plan) {
  const index_t m = pl.m, k = pl.k;
  const C alpha = pl.alpha;
  const OperandView<S> av{a, lda, pl.trans};
  const PackSet<S, C>& pk = plan.kernels.pack;

  // Packed values are pure per-element (alpha * element, zero padding), so
  // one whole-M pack per panel lays down the exact bytes any (thread, ic)
  // slab of the cold path would have packed into its private atilde.
  // Narrow storage keeps the *raw permuted bits* instead (pack_a_raw, alpha
  // not baked — half the resident footprint); the executor widens a slab
  // with PackSet::widen_a on every hit, which multiplies by alpha in the
  // same single fp32 rounding the cold convert-on-pack path performs.
  for (index_t p = 0; p < k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, k - p);
    S* dst = pl.panels.data() + std::size_t(pl.tiles * pl.mr) * std::size_t(p);
    if constexpr (std::is_same_v<S, C>) {
      pk.pack_a(av, 0, p, m, pinc, pl.mr, alpha, dst);
    } else {
      pk.pack_a_raw(av, 0, p, m, pinc, pl.mr, dst);
    }
  }

  // Ar: emulate the executor's reduction exactly — per-thread encode over
  // the MR-aligned M-partition, summed in ascending thread order — so a hit
  // under `plan.threads` workers reads the same bits a cold call computes.
  const int nt = plan.threads;
  std::vector<C> partials(std::size_t(nt) * std::size_t(k), C(0));
  double amax = 0.0;
  for (int t = 0; t < nt; ++t) {
    index_t ms = 0, mlen = 0;
    detail::partition_units(m, pl.mr, nt, t, ms, mlen);
    if (mlen > 0) {
      amax = std::max(amax, pk.encode_ar(av, ms, mlen, k, alpha,
                                         partials.data() +
                                             std::size_t(t) * std::size_t(k)));
    }
  }
  for (index_t p = 0; p < k; ++p) {
    C sum = C(0);
    for (int t = 0; t < nt; ++t)
      sum += partials[std::size_t(t) * std::size_t(k) + std::size_t(p)];
    pl.ar[std::size_t(p)] = sum;
  }
  pl.amax_a = amax;

  integrity_sums(pl, pl.rowchk.data(), pl.colchk.data());
}

/// int8 payloads break both generic encoders' assumptions — panels hold
/// *biased u8 bytes* in the depth-quad layout (kernels/kernel_int8.hpp), not
/// ComputeT elements in [kk][mr] order, and the last panel is quad-padded
/// beyond tiles*mr*k bytes when k % 4 != 0 — so they get their own
/// specializations.  The integrity row sums ARE the executor's arow vector
/// (per-packed-row u8 totals; quad padding is raw zero, contributing
/// nothing), which is why the int8 hit path copies rowchk straight into
/// ctx.arow() instead of re-deriving it.  Sums are exact integers: verify
/// stays the bit-exact memcmp, and the Ar encode needs no per-thread
/// partial-order emulation (integer addition is order-independent).
template <>
void integrity_sums<std::int8_t, std::int32_t>(
    const ResidentAPayload<std::int8_t, std::int32_t>& pl,
    std::int32_t* rowchk, std::int32_t* colchk) {
  std::fill(rowchk, rowchk + pl.tiles * pl.mr, std::int32_t(0));
  std::fill(colchk, colchk + pl.k, std::int32_t(0));
  for (index_t p = 0; p < pl.k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, pl.k - p);
    const auto* base = reinterpret_cast<const std::uint8_t*>(pl.panel_at(p));
    const index_t tile_bytes = i8_tile_bytes(pinc, pl.mr);
    const index_t kq = i8_kq(pinc);
    for (index_t q = 0; q < pl.tiles; ++q) {
      const std::uint8_t* tile = base + q * tile_bytes;
      std::int32_t* rc = rowchk + q * pl.mr;
      for (index_t kk4 = 0; kk4 < kq; ++kk4) {
        const std::uint8_t* quad = tile + kk4 * pl.mr * kI8KQuad;
        for (index_t i = 0; i < pl.mr; ++i) {
          for (index_t u = 0; u < kI8KQuad; ++u) {
            const std::int32_t v = quad[i * kI8KQuad + u];
            rc[i] += v;
            // Quad-padding depths have no colchk index; a flip there is
            // still caught by the row sum above.
            const index_t kk = kk4 * kI8KQuad + u;
            if (kk < pinc) colchk[p + kk] += v;
          }
        }
      }
    }
  }
}

/// Byte-accurate int8 panel storage: every full panel occupies exactly
/// tiles*mr*kc bytes (kc is a quad multiple, so panel_at's tiles*mr*p offset
/// is exact), but a ragged last panel is quad-padded to
/// tiles*mr*i8_kq(pinc)*4 — which exceeds the elems() = tiles*mr*k estimate
/// the generic payload geometry assumes.  elems()/bytes() then understate
/// slightly (harmless: injected flips stay inside elems() by the plan_flips
/// contract, accounting is conservative); the allocation must not.
template <>
std::size_t panel_storage<std::int8_t, std::int32_t>(
    const ResidentAPayload<std::int8_t, std::int32_t>& pl) {
  std::size_t panel_bytes = 0;
  for (index_t p = 0; p < pl.k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, pl.k - p);
    panel_bytes +=
        std::size_t(pl.tiles) * std::size_t(i8_tile_bytes(pinc, pl.mr));
  }
  return panel_bytes;
}

template <>
void fill_payload<std::int8_t, std::int32_t>(
    ResidentAPayload<std::int8_t, std::int32_t>& pl, const std::int8_t* a,
    index_t lda, const GemmPlan<std::int8_t, std::int32_t>& plan) {
  // pl.alpha is always 1 on this path; the scales live outside the cache.
  const index_t m = pl.m, k = pl.k;
  const OperandView<std::int8_t> av{a, lda, pl.trans};
  const PackSet<std::int8_t, std::int32_t>& pk = plan.kernels.pack;

  for (index_t p = 0; p < k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, k - p);
    auto* dst = reinterpret_cast<std::uint8_t*>(pl.panels.data()) +
                std::size_t(pl.tiles * pl.mr) * std::size_t(p);
    // arow sink stays null: the integrity row sums below double as arow.
    pk.pack_a(av, 0, p, m, pinc, pl.mr, dst, nullptr);
  }

  std::fill(pl.ar.data(), pl.ar.data() + k, std::int32_t(0));
  pk.encode_ar(av, 0, m, 0, k, pl.ar.data());
  pl.amax_a = 0.0;  // exact path: no tolerance model, no amax

  integrity_sums(pl, pl.rowchk.data(), pl.colchk.data());
}

/// A payload for (trans, alpha, plan) with its geometry set and every
/// buffer allocated — the SEC-DED parity too when `ecc` — so bytes() is
/// final before a byte of it is encoded.
template <typename S, typename C>
std::shared_ptr<ResidentAPayload<S, C>> shape_payload(
    bool trans, C alpha, const GemmPlan<S, C>& plan, bool ecc) {
  auto pl = std::make_shared<ResidentAPayload<S, C>>();
  pl->m = plan.key.m;
  pl->k = plan.key.k;
  pl->mr = plan.blocking.mr;
  pl->kc = plan.blocking.kc;
  pl->trans = trans;
  pl->alpha = alpha;
  pl->tiles = (pl->m + pl->mr - 1) / pl->mr;
  pl->panels.reset(panel_storage(*pl));
  pl->ar.reset(std::size_t(pl->k));
  pl->rowchk.reset(std::size_t(pl->tiles * pl->mr));
  pl->colchk.reset(std::size_t(pl->k));
  // Parity covers the whole allocation: int8 payloads include the
  // quad-padded tail, since its bytes feed the kernels just like live ones.
  if (ecc) pl->ecc.reset(secded::parity_bytes(pl->panels.size() * sizeof(S)));
  return pl;
}

/// Fill a shaped payload from the source operand, SEC-DED parity included.
template <typename S, typename C>
void encode_payload(ResidentAPayload<S, C>& pl, const S* a, index_t lda,
                    const GemmPlan<S, C>& plan) {
  fill_payload(pl, a, lda, plan);
  if (pl.ecc.size() > 0) {
    secded::encode_buffer(
        reinterpret_cast<const unsigned char*>(pl.panels.data()),
        pl.panels.size() * sizeof(S), pl.ecc.data());
  }
}

}  // namespace

template <typename S, typename C>
OperandCache<S, C>::OperandCache()
    : OperandCache(
          std::size_t(std::max<long>(
              env_long("FTGEMM_OPERAND_CACHE_ENTRIES", long(kDefaultCapacity)),
              1)),
          std::size_t(std::max<long>(
              env_long("FTGEMM_OPERAND_CACHE_BYTES",
                       long(kDefaultByteCapacity)),
              1))) {}

template <typename S, typename C>
OperandCache<S, C>::OperandCache(std::size_t capacity,
                                 std::size_t byte_capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      byte_capacity_(byte_capacity > 0 ? byte_capacity : 1),
      ecc_(env_long("FTGEMM_OPERAND_ECC", 0) != 0) {}

template <typename S, typename C>
void OperandCache<S, C>::evict_to_caps_locked() {
  // Keep at least the most recent entry: a single payload above the byte
  // cap must still serve the call that just encoded it.  Slot::bytes is
  // immutable, so no slot mutex is taken here (hit processing holds the
  // slot mutex and then the cache mutex for counters — never the reverse).
  while (lru_.size() > 1 &&
         (lru_.size() > capacity_ || bytes_ > byte_capacity_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

template <typename S, typename C>
ResidentAcquisition<S, C> OperandCache<S, C>::acquire(
    const S* a, index_t lda, bool trans, C alpha,
    const GemmPlan<S, C>& plan, MemoryFaultInjector* mem_injector,
    bool verify) {
  ResidentAcquisition<S, C> out;
  const OperandKey key = make_operand_key(a, lda, trans, alpha, plan);

  std::shared_ptr<Slot> slot;
  const auto take_hit = [&](typename std::list<Entry>::iterator entry) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, entry);
    slot = entry->second;
    out.hit = true;
  };
  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = index_.find(key);
    if (it != index_.end()) take_hit(it->second);
  }

  if (!slot) {
    // Miss: publish the slot before encoding, holding its mutex, so every
    // later acquirer of the key counts as a hit and waits below for this
    // one encode instead of encoding the operand again.  The O(m*k) encode
    // itself runs outside the cache lock (it must not serialize unrelated
    // submitters), and the lock order stays slot, then cache.  The payload
    // is shaped first: the eviction sweep reads Slot::bytes without the
    // slot mutex.
    auto payload = shape_payload(trans, alpha, plan, ecc());
    auto fresh = std::make_shared<Slot>();
    fresh->bytes = payload->bytes();
    std::unique_lock<std::mutex> fresh_lk(fresh->m);
    {
      std::lock_guard<std::mutex> lk(m_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        take_hit(it->second);  // published since the lookup above
      } else {
        ++misses_;
        lru_.emplace_front(key, fresh);
        index_[key] = lru_.begin();
        bytes_ += fresh->bytes;
        evict_to_caps_locked();
      }
    }
    if (!slot) {
      encode_payload(*payload, a, lda, plan);
      fresh->payload = payload;
      out.payload = std::move(payload);
      return out;
    }
  }

  // Hit (after waiting out the encode when the slot is still being
  // filled): inject planned memory faults, then (with ECC) syndrome-sweep,
  // then CHECK_BEFORE-verify and heal.  Serialized per entry so an injected
  // flip and a concurrent sweep never race on the payload bytes.
  std::lock_guard<std::mutex> slot_lk(slot->m);
  std::shared_ptr<const Payload> payload = slot->payload;
  if (mem_injector != nullptr && payload) {
    const MemoryStrikeContext mctx{MemorySurface::kResidentPanel,
                                   payload->elems(), int(8 * sizeof(S))};
    std::vector<PanelFlip> flips;
    mem_injector->plan_flips(mctx, flips);
    if (!flips.empty()) {
      // Test-only corruption of the (logically immutable) resident bytes —
      // the very event the defenses below exist to catch.
      S* data = const_cast<S*>(payload->panels.data());
      for (const PanelFlip& f : flips) {
        // plan_flips' canonicalized contract: in range, unique.
        assert(f.elem < payload->elems() &&
               std::size_t(f.bit) < 8 * sizeof(S));
        flip_value_bit(data[f.elem], f.bit);
      }
      mem_injector->record_applied(flips.size());
    }
  }
  // SEC-DED sweep: corrects any single flipped bit per 64-bit word in
  // place — no re-encode, no source-operand read.  A double-detect (or a
  // multi-bit alias that "corrected" the wrong bit) falls through to the
  // integrity re-verify, which forces the re-encode heal.
  bool ecc_uncorrectable = false;
  if (payload && payload->ecc.size() > 0) {
    auto* bytes = const_cast<unsigned char*>(
        reinterpret_cast<const unsigned char*>(payload->panels.data()));
    auto* parity = const_cast<std::uint8_t*>(payload->ecc.data());
    const secded::ScrubResult scrub = secded::scrub_buffer(
        bytes, payload->panels.size() * sizeof(S), parity);
    out.ecc_corrected = int(scrub.corrected + scrub.parity_fixed);
    ecc_uncorrectable = scrub.uncorrectable > 0;
    if (out.ecc_corrected > 0 || ecc_uncorrectable) {
      std::lock_guard<std::mutex> lk(m_);
      ecc_corrected_ += scrub.corrected + scrub.parity_fixed;
      ecc_detected_ += scrub.uncorrectable;
    }
  }
  if (payload && (verify || ecc_uncorrectable)) {
    if (verify) {
      std::lock_guard<std::mutex> lk(m_);
      ++verifies_;
    }
    const bool ok =
        !ecc_uncorrectable && (!verify || verify_payload(*payload));
    if (!ok) {
      // Memory fault detected: re-encode from the source and swap the
      // healed payload into the slot (self-healing).  The heal restores
      // the ECC protection the old payload carried.
      auto fresh = shape_payload(trans, alpha, plan, payload->ecc.size() > 0);
      encode_payload(*fresh, a, lda, plan);
      slot->payload = fresh;
      payload = std::move(fresh);
      out.heals = 1;
      std::lock_guard<std::mutex> lk(m_);
      ++heals_;
    }
  }
  out.payload = std::move(payload);
  return out;
}

template <typename S, typename C>
void OperandCache<S, C>::clear() {
  std::lock_guard<std::mutex> lk(m_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

template <typename S, typename C>
OperandCacheStats OperandCache<S, C>::stats() {
  std::lock_guard<std::mutex> lk(m_);
  OperandCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.verifies = verifies_;
  s.heals = heals_;
  s.ecc_corrected = ecc_corrected_;
  s.ecc_detected = ecc_detected_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

template class OperandCache<float>;
template class OperandCache<double>;
template class OperandCache<bf16_t, float>;
template class OperandCache<fp16_t, float>;
template class OperandCache<std::int8_t, std::int32_t>;

template <typename S, typename C>
ResidentOperand make_resident_a(Trans ta, Trans tb, index_t m, index_t n,
                                index_t k, C alpha, const S* a, index_t lda,
                                const Options& opts, bool ft) {
  ResidentOperand handle;
  if (m <= 0 || n <= 0 || k <= 0 || alpha == C(0) || a == nullptr)
    return handle;
  ContextCache<S, C>& cache = process_context_cache<S, C>();
  const std::shared_ptr<const GemmPlan<S, C>> plan =
      cache.plan(ta, tb, m, n, k, opts, ft);
  ResidentAcquisition<S, C> acq = cache.operands().acquire(
      a, lda, ta == Trans::kTrans, alpha, *plan, nullptr, false);
  handle.bytes_ = acq.payload ? acq.payload->bytes() : 0;
  handle.hit_ = acq.hit;
  handle.hold_ = std::move(acq.payload);
  return handle;
}

template ResidentOperand make_resident_a<float>(Trans, Trans, index_t,
                                                index_t, index_t, float,
                                                const float*, index_t,
                                                const Options&, bool);
template ResidentOperand make_resident_a<double>(Trans, Trans, index_t,
                                                 index_t, index_t, double,
                                                 const double*, index_t,
                                                 const Options&, bool);
template ResidentOperand make_resident_a<bf16_t, float>(
    Trans, Trans, index_t, index_t, index_t, float, const bf16_t*, index_t,
    const Options&, bool);
template ResidentOperand make_resident_a<fp16_t, float>(
    Trans, Trans, index_t, index_t, index_t, float, const fp16_t*, index_t,
    const Options&, bool);
template ResidentOperand make_resident_a<std::int8_t, std::int32_t>(
    Trans, Trans, index_t, index_t, index_t, std::int32_t, const std::int8_t*,
    index_t, const Options&, bool);

}  // namespace ftgemm
