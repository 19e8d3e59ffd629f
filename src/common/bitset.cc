#include "common/bitset.h"

#include <sstream>

// POPCNT is an x86 extension.  Elsewhere std::popcount already compiles to
// the target's own instruction and the portable table is the only one.
#if defined(__x86_64__) || defined(__i386__)
#define HGM_POPCNT_TABLE 1
#else
#define HGM_POPCNT_TABLE 0
#endif

namespace hgm {

namespace popcount {
namespace {

// The loops, written once.  Each is forced inline into the per-table entry
// points below, so it is compiled under that entry point's target: there
// __builtin_popcountll becomes the POPCNT instruction in the hardware
// table and a libgcc __popcountdi2 call in the portable one.  Every loop
// works in 4-word blocks, so independent popcounts issue back to back; the
// capped ones hoist their early-exit compare to the block boundary.

[[gnu::always_inline]] inline size_t CountLoop(const uint64_t* a,
                                               size_t nw) {
  size_t c = 0;
  size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    c += static_cast<size_t>(__builtin_popcountll(a[i])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 1])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 2])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 3]));
  }
  for (; i < nw; ++i) c += static_cast<size_t>(__builtin_popcountll(a[i]));
  return c;
}

[[gnu::always_inline]] inline size_t CountCappedLoop(const uint64_t* a,
                                                     size_t nw, size_t cap) {
  if (cap == 0) return 0;
  size_t c = 0;
  size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    c += static_cast<size_t>(__builtin_popcountll(a[i])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 1])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 2])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 3]));
    if (c >= cap) return c;
  }
  for (; i < nw; ++i) c += static_cast<size_t>(__builtin_popcountll(a[i]));
  return c;
}

[[gnu::always_inline]] inline size_t AndCountLoop(const uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t nw) {
  size_t c = 0;
  size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 1] & b[i + 1])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 2] & b[i + 2])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 3] & b[i + 3]));
  }
  for (; i < nw; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c;
}

[[gnu::always_inline]] inline size_t AndCountCappedLoop(const uint64_t* a,
                                                        const uint64_t* b,
                                                        size_t nw,
                                                        size_t cap) {
  if (cap == 0) return 0;
  size_t c = 0;
  size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 1] & b[i + 1])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 2] & b[i + 2])) +
         static_cast<size_t>(__builtin_popcountll(a[i + 3] & b[i + 3]));
    if (c >= cap) return c;
  }
  for (; i < nw; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c;
}

// A block whose AND has gone to zero stops walking the chain early.
[[gnu::always_inline]] inline size_t ChainAndCountCappedLoop(
    const uint64_t* const* rows, size_t k, size_t nw, size_t cap) {
  if (cap == 0) return 0;
  const uint64_t* first = rows[0];
  size_t c = 0;
  size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    uint64_t w0 = first[i];
    uint64_t w1 = first[i + 1];
    uint64_t w2 = first[i + 2];
    uint64_t w3 = first[i + 3];
    for (size_t j = 1; j < k; ++j) {
      const uint64_t* r = rows[j];
      w0 &= r[i];
      w1 &= r[i + 1];
      w2 &= r[i + 2];
      w3 &= r[i + 3];
      if ((w0 | w1 | w2 | w3) == 0) break;
    }
    c += static_cast<size_t>(__builtin_popcountll(w0)) +
         static_cast<size_t>(__builtin_popcountll(w1)) +
         static_cast<size_t>(__builtin_popcountll(w2)) +
         static_cast<size_t>(__builtin_popcountll(w3));
    if (c >= cap) return c;
  }
  for (; i < nw; ++i) {
    uint64_t w = first[i];
    for (size_t j = 1; w != 0 && j < k; ++j) w &= rows[j][i];
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

size_t CountPortable(const uint64_t* a, size_t nw) {
  return CountLoop(a, nw);
}
size_t CountCappedPortable(const uint64_t* a, size_t nw, size_t cap) {
  return CountCappedLoop(a, nw, cap);
}
size_t AndCountPortable(const uint64_t* a, const uint64_t* b, size_t nw) {
  return AndCountLoop(a, b, nw);
}
size_t AndCountCappedPortable(const uint64_t* a, const uint64_t* b,
                              size_t nw, size_t cap) {
  return AndCountCappedLoop(a, b, nw, cap);
}
size_t ChainAndCountCappedPortable(const uint64_t* const* rows, size_t k,
                                   size_t nw, size_t cap) {
  return ChainAndCountCappedLoop(rows, k, nw, cap);
}

constexpr Kernels kPortable = {
    CountPortable,          CountCappedPortable,        AndCountPortable,
    AndCountCappedPortable, ChainAndCountCappedPortable,
};

#if HGM_POPCNT_TABLE
[[gnu::target("popcnt")]] size_t CountHw(const uint64_t* a, size_t nw) {
  return CountLoop(a, nw);
}
[[gnu::target("popcnt")]] size_t CountCappedHw(const uint64_t* a, size_t nw,
                                               size_t cap) {
  return CountCappedLoop(a, nw, cap);
}
[[gnu::target("popcnt")]] size_t AndCountHw(const uint64_t* a,
                                            const uint64_t* b, size_t nw) {
  return AndCountLoop(a, b, nw);
}
[[gnu::target("popcnt")]] size_t AndCountCappedHw(const uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t nw, size_t cap) {
  return AndCountCappedLoop(a, b, nw, cap);
}
[[gnu::target("popcnt")]] size_t ChainAndCountCappedHw(
    const uint64_t* const* rows, size_t k, size_t nw, size_t cap) {
  return ChainAndCountCappedLoop(rows, k, nw, cap);
}

constexpr Kernels kHardware = {
    CountHw, CountCappedHw, AndCountHw, AndCountCappedHw, ChainAndCountCappedHw,
};
#endif

}  // namespace

const Kernels& Portable() { return kPortable; }

const Kernels* Hardware() {
#if HGM_POPCNT_TABLE
  return &kHardware;
#else
  return nullptr;
#endif
}

namespace detail {

std::atomic<const Kernels*> g_active{nullptr};

const Kernels& Resolve() {
  const Kernels* chosen = &kPortable;
#if HGM_POPCNT_TABLE
  // The CPU model may not be initialized yet when this runs from another
  // translation unit's static constructor.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) chosen = &kHardware;
#endif
  // Racing first calls all store the same pointer.
  g_active.store(chosen, std::memory_order_relaxed);
  return *chosen;
}

}  // namespace detail
}  // namespace popcount

std::string Bitset::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  ForEach([&](size_t i) {
    if (!first) os << ", ";
    first = false;
    os << i;
  });
  os << "}";
  return os.str();
}

std::string Bitset::ToDenseString() const {
  std::string s(nbits_, '0');
  ForEach([&](size_t i) { s[i] = '1'; });
  return s;
}

std::string Bitset::Format(const std::vector<std::string>& names,
                           const std::string& sep) const {
  std::ostringstream os;
  bool first = true;
  ForEach([&](size_t i) {
    if (!first) os << sep;
    first = false;
    if (i < names.size()) {
      os << names[i];
    } else {
      os << "#" << i;
    }
  });
  if (first) os << "{}";
  return os.str();
}

}  // namespace hgm
