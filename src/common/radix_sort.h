#ifndef PRIVREC_COMMON_RADIX_SORT_H_
#define PRIVREC_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace privrec {

/// LSD byte-radix sort of unsigned integer keys, ascending. Branch-free
/// scatter passes (no per-element comparisons, so none of the mispredict
/// cost a comparison sort pays on tie-heavy keys); byte positions all keys
/// agree on are skipped, so node ids of an n-node graph cost
/// ~ceil(log256(n)) passes and a (count << 32 | node) key set adds
/// ~ceil(log256(max_count)). `tmp` is scratch (resized as needed; its
/// contents are unspecified afterwards). Shared by the 2-hop kernels'
/// finalize pre-sort and the zero-block support index.
template <typename Key>
void RadixSortKeys(std::vector<Key>& keys, std::vector<Key>& tmp) {
  static_assert(std::is_unsigned_v<Key>, "radix keys must be unsigned");
  constexpr int kBytes = static_cast<int>(sizeof(Key));
  const size_t n = keys.size();
  if (n < 2) return;
  // One histogram pass for all byte positions (the distribution is
  // permutation-invariant, so the histograms stay valid across passes).
  uint32_t hist[kBytes][256] = {};
  for (const Key key : keys) {
    for (int b = 0; b < kBytes; ++b) ++hist[b][(key >> (8 * b)) & 0xff];
  }
  if (tmp.size() < n) tmp.resize(n);
  Key* src = keys.data();
  Key* dst = tmp.data();
  for (int b = 0; b < kBytes; ++b) {
    // Skip bytes every key shares (one full bucket): the pass would be a
    // plain copy.
    if (hist[b][(src[0] >> (8 * b)) & 0xff] == n) continue;
    uint32_t pos[256];
    uint32_t run = 0;
    for (int i = 0; i < 256; ++i) {
      pos[i] = run;
      run += hist[b][i];
    }
    for (size_t i = 0; i < n; ++i) {
      dst[pos[(src[i] >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy(src, src + n, keys.data());
}

}  // namespace privrec

#endif  // PRIVREC_COMMON_RADIX_SORT_H_
