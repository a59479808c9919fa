#pragma once

// Seeded byte-string mutator for the binary-decoder fuzz tests (sweep wire
// frames, result logs). No libFuzzer: a fixed seed replays the exact same
// mutant sequence, so a failing mutant is reproduced by its seed and index.
//
// mutate() stacks 1-3 edits, each one of:
//   - flip: XOR 1-8 bytes (scattered, or one contiguous run) with nonzero
//     values
//   - splice: overwrite or insert a run copied from a donor string
//   - truncate: cut the string at a random point
//   - extend: append random bytes or a donor run
// Format-aware edits (length fields, CRC reseals) are the tests' job: they
// know the layouts; put_u32() writes a boundary-heavy value into a field.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "support/rng.hpp"

namespace repmpi::testing {

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_below(n));
  }
  bool coin(std::size_t one_in) { return below(one_in) == 0; }

  void mutate(std::string& s, const std::string& donor) {
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (below(4)) {
        case 0: flip(s); break;
        case 1: splice(s, donor); break;
        case 2: if (!s.empty()) s.resize(below(s.size())); break;
        case 3: extend(s, donor); break;
      }
    }
  }

  /// Overwrites the 4 bytes at `off` with an interesting value (no-op when
  /// they are past the end).
  void put_u32(std::string& s, std::size_t off, std::uint32_t near) {
    if (off + 4 > s.size()) return;
    const std::uint32_t v = interesting_u32(near);
    std::memcpy(s.data() + off, &v, sizeof(v));
  }

 private:
  /// Boundary-heavy 32-bit values for length/offset fields.
  std::uint32_t interesting_u32(std::uint32_t near) {
    switch (below(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 0xFFFFFFFFu;
      case 3: return 0x80000000u;
      case 4: return near - 1;
      case 5: return near + 1;
      case 6: return near + static_cast<std::uint32_t>(below(4096));
      default: return static_cast<std::uint32_t>(rng_.next_u64());
    }
  }

  char nonzero_byte() { return static_cast<char>(1 + below(255)); }

  void flip(std::string& s) {
    if (s.empty()) return;
    const std::size_t n = 1 + below(8);
    if (coin(2)) {  // one contiguous run
      const std::size_t at = below(s.size());
      for (std::size_t i = at; i < std::min(s.size(), at + n); ++i)
        s[i] ^= nonzero_byte();
    } else {
      for (std::size_t i = 0; i < n; ++i) s[below(s.size())] ^= nonzero_byte();
    }
  }

  void splice(std::string& s, const std::string& donor) {
    if (donor.empty()) return;
    const std::size_t from = below(donor.size());
    const std::size_t len = 1 + below(std::min<std::size_t>(
                                    donor.size() - from, 128));
    const std::string run = donor.substr(from, len);
    const std::size_t at = below(s.size() + 1);
    if (coin(2))
      s.insert(at, run);
    else
      s.replace(at, std::min(run.size(), s.size() - at), run);
  }

  void extend(std::string& s, const std::string& donor) {
    if (coin(2) && !donor.empty()) {
      const std::size_t from = below(donor.size());
      s += donor.substr(from, 1 + below(donor.size() - from));
      return;
    }
    const std::size_t n = 1 + below(64);
    for (std::size_t i = 0; i < n; ++i)
      s += static_cast<char>(rng_.next_below(256));
  }

  support::Rng rng_;
};

}  // namespace repmpi::testing
