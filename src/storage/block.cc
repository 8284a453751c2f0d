#include "storage/block.h"

namespace capd {

uint64_t BlockSeed(uint64_t seed, uint64_t block_index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (block_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace capd
