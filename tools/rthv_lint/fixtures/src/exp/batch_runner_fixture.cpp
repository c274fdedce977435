// Fixture: raw heap allocation in the batch engine. Warm recycling exists
// to keep 10k-run campaigns at O(pool) allocations, so the campaign runner
// must not mint heap cells per lease or per claimed chunk -- that
// would quietly rebuild the per-run malloc traffic SystemPool removed.
#include <cstdint>
#include <cstdlib>

std::uint64_t* fixture_batch_chunk_scratch(std::size_t runs) {
  std::uint64_t* per_chunk = new std::uint64_t[runs]; // rthv-lint-expect: no-hot-alloc
  void* raw = std::malloc(runs * 8);                  // rthv-lint-expect: no-hot-alloc
  std::free(raw);
  return per_chunk;
}
