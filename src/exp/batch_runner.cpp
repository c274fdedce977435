#include "exp/batch_runner.hpp"

namespace rthv::exp {

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {
  if (options_.jobs == 0) options_.jobs = hardware_jobs();
  if (options_.chunk == 0) options_.chunk = 1;
}

}  // namespace rthv::exp
