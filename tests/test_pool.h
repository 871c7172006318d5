#ifndef GRANMINE_TESTS_TEST_POOL_H_
#define GRANMINE_TESTS_TEST_POOL_H_

#include <memory>

#include "granmine/common/executor.h"

namespace granmine {

/// The pool a width-`threads` differential borrows: null (the serial path,
/// as a one-thread Engine leaves it) for 1, else an Executor of that width.
inline std::unique_ptr<Executor> PoolOf(int threads) {
  return threads > 1 ? std::make_unique<Executor>(threads) : nullptr;
}

}  // namespace granmine

#endif  // GRANMINE_TESTS_TEST_POOL_H_
