#pragma once
// Allocation counter for the zero-allocation suites.  alloc_hook.cpp
// replaces the global operator new/delete for every test binary; the hook
// counts calls on any thread, but only while a count_allocations body runs,
// so gtest's own bookkeeping never pollutes a measurement.

#include <functional>

namespace dirant::test {

/// Run `body` and return the number of operator-new calls it made.
long long count_allocations(const std::function<void()>& body);

}  // namespace dirant::test
