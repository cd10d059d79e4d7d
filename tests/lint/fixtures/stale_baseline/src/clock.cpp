// Fixture: one wall-clock read, grandfathered by ../baseline.txt. The
// baseline also carries stale entries; see tests/lint/CMakeLists.txt.
#include <chrono>

namespace fixture {

long long stamp() {
  const auto now = std::chrono::steady_clock::now();
  return static_cast<long long>(now.time_since_epoch().count());
}

}  // namespace fixture
