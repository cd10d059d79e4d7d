// Fixture: two HOT_PATH_EXEMPT declarations in one class, the second under a
// doc comment. The reachable-set report must print each boundary with the
// reason written on its own declaration.
#include <cstdio>
#include <vector>

#include "core/hotpath.hpp"

namespace fx {

class Table {
 public:
  HOT_PATH void lookup(int key);

 private:
  HOT_PATH_EXEMPT(
      "first-sight growth: sizes the slot table once per new key, never per "
      "lookup")
  void grow(int key);

  /// Cold diagnostic for a key the table refuses.
  HOT_PATH_EXEMPT("cold diagnostic: logs a refused key; formatting stays off the hit path")
  void log_refusal(int key) const;

  std::vector<int> slots_;
};

void Table::lookup(int key) {
  if (key < 0) {
    log_refusal(key);
    return;
  }
  if (static_cast<std::size_t>(key) >= slots_.size()) grow(key);
}

void Table::grow(int key) { slots_.resize(static_cast<std::size_t>(key) + 1); }

void Table::log_refusal(int key) const { std::fprintf(stderr, "refused key %d\n", key); }

}  // namespace fx
