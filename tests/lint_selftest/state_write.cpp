// lint.py --self-test fixture for W1: the coordinator's journaled state
// changes only through its write helper (ControllerState::apply, then the
// journal append), so replay and the hot standbys run the same interpreter
// as the live path.  Exercises both directions: direct writes and mutable
// ChainRecord handles outside the helper are findings; reads, and writes
// inside write_record / restart_with, are not.  NOT compiled; scanned by
// the linter.
#include <cstdint>
#include <utility>
#include <vector>

namespace lint_fixture {

class Coordinator {
 public:
  Coordinator() {
    state_.epoch = 1;                                  // expect-lint: W1
  }

  // Direct writes: each one is a second, unjournaled interpreter.
  void allocate_bad() {
    const std::uint32_t id = state_.next_route_id++;   // expect-lint: W1
    ++state_.epoch;                                    // expect-lint: W1
    state_.inflight[{1, id}].prepared = true;          // expect-lint: W1
    state_.inflight.erase({1, id});                    // expect-lint: W1
    state_.chains.push_back(ChainRecord{});            // expect-lint: W1
    state_.dead_pools.at({0, 1}) += 2.0;               // expect-lint: W1
  }
  void handle_bad(ChainId id) {
    ChainRecord* rec = state_.find(id);                // expect-lint: W1
    rec->active = false;
  }

  // Reads: no findings.
  [[nodiscard]] std::uint64_t read_ok(ChainId id) const {
    const ChainRecord* rec = state_.find(id);
    if (state_.epoch == 0 || state_.inflight.count({1, 2}) > 0) return 0;
    return rec == nullptr ? state_.next_route_id : rec->routes.size();
  }

  // The helper and the wholesale adoption: exempt.
  void write_record(const JournalRecord& record) {
    state_.apply(record);
    journal_->append(encode(record));
  }
  void restart_with(ControllerState state) {
    state_ = std::move(state);
    ++state_.epoch;
  }

 private:
  ControllerState state_;
};

}  // namespace lint_fixture
