// Link-time interposers for the traced binary (GNU ld --wrap, listed in
// CMakeLists.txt).  With --wrap=SYM every call to SYM from another object
// file resolves to __wrap_SYM, and __real_SYM names the original.  Each
// wrapper below times the original call and forwards its result
// unchanged, so the library runs exactly the code it runs untraced; only
// the timer reads are added.
//
// The wrapped symbols are member functions.  Under the Itanium C++ ABI a
// member function takes `this` as its first argument and returns like a
// free function of the same signature, so each is declared here as an
// extern "C" free function over the same types.
#include <optional>

#include "control/global_switchboard.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/load_balancer.hpp"
#include "dataplane/sharded_flow_table.hpp"
#include "trace.hpp"

namespace sb = switchboard;
using perfbench::trace::Layer;

namespace {

template <typename Fn>
auto timed(Layer layer, Fn&& fn) {
  if (!perfbench::trace::g_enabled) return fn();
  const std::uint64_t start = perfbench::now_ns();
  auto result = fn();
  perfbench::trace::timer(layer).add(perfbench::now_ns() - start);
  return result;
}

}  // namespace

extern "C" {

// GlobalSwitchboard::find_record(ChainId) const
const sb::control::ChainRecord*
__real__ZNK11switchboard7control17GlobalSwitchboard11find_recordENS_8StrongIdINS_8ChainTagEEE(
    const sb::control::GlobalSwitchboard* self, sb::ChainId chain);
const sb::control::ChainRecord*
__wrap__ZNK11switchboard7control17GlobalSwitchboard11find_recordENS_8StrongIdINS_8ChainTagEEE(
    const sb::control::GlobalSwitchboard* self, sb::ChainId chain) {
  return timed(Layer::kFindRecord, [&] {
    return __real__ZNK11switchboard7control17GlobalSwitchboard11find_recordENS_8StrongIdINS_8ChainTagEEE(
        self, chain);
  });
}

// Forwarder::process_from_wire(const Packet&)
sb::dataplane::ForwardAction
__real__ZN11switchboard9dataplane9Forwarder17process_from_wireERKNS0_6PacketE(
    sb::dataplane::Forwarder* self, const sb::dataplane::Packet& packet);
sb::dataplane::ForwardAction
__wrap__ZN11switchboard9dataplane9Forwarder17process_from_wireERKNS0_6PacketE(
    sb::dataplane::Forwarder* self, const sb::dataplane::Packet& packet) {
  return timed(Layer::kFwdCall, [&] {
    return __real__ZN11switchboard9dataplane9Forwarder17process_from_wireERKNS0_6PacketE(
        self, packet);
  });
}

// Forwarder::process_from_attached(Packet&)
sb::dataplane::ForwardAction
__real__ZN11switchboard9dataplane9Forwarder21process_from_attachedERNS0_6PacketE(
    sb::dataplane::Forwarder* self, sb::dataplane::Packet& packet);
sb::dataplane::ForwardAction
__wrap__ZN11switchboard9dataplane9Forwarder21process_from_attachedERNS0_6PacketE(
    sb::dataplane::Forwarder* self, sb::dataplane::Packet& packet) {
  return timed(Layer::kFwdCall, [&] {
    return __real__ZN11switchboard9dataplane9Forwarder21process_from_attachedERNS0_6PacketE(
        self, packet);
  });
}

// ShardedFlowTable::find(const Labels&, const FiveTuple&) const
std::optional<sb::dataplane::FlowEntry>
__real__ZNK11switchboard9dataplane16ShardedFlowTable4findERKNS0_6LabelsERKNS0_9FiveTupleE(
    const sb::dataplane::ShardedFlowTable* self,
    const sb::dataplane::Labels& labels, const sb::dataplane::FiveTuple& tuple);
std::optional<sb::dataplane::FlowEntry>
__wrap__ZNK11switchboard9dataplane16ShardedFlowTable4findERKNS0_6LabelsERKNS0_9FiveTupleE(
    const sb::dataplane::ShardedFlowTable* self,
    const sb::dataplane::Labels& labels,
    const sb::dataplane::FiveTuple& tuple) {
  return timed(Layer::kFlowFind, [&] {
    return __real__ZNK11switchboard9dataplane16ShardedFlowTable4findERKNS0_6LabelsERKNS0_9FiveTupleE(
        self, labels, tuple);
  });
}

// RuleTable::find(const Labels&) const
const sb::dataplane::LoadBalanceRule*
__real__ZNK11switchboard9dataplane9RuleTable4findERKNS0_6LabelsE(
    const sb::dataplane::RuleTable* self, const sb::dataplane::Labels& labels);
const sb::dataplane::LoadBalanceRule*
__wrap__ZNK11switchboard9dataplane9RuleTable4findERKNS0_6LabelsE(
    const sb::dataplane::RuleTable* self,
    const sb::dataplane::Labels& labels) {
  return timed(Layer::kRuleFind, [&] {
    return __real__ZNK11switchboard9dataplane9RuleTable4findERKNS0_6LabelsE(
        self, labels);
  });
}

// WeightedChoice::pick(std::uint64_t) const
sb::dataplane::ElementId
__real__ZNK11switchboard9dataplane14WeightedChoice4pickEm(
    const sb::dataplane::WeightedChoice* self, std::uint64_t selector);
sb::dataplane::ElementId
__wrap__ZNK11switchboard9dataplane14WeightedChoice4pickEm(
    const sb::dataplane::WeightedChoice* self, std::uint64_t selector) {
  return timed(Layer::kLbPick, [&] {
    return __real__ZNK11switchboard9dataplane14WeightedChoice4pickEm(self,
                                                                    selector);
  });
}

}  // extern "C"
