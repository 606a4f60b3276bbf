// control::ReplicaGroup — replicated controller journal with quorum acks
// and epoch-fenced hot failover (DESIGN.md §18).
//
// N controller incarnations ("replicas") each own a StateJournal over the
// deployment's DurableStore.  The leader — whichever replica the singleton
// GlobalSwitchboard currently embodies — streams every journal append over
// the reliable /ctl/repl/<from>_<to> topics; each follower decodes the
// record, applies it to its own ControllerState (the hot standby), appends
// it to its journal, folds it into an FNV-1a digest and acks its durable
// position (a record that does not decode or apply is dropped unacked and
// counted).  The coordinator's quorum gate holds every externally visible
// acknowledgment until a quorum has the triggering record durable.  Every
// replica compacts its own journal from its own state; a snapshot install
// (encoded from the leader's live state) goes only to a follower that
// stalled, restarted, or follows a new leader.
//
// Replicas beat on /health/ctl/replica_<r>; a FailureDetector sweeps them.
// A silent leader whose process is dead (a partition is only a counted
// false suspicion — the CP choice) triggers a deterministic election of
// the freshest live replica, max (epoch, applied seq, id), whose state
// GlobalSwitchboard::warm_failover() adopts: nothing is replayed, the
// epoch bump fences the old incarnation, followers get fresh installs and
// the §13 resolution sweep runs.  A leader restored before detection takes
// the cold_start() replay path — the contrast bench_fig13_recovery's
// `failover` series measures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bus/topic.hpp"
#include "common/thread_annotations.hpp"
#include "control/context.hpp"
#include "control/controller_state.hpp"
#include "control/failure_detector.hpp"
#include "control/global_switchboard.hpp"
#include "control/messages.hpp"
#include "control/state_journal.hpp"
#include "sim/durable_store.hpp"

namespace switchboard::control {

/// Synthetic SiteId keys for replica heartbeats — far above any real site
/// id, so replica liveness shares the detector sweep without collisions.
[[nodiscard]] inline SiteId replica_health_key(std::uint32_t replica) {
  return SiteId{0x7F000000u + replica};
}

struct ReplicationConfig {
  /// Per-replica journals are named "<journal.name>_r<i>".
  JournalConfig journal{};
  /// Quorum size counting the leader; 0 = majority (n/2 + 1).
  std::uint32_t quorum{0};
  /// Replica heartbeat / detector timing.  Detection latency is
  /// period * suspicion_threshold — the failover window's fixed part.
  FailureDetectorConfig detector{};
  /// Beat periods a live follower's ack may stall below the stream head
  /// before the leader re-syncs it with a snapshot install (heals gaps
  /// left by exhausted retransmit budgets after a partition).
  std::uint32_t repair_stall_beats{3};
};

class ReplicaGroup {
 public:
  /// `replica_sites[r]` hosts replica r; replica 0 is the initial leader
  /// and must be hosted at the GlobalSwitchboard's home site.  `global`
  /// must already be durable (enable_durability) — its journal is
  /// replaced by replica 0's journal at start().
  ReplicaGroup(ControlContext& context, GlobalSwitchboard& global,
               sim::DurableStore& store, std::vector<SiteId> replica_sites,
               ReplicationConfig config = {});

  /// Wires the hooks (journal observer, quorum gate), installs the base
  /// snapshot on every replica, subscribes the stream / ack topics, and
  /// starts heartbeats + the failure detector.  Call once, after the
  /// deployment is constructed and before any chain creation.
  void start();
  /// Stops heartbeats and the detector (both self-reschedule) so the
  /// simulator can drain.
  void stop();

  [[nodiscard]] std::uint32_t replica_count() const {
    return static_cast<std::uint32_t>(sites_.size());
  }
  [[nodiscard]] std::uint32_t quorum() const { return quorum_; }
  [[nodiscard]] std::uint32_t leader() const {
    const swb::MutexLock lock{mutex_};
    return leader_;
  }
  [[nodiscard]] SiteId site_of(std::uint32_t replica) const {
    return sites_.at(replica);
  }
  [[nodiscard]] StateJournal& journal(std::uint32_t replica) {
    const swb::MutexLock lock{mutex_};
    return *replicas_.at(replica).journal;
  }
  /// The replica's journaled state: the coordinator's own for the
  /// leader, the hot standby for a follower (empty while it is down).
  [[nodiscard]] const ControllerState& state(std::uint32_t replica) const {
    const swb::MutexLock lock{mutex_};
    return replica == leader_ ? global_.state() : replicas_.at(replica).state;
  }
  [[nodiscard]] std::uint64_t digest(std::uint32_t replica) const {
    const swb::MutexLock lock{mutex_};
    return replicas_.at(replica).digest;
  }
  [[nodiscard]] std::uint64_t leader_digest() const {
    const swb::MutexLock lock{mutex_};
    return replicas_.at(leader_).digest;
  }
  [[nodiscard]] bool replica_up(std::uint32_t replica) const {
    const swb::MutexLock lock{mutex_};
    return replicas_.at(replica).up;
  }
  [[nodiscard]] FailureDetector& detector() { return *detector_; }

  // --- fault-target entry points (wired by core::Deployment) -------------
  /// Marks a replica's process dead (crash).  A dead leader also takes
  /// the GlobalSwitchboard down; the election waits for heartbeat
  /// detection.
  void crash_replica(std::uint32_t replica);
  /// Crash-with-amnesia restore.  A restored leader (no election ran,
  /// or none was possible) takes the legacy cold_start() path — journal
  /// replay charged; a restored follower rebuilds its state from its own
  /// journal and, when a leader is live, is re-synced with a fresh
  /// snapshot install.
  void restore_replica(std::uint32_t replica);

  // --- observability -------------------------------------------------------
  [[nodiscard]] std::uint64_t records_streamed() const {
    const swb::MutexLock lock{mutex_};
    return records_streamed_;
  }
  [[nodiscard]] std::uint64_t elections() const {
    const swb::MutexLock lock{mutex_};
    return elections_;
  }
  [[nodiscard]] std::uint64_t cold_restarts() const {
    const swb::MutexLock lock{mutex_};
    return cold_restarts_;
  }
  [[nodiscard]] std::uint64_t snapshot_installs_sent() const {
    const swb::MutexLock lock{mutex_};
    return installs_sent_;
  }
  /// Compactions of the leader's journal (each follower compacts its own
  /// at the same stream positions unless an install reset its interval).
  [[nodiscard]] std::uint64_t replicated_compactions() const {
    return global_.compactions();
  }
  [[nodiscard]] std::uint64_t false_suspicions() const {
    const swb::MutexLock lock{mutex_};
    return false_suspicions_;
  }
  [[nodiscard]] std::uint64_t divergences() const {
    const swb::MutexLock lock{mutex_};
    return divergences_;
  }
  [[nodiscard]] std::uint64_t barriers_released() const {
    const swb::MutexLock lock{mutex_};
    return barriers_released_;
  }
  [[nodiscard]] std::uint64_t barriers_dropped() const {
    const swb::MutexLock lock{mutex_};
    return barriers_dropped_;
  }
  /// Replication frames dropped unapplied and unacked because a frame or
  /// one of its records did not parse, decode or apply.
  [[nodiscard]] std::uint64_t malformed_records() const {
    const swb::MutexLock lock{mutex_};
    return malformed_records_;
  }
  /// Mean barrier wait (journal append -> quorum durable), milliseconds.
  [[nodiscard]] double mean_quorum_ack_ms() const;
  /// Deterministic election trace: "t=<us>;winner=<r>;epoch=<e>\n" lines —
  /// the byte-identical-under-a-seed determinism artifact for failover.
  [[nodiscard]] std::string election_string() const {
    const swb::MutexLock lock{mutex_};
    return election_log_;
  }

  /// Divergence verifier for quiescent barriers and post-failover checks:
  /// every live, caught-up replica's digest and encoded state must equal
  /// the leader's, and every follower state audits clean.  Aborts via
  /// SWB_CHECK on violation.
  void verify_convergence() const;
  /// Audits group state (aborts via SWB_CHECK): leader is live or awaiting
  /// election, quorum within bounds, acked positions never ahead of the
  /// stream head, pending barriers ordered, counters consistent.
  void check_invariants() const;

 private:
  struct Replica {
    std::unique_ptr<StateJournal> journal;
    /// Follower hot standby (the leader's state lives in the coordinator).
    ControllerState state;
    /// Records applied since the last reset (bootstrap, install, restore)
    /// — the election trace's `applied=` figure.
    std::uint64_t applied_records{0};
    std::uint64_t digest{0};
    /// Highest contiguously applied stream seq (follower side).
    std::uint64_t applied_seq{0};
    /// Epoch this replica last installed/streamed under.
    std::uint64_t epoch_seen{0};
    bool up{true};
    /// Out-of-order records awaiting the gap: (epoch, seq) -> the line
    /// and its decoded form.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::pair<std::string, JournalRecord>>
        reorder;
    /// Leader-side view: highest seq this follower acked as durable.
    std::uint64_t acked{0};
    /// Leader-side repair: consecutive beat checks the follower's ack
    /// stalled below the stream head.
    std::uint32_t stalled_beats{0};
    std::uint64_t beat_seq{0};
  };

  struct Barrier {
    std::uint64_t seq{0};
    sim::SimTime created{0};
    std::function<void()> resume;
  };

  using Outbox = std::vector<std::pair<bus::Topic, std::string>>;

  // Hook bodies (installed on the GlobalSwitchboard by start()).
  void on_leader_append(const std::string& record);
  void on_quorum_gate(std::function<void()> resume);

  // Bus-facing handlers.
  void on_stream_frame(std::uint32_t to, const ReplicationFrame& frame);
  void on_ack_frame(std::uint32_t to, const ReplicationFrame& frame);
  void on_replica_suspected(std::uint32_t replica);

  void beat();
  void elect_and_promote() SWB_EXCLUDES(mutex_);
  /// Queues a full snapshot install from the current leader to each
  /// follower in `targets` (returned).  The frame is byte-identical for
  /// every follower, so the snapshot is encoded and serialized once.
  [[nodiscard]] Outbox push_installs_to(
      const std::vector<std::uint32_t>& targets) SWB_REQUIRES(mutex_);
  /// Installs the base snapshot into every replica's journal + state
  /// locally (bootstrap only — no messaging).
  void bootstrap_install() SWB_EXCLUDES(mutex_);
  /// A new leader incarnation: the stream restarts at seq 0 and every
  /// live follower is queued a fresh snapshot install (returned).
  [[nodiscard]] Outbox restart_stream() SWB_REQUIRES(mutex_);
  /// Queues a snapshot install to every live follower (returned).
  [[nodiscard]] Outbox push_installs() SWB_REQUIRES(mutex_);
  /// Drops the dead leader's pending barriers.
  void drop_leader_work() SWB_REQUIRES(mutex_);
  /// Publishes frames queued under the lock (never publish under it).
  void publish(Outbox outbox) SWB_EXCLUDES(mutex_);
  [[nodiscard]] bool quorum_satisfied(std::uint64_t seq) const
      SWB_REQUIRES(mutex_);
  /// Pops every satisfied barrier (in order) and returns their resumes to
  /// run outside the lock.
  [[nodiscard]] std::vector<std::function<void()>> collect_released_barriers()
      SWB_REQUIRES(mutex_);

  ControlContext& context_;
  GlobalSwitchboard& global_;
  sim::DurableStore& store_;
  std::vector<SiteId> sites_;
  ReplicationConfig config_;
  std::uint32_t quorum_{0};
  std::unique_ptr<FailureDetector> detector_;

  /// One lock covers group state, per-replica states, and counters.
  /// Contract: bus publishes, GlobalSwitchboard calls (warm_failover,
  /// cold_start), and barrier resumes NEVER run under it — handlers
  /// mutate state under the lock, collect the actions, and perform them
  /// after release (same discipline as FailureDetector).
  mutable swb::Mutex mutex_;
  std::vector<Replica> replicas_ SWB_GUARDED_BY(mutex_);
  std::uint32_t leader_ SWB_GUARDED_BY(mutex_){0};
  bool started_ SWB_GUARDED_BY(mutex_){false};
  /// Suppresses streaming of the epoch-bump record warm_failover /
  /// cold_start append while a promotion is rebuilding the leader.
  bool promoting_ SWB_GUARDED_BY(mutex_){false};
  std::uint64_t stream_seq_ SWB_GUARDED_BY(mutex_){0};
  std::deque<Barrier> pending_ SWB_GUARDED_BY(mutex_);
  sim::EventHandle beat_event_ SWB_GUARDED_BY(mutex_){};
  bool beating_ SWB_GUARDED_BY(mutex_){false};

  std::uint64_t records_streamed_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t elections_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t cold_restarts_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t installs_sent_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t false_suspicions_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t divergences_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t barriers_released_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t barriers_dropped_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t malformed_records_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t barrier_wait_us_total_ SWB_GUARDED_BY(mutex_){0};
  std::string election_log_ SWB_GUARDED_BY(mutex_);
};

}  // namespace switchboard::control
