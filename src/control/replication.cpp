#include "control/replication.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "bus/topic.hpp"
#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {
namespace {

// FNV-1a over every applied record (terminated like the journal lines it
// folds) — the cheap, order-sensitive convergence fingerprint each
// replica maintains and acks carry for cross-checking.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fold_record(std::uint64_t digest, const std::string& record) {
  for (const char c : record) {
    digest ^= static_cast<unsigned char>(c);
    digest *= kFnvPrime;
  }
  digest ^= static_cast<unsigned char>('\n');
  digest *= kFnvPrime;
  return digest;
}

std::uint64_t fold_records(std::uint64_t digest,
                           const std::vector<std::string>& records) {
  for (const std::string& record : records) {
    digest = fold_record(digest, record);
  }
  return digest;
}

}  // namespace

ReplicaGroup::ReplicaGroup(ControlContext& context, GlobalSwitchboard& global,
                           sim::DurableStore& store,
                           std::vector<SiteId> replica_sites,
                           ReplicationConfig config)
    : context_{context},
      global_{global},
      store_{store},
      sites_{std::move(replica_sites)},
      config_{std::move(config)} {
  SWB_CHECK(!sites_.empty()) << "replica group with no replicas";
  SWB_CHECK(sites_[0] == global_.home_site())
      << "replica 0 must be hosted at the controller site";
  const auto n = static_cast<std::uint32_t>(sites_.size());
  quorum_ = config_.quorum != 0 ? config_.quorum : n / 2 + 1;
  SWB_CHECK_GE(quorum_, 1u);
  SWB_CHECK_LE(quorum_, n);

  const swb::MutexLock lock{mutex_};
  for (std::uint32_t r = 0; r < n; ++r) {
    Replica replica;
    JournalConfig journal_config = config_.journal;
    journal_config.name += "_r" + std::to_string(r);
    replica.journal =
        std::make_unique<StateJournal>(store_, journal_config);
    replicas_.push_back(std::move(replica));
  }
  detector_ = std::make_unique<FailureDetector>(context_, sites_[0],
                                                config_.detector);
}

void ReplicaGroup::start() {
  StateJournal* leader_journal = nullptr;
  {
    const swb::MutexLock lock{mutex_};
    SWB_CHECK(!started_) << "replica group started twice";
    started_ = true;
    leader_journal = replicas_.front().journal.get();
  }

  // Replica 0 becomes the leader's journal: the coordinator writes through
  // it from here on (the base snapshot is persisted by enable_durability).
  global_.enable_durability(leader_journal);
  bootstrap_install();

  global_.set_journal_observer(
      [this](const std::string& record) { on_leader_append(record); });
  global_.set_quorum_gate(
      [this](std::function<void()> resume) {
        on_quorum_gate(std::move(resume));
      });

  // Every replica pair gets its stream + ack subscription up front (role
  // changes at failover never need new subscriptions, so retained-frame
  // replays to late subscribers cannot happen).
  // A frame that does not parse is dropped and counted.
  const auto deliver = [this](std::uint32_t to, auto handler) {
    return [this, to, handler](const bus::Message& message) {
      const auto frame = parse_replication(message.payload);
      if (frame) return (this->*handler)(to, *frame);
      const swb::MutexLock lock{mutex_};
      ++malformed_records_;
    };
  };
  const auto n = static_cast<std::uint32_t>(sites_.size());
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      if (from == to) continue;
      context_.bus.subscribe(
          sites_[to], bus::replication_stream_topic(from, to, sites_[from]),
          deliver(to, &ReplicaGroup::on_stream_frame));
      context_.bus.subscribe(
          sites_[to], bus::replication_ack_topic(from, to, sites_[from]),
          deliver(to, &ReplicaGroup::on_ack_frame));
    }
  }

  // Liveness: every replica beats on its own transient topic; one sweep
  // covers them all.  Election fires only on a *dead* leader's silence.
  for (std::uint32_t r = 0; r < n; ++r) {
    detector_->watch_heartbeats(replica_health_key(r),
                                bus::replica_health_topic(r, sites_[r]));
  }
  detector_->set_site_down_callback([this](SiteId key) {
    SWB_CHECK_GE(key.value(), replica_health_key(0).value());
    on_replica_suspected(key.value() - replica_health_key(0).value());
  });
  detector_->start();
  {
    const swb::MutexLock lock{mutex_};
    beating_ = true;
    beat_event_ = context_.sim.schedule(config_.detector.period,
                                        [this] { beat(); });
  }
}

void ReplicaGroup::stop() {
  detector_->stop();
  const swb::MutexLock lock{mutex_};
  beating_ = false;
  if (beat_event_.valid()) {
    context_.sim.cancel(beat_event_);
    beat_event_ = sim::EventHandle{};
  }
}

void ReplicaGroup::bootstrap_install() {
  const std::vector<std::string> base = global_.state().encode_snapshot();
  const std::uint64_t digest = fold_records(kFnvOffset, base);
  const std::uint64_t epoch = global_.epoch();
  Result<ControllerState> standby = ControllerState::replay(base);
  SWB_CHECK(standby.ok()) << standby.error().to_string();
  const swb::MutexLock lock{mutex_};
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    Replica& replica = replicas_[r];
    // Replica 0's journal already holds the base snapshot (it is the
    // leader's own journal, and its state is the coordinator's);
    // followers get a verbatim copy.
    if (r != 0) {
      replica.journal->write_snapshot(base);
      replica.state = standby.value();
    }
    replica.applied_records = base.size();
    replica.digest = digest;
    replica.epoch_seen = epoch;
  }
}

void ReplicaGroup::on_leader_append(const std::string& record) {
  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    Replica& self = replicas_[leader_];
    ++self.applied_records;
    self.digest = fold_record(self.digest, record);
    if (promoting_) return;   // epoch bump mid-promotion: install follows
    ++stream_seq_;
    self.applied_seq = stream_seq_;
    self.epoch_seen = global_.epoch();
    const std::string payload =
        serialize(ReplicationFrame{ReplicationKind::kRecord, leader_,
                                   global_.epoch(), stream_seq_, self.digest,
                                   {record}});
    for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
      if (f == leader_ || !replicas_[f].up) continue;
      ++records_streamed_;
      outbox.emplace_back(
          bus::replication_stream_topic(leader_, f, sites_[leader_]),
          payload);
    }
  }
  publish(std::move(outbox));
}

void ReplicaGroup::on_quorum_gate(std::function<void()> resume) {
  bool immediate = false;
  {
    const swb::MutexLock lock{mutex_};
    if (pending_.empty() && quorum_satisfied(stream_seq_)) {
      // Already durable on a quorum (single-replica groups, or a barrier
      // raised after the acks caught up) — and nothing queued ahead.
      ++barriers_released_;
      immediate = true;
    } else {
      pending_.push_back(
          Barrier{stream_seq_, context_.sim.now(), std::move(resume)});
    }
  }
  if (immediate) resume();
}

ReplicaGroup::Outbox ReplicaGroup::push_installs_to(
    const std::vector<std::uint32_t>& targets) {
  Outbox outbox;
  if (targets.empty()) return outbox;
  // Snapshot of the leader's state *now*: followers installing it land at
  // stream position stream_seq_ with the leader's current digest.
  const std::string payload = serialize(ReplicationFrame{
      ReplicationKind::kSnapshotInstall, leader_, global_.epoch(),
      stream_seq_, replicas_[leader_].digest,
      global_.state().encode_snapshot()});
  for (const std::uint32_t to : targets) {
    ++installs_sent_;
    replicas_[to].stalled_beats = 0;
    outbox.emplace_back(
        bus::replication_stream_topic(leader_, to, sites_[leader_]), payload);
  }
  return outbox;
}

void ReplicaGroup::on_stream_frame(std::uint32_t to,
                                   const ReplicationFrame& frame) {
  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    Replica& replica = replicas_[to];
    // A dead process hears nothing; the leader follows nobody (a stale
    // stream from a deposed leader is fenced by the epoch check anyway).
    if (!replica.up || to == leader_) return;
    if (frame.epoch < replica.epoch_seen) return;   // zombie-leader frame

    if (frame.kind == ReplicationKind::kSnapshotInstall) {
      // An install that does not replay is dropped unacked and counted.
      Result<ControllerState> installed =
          ControllerState::replay(frame.records);
      if (!installed.ok()) {
        ++malformed_records_;
        return;
      }
      replica.journal->write_snapshot(frame.records);
      replica.state = std::move(installed).value();
      replica.applied_records = frame.records.size();
      replica.digest = frame.digest;
      replica.applied_seq = frame.seq;
      replica.epoch_seen = frame.epoch;
      // Drop reorder entries the install supersedes; older epochs die.
      std::erase_if(replica.reorder, [&](const auto& entry) {
        return entry.first.first < frame.epoch ||
               (entry.first.first == frame.epoch &&
                entry.first.second <= frame.seq);
      });
      outbox.emplace_back(
          bus::replication_ack_topic(to, frame.from, sites_[to]),
          serialize(ReplicationFrame{ReplicationKind::kSnapshotAck, to,
                                     frame.epoch, frame.seq, replica.digest,
                                     {}}));
    } else if (frame.kind == ReplicationKind::kRecord) {
      // A record that does not decode is dropped unapplied and unacked.
      Result<JournalRecord> record =
          frame.records.size() == 1 ? decode(frame.records.front())
                                    : Error{ErrorCode::kInvalidArgument, ""};
      if (!record.ok()) {
        ++malformed_records_;
        return;
      }
      if (frame.epoch == replica.epoch_seen &&
          frame.seq <= replica.applied_seq) {
        // Duplicate (retransmit raced its ack) — re-ack, apply nothing.
      } else {
        replica.reorder[{frame.epoch, frame.seq}] = {
            frame.records.front(), std::move(record).value()};
      }
      // Apply in order: records for a future epoch stay buffered until
      // that epoch's snapshot install arrives and moves epoch_seen.
      for (auto it = replica.reorder.find(
               {replica.epoch_seen, replica.applied_seq + 1});
           it != replica.reorder.end();
           it = replica.reorder.find(
               {replica.epoch_seen, replica.applied_seq + 1})) {
        const auto& [line, decoded] = it->second;
        if (!replica.state.apply(decoded).ok()) {
          // Never acked: the follower stalls at the gap until the
          // leader's repair install re-syncs it.
          ++malformed_records_;
          replica.reorder.erase(it);
          break;
        }
        replica.journal->append(line);
        // Each replica compacts its own journal from its own state, which
        // equals the leader's at this stream position.
        if (replica.journal->wants_snapshot()) {
          replica.journal->write_snapshot(replica.state.encode_snapshot());
        }
        replica.digest = fold_record(replica.digest, line);
        ++replica.applied_records;
        ++replica.applied_seq;
        replica.reorder.erase(it);
      }
      outbox.emplace_back(
          bus::replication_ack_topic(to, frame.from, sites_[to]),
          serialize(ReplicationFrame{ReplicationKind::kAck, to,
                                     replica.epoch_seen, replica.applied_seq,
                                     replica.digest, {}}));
    }
  }
  publish(std::move(outbox));
}

void ReplicaGroup::on_ack_frame(std::uint32_t to,
                                const ReplicationFrame& frame) {
  std::vector<std::function<void()>> resumes;
  {
    const swb::MutexLock lock{mutex_};
    // Only the current leader consumes acks, and only for its own epoch —
    // acks addressed to a deposed incarnation are fenced here exactly
    // like its own continuations are fenced by the epoch guard.
    if (to != leader_ || !replicas_[to].up) return;
    if (frame.epoch != global_.epoch()) return;
    if (frame.from >= replicas_.size() || frame.from == leader_) return;
    Replica& follower = replicas_[frame.from];
    if (frame.seq > follower.acked) {
      follower.acked = frame.seq;
      follower.stalled_beats = 0;
    }
    // Divergence cross-check at the quiescent point: a follower claiming
    // the leader's exact stream position must carry its exact digest.
    if (frame.seq == stream_seq_ &&
        frame.digest != replicas_[leader_].digest) {
      ++divergences_;
      SB_LOG(kWarn) << "replication: follower " << frame.from
                    << " digest diverged at seq " << frame.seq;
    }
    resumes = collect_released_barriers();
  }
  for (auto& resume : resumes) resume();
}

bool ReplicaGroup::quorum_satisfied(std::uint64_t seq) const {
  std::uint32_t durable = 1;   // the leader's own journal
  for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
    if (f == leader_ || !replicas_[f].up) continue;
    if (replicas_[f].acked >= seq) ++durable;
  }
  return durable >= quorum_;
}

std::vector<std::function<void()>> ReplicaGroup::collect_released_barriers()
    SWB_REQUIRES(mutex_) {
  std::vector<std::function<void()>> resumes;
  while (!pending_.empty() && quorum_satisfied(pending_.front().seq)) {
    Barrier barrier = std::move(pending_.front());
    pending_.pop_front();
    ++barriers_released_;
    barrier_wait_us_total_ +=
        static_cast<std::uint64_t>(context_.sim.now() - barrier.created);
    resumes.push_back(std::move(barrier.resume));
  }
  return resumes;
}

void ReplicaGroup::beat() {
  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    if (!beating_) return;
    for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
      Replica& replica = replicas_[r];
      if (!replica.up) continue;
      if (r == leader_ && !global_.up()) continue;
      Heartbeat hb;
      hb.site = replica_health_key(r);
      hb.seq = ++replica.beat_seq;
      outbox.emplace_back(bus::replica_health_topic(r, sites_[r]),
                          serialize(hb));
    }
    // Leader-side repair: a live follower whose ack has stalled below the
    // stream head for `repair_stall_beats` checks lost frames for good
    // (retransmit budget exhausted across a partition) — re-sync it with
    // a full snapshot install.
    if (replicas_[leader_].up && global_.up()) {
      std::vector<std::uint32_t> stalled;
      for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
        if (f == leader_ || !replicas_[f].up) continue;
        if (replicas_[f].acked >= stream_seq_) {
          replicas_[f].stalled_beats = 0;
          continue;
        }
        if (++replicas_[f].stalled_beats >= config_.repair_stall_beats) {
          stalled.push_back(f);
        }
      }
      for (auto& frame : push_installs_to(stalled)) {
        outbox.push_back(std::move(frame));
      }
    }
    beat_event_ = context_.sim.schedule(config_.detector.period,
                                       [this] { beat(); });
  }
  publish(std::move(outbox));
}

void ReplicaGroup::on_replica_suspected(std::uint32_t replica) {
  {
    const swb::MutexLock lock{mutex_};
    if (replica >= replicas_.size()) return;
    if (replica != leader_) return;   // follower silence: nothing to elect
    if (replicas_[replica].up) {
      // The leader process is alive — this is a partition between it and
      // the detector.  The CP choice: no election (a second coordinator
      // would split the brain); consistency waits for the heal.
      ++false_suspicions_;
      return;
    }
  }
  elect_and_promote();
}

void ReplicaGroup::elect_and_promote() {
  std::uint32_t winner = 0;
  StateJournal* winner_journal = nullptr;
  ControllerState adopted;
  {
    const swb::MutexLock lock{mutex_};
    if (replicas_[leader_].up) return;   // raced with a restore
    bool found = false;
    std::tuple<std::uint64_t, std::uint64_t, std::uint32_t> best{0, 0, 0};
    for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r].up) continue;
      const std::tuple<std::uint64_t, std::uint64_t, std::uint32_t> key{
          replicas_[r].epoch_seen, replicas_[r].applied_seq, r};
      if (!found || key > best) {
        best = key;
        winner = r;
        found = true;
      }
    }
    if (!found) {
      // Total controller outage: nothing to promote.  The next restored
      // replica recovers via the cold path.
      SB_LOG(kWarn) << "replication: leader dead and no live candidate";
      return;
    }
    drop_leader_work();
    leader_ = winner;
    promoting_ = true;
    winner_journal = replicas_[winner].journal.get();
    adopted = std::move(replicas_[winner].state);
    replicas_[winner].state = ControllerState{};
    SB_LOG(kInfo) << "replication: electing replica " << winner
                  << " (applied " << replicas_[winner].applied_seq
                  << " records)";
  }

  // Hot promotion: the coordinator adopts the standby's state (it applied
  // every record as it arrived) and bumps the epoch so the dead
  // incarnation's continuations and frames fence.
  global_.warm_failover(winner_journal, std::move(adopted));

  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    ++elections_;
    std::ostringstream entry;
    entry << "t=" << context_.sim.now() << ";winner=" << winner
          << ";epoch=" << global_.epoch()
          << ";applied=" << replicas_[winner].applied_records << "\n";
    election_log_ += entry.str();
    outbox = restart_stream();
  }
  publish(std::move(outbox));
}

void ReplicaGroup::crash_replica(std::uint32_t replica) {
  bool was_leader = false;
  {
    const swb::MutexLock lock{mutex_};
    SWB_CHECK(replica < replicas_.size());
    if (!replicas_[replica].up) return;
    replicas_[replica].up = false;
    replicas_[replica].reorder.clear();
    replicas_[replica].state = ControllerState{};   // amnesia
    was_leader = replica == leader_;
    if (was_leader) drop_leader_work();
  }
  // A dead leader takes the coordinator down with it; the election waits
  // for the heartbeat silence to cross the detection threshold.
  if (was_leader) global_.set_up(false);
}

void ReplicaGroup::restore_replica(std::uint32_t replica) {
  bool cold = false;
  bool leader_live = false;
  {
    const swb::MutexLock lock{mutex_};
    SWB_CHECK(replica < replicas_.size());
    if (replicas_[replica].up) return;
    replicas_[replica].up = true;
    replicas_[replica].stalled_beats = 0;
    cold = replica == leader_;
    if (cold) {
      promoting_ = true;
    } else {
      // Amnesia: a follower rebuilds its state from its own durable
      // journal through the same replay a cold start runs.
      Replica& follower = replicas_[replica];
      const std::vector<std::string> records = follower.journal->records();
      Result<ControllerState> rebuilt = ControllerState::replay(records);
      SWB_CHECK(rebuilt.ok()) << "replica " << replica << " journal: "
                              << rebuilt.error().to_string();
      follower.state = std::move(rebuilt).value();
      follower.applied_records = records.size();
    }
    leader_live = replicas_[leader_].up && leader_ != replica;
  }

  if (cold) {
    // The dead leader came back before (or instead of) an election: the
    // legacy §13 path — full journal replay, replay cost charged.  This
    // is exactly the cold/hot contrast the failover bench measures.
    global_.cold_start();
    Outbox outbox;
    {
      const swb::MutexLock lock{mutex_};
      ++cold_restarts_;
      // The leader's digest restarts from its replayed journal.
      Replica& lead = replicas_[leader_];
      const std::vector<std::string> records = lead.journal->records();
      lead.digest = fold_records(kFnvOffset, records);
      lead.applied_records = records.size();
      outbox = restart_stream();
    }
    publish(std::move(outbox));
    return;
  }

  // The live leader re-syncs the restored follower with a fresh snapshot
  // install.  With the leader also dead, the follower stands on its
  // replayed journal: the next election may promote it, or a cold
  // restart installs instead.
  if (leader_live && global_.up()) {
    Outbox outbox;
    {
      const swb::MutexLock lock{mutex_};
      replicas_[replica].digest = kFnvOffset;
      replicas_[replica].applied_seq = 0;
      replicas_[replica].acked = 0;
      replicas_[replica].reorder.clear();
      outbox = push_installs_to({replica});
    }
    publish(std::move(outbox));
  }
}

void ReplicaGroup::publish(Outbox outbox) {
  for (auto& [topic, payload] : outbox) {
    context_.bus.publish(topic, std::move(payload));
  }
}

void ReplicaGroup::drop_leader_work() {
  // Barriers raised by the dead incarnation can never be satisfied in its
  // epoch; their resumes are epoch-guarded no-ops anyway.
  barriers_dropped_ += pending_.size();
  pending_.clear();
}

ReplicaGroup::Outbox ReplicaGroup::restart_stream() {
  // The new incarnation starts every follower from a fresh install (seq
  // 0): whatever the old leader half-streamed becomes irrelevant history.
  promoting_ = false;
  stream_seq_ = 0;
  Replica& lead = replicas_[leader_];
  lead.applied_seq = 0;
  lead.epoch_seen = global_.epoch();
  lead.reorder.clear();
  for (Replica& replica : replicas_) {
    replica.acked = 0;
    replica.stalled_beats = 0;
  }
  return push_installs();
}

ReplicaGroup::Outbox ReplicaGroup::push_installs() {
  std::vector<std::uint32_t> followers;
  for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
    if (f != leader_ && replicas_[f].up) followers.push_back(f);
  }
  return push_installs_to(followers);
}

double ReplicaGroup::mean_quorum_ack_ms() const {
  const swb::MutexLock lock{mutex_};
  if (barriers_released_ == 0) return 0.0;
  return static_cast<double>(barrier_wait_us_total_) /
         static_cast<double>(barriers_released_) / 1000.0;
}

void ReplicaGroup::verify_convergence() const {
  const swb::MutexLock lock{mutex_};
  SWB_CHECK_EQ(divergences_, 0u) << "replica digests diverged mid-run";
  const Replica& lead = replicas_[leader_];
  const std::vector<std::string> leader_state =
      global_.state().encode_snapshot();
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    const Replica& replica = replicas_[r];
    if (r == leader_) continue;   // the coordinator audits its own state
    replica.state.check_invariants();
    if (!replica.up) continue;
    if (replica.epoch_seen != lead.epoch_seen ||
        replica.applied_seq != stream_seq_) {
      continue;   // not caught up — nothing to compare yet
    }
    // Digest equality is the convergence proof; applied_records counts are
    // NOT compared — a snapshot install legitimately restarts a follower's
    // count from the install set while the leader's keeps its history.
    SWB_CHECK_EQ(replica.digest, lead.digest)
        << "caught-up replica " << r << " diverged from the leader";
    // Equal streams must also mean equal states: the coordinator's live
    // writes and the follower's applies are checked against each other.
    SWB_CHECK(replica.state.encode_snapshot() == leader_state)
        << "caught-up replica " << r << " holds a state the leader does not";
  }
}

void ReplicaGroup::check_invariants() const {
  const swb::MutexLock lock{mutex_};
  SWB_CHECK_LT(leader_, replicas_.size());
  SWB_CHECK_GE(quorum_, 1u);
  SWB_CHECK_LE(quorum_, replicas_.size());
  std::uint64_t last_seq = 0;
  for (const Barrier& barrier : pending_) {
    SWB_CHECK_GE(barrier.seq, last_seq) << "quorum barriers out of order";
    SWB_CHECK_LE(barrier.seq, stream_seq_)
        << "barrier ahead of the stream head";
    last_seq = barrier.seq;
  }
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    const Replica& replica = replicas_[r];
    if (r != leader_) {
      replica.state.check_invariants();
      SWB_CHECK_LE(replica.acked, stream_seq_)
          << "follower " << r << " acked past the stream head";
    }
  }
  detector_->check_invariants();
}

}  // namespace switchboard::control
