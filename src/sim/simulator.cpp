#include "sim/simulator.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>

#include "sim/transition.h"
#include "util/error.h"

namespace nocdr {

namespace {

/// Internal description of a reconfiguration transition (see
/// sim/transition.h). Null for plain SimulateWorkload runs, whose
/// behavior must stay bit-identical.
struct TransitionSpec {
  const RouteSet* pre_routes = nullptr;
  const std::vector<char>* dead_channels = nullptr;  // may be empty
  std::uint64_t cycle = 0;
  bool midflight = false;
};

/// Runtime state of one channel: its input buffer at the downstream
/// switch and the wormhole ownership.
struct VcState {
  std::deque<Flit> fifo;
  std::optional<PacketKey> owner;
};

/// Injection state of one flow.
struct SourceState {
  std::uint32_t next_packet = 0;   // next schedule entry to inject
  std::uint16_t next_flit = 0;     // 0 = must inject the head
  std::uint64_t head_injected_at = 0;
  /// Route epoch the in-progress packet's head was injected under; body
  /// flits must inherit it so a worm straddling a mid-flight transition
  /// stays on one route.
  std::uint8_t packet_epoch = 0;
};

/// The SimConfig checks every entry point shares. Runs before the
/// Engine builds anything from the config: a zero interval would divide
/// by zero in Run and NextWakeCycle.
const SimConfig& CheckedConfig(const SimConfig& config) {
  Require(config.traffic.packet_length >= 1,
          "SimConfig: packets need at least one flit");
  Require(config.buffer_depth >= 1,
          "SimConfig: buffers need at least one slot");
  Require(config.deadlock_check_interval >= 1,
          "SimConfig: deadlock_check_interval must be at least 1");
  return config;
}

class Engine {
 public:
  Engine(const NocDesign& design, const SimConfig& config,
         const TransitionSpec* transition = nullptr,
         const TrafficSchedule* schedule = nullptr)
      : design_(design),
        config_(CheckedConfig(config)),
        transition_(transition),
        schedule_(schedule != nullptr
                      ? *schedule
                      : TrafficSchedule(design, config.traffic,
                                        config.max_cycles)),
        vcs_(design.topology.ChannelCount()),
        sources_(design.traffic.FlowCount()) {
    result_.packets_offered = schedule_.TotalPackets();
    result_.flows.resize(design.traffic.FlowCount());
    result_.channel_flits.assign(design.topology.ChannelCount(), 0);
    flow_latency_sum_.assign(design.traffic.FlowCount(), 0);

    link_stamp_.assign(design.topology.LinkCount(), 0);
    popped_stamp_.assign(vcs_.size(), 0);
    claim_stamp_.assign(vcs_.size(), 0);
    slot_stamp_.assign(vcs_.size(), 0);
    free_slots_.assign(vcs_.size(), 0);
    channel_active_.assign(vcs_.size(), 0);
    flow_armed_.assign(sources_.size(), 0);
    for (std::size_t f = 0; f < sources_.size(); ++f) {
      if (schedule_.PacketCount(FlowId(f)) == 0) {
        ++drained_sources_;
      } else if (schedule_.ReadyAt(FlowId(f), 0) == 0) {
        armed_.push_back(static_cast<std::uint32_t>(f));
        flow_armed_[f] = 1;
      } else {
        ready_heap_.push(
            {schedule_.ReadyAt(FlowId(f), 0), static_cast<std::uint32_t>(f)});
      }
    }
  }

  SimResult Run() {
    std::uint64_t last_progress = 0;
    cycle_ = 0;
    while (cycle_ < config_.max_cycles) {
      if (transition_ != nullptr && !epoch_switched_) {
        MaybeTransition();
      }
      const bool moved = Step();
      if (moved) {
        last_progress = cycle_;
      }
      if (result_.packets_delivered + packets_dropped_ ==
              result_.packets_offered &&
          AllSourcesDrained()) {
        ++cycle_;
        break;
      }
      // Early exact detection: a cycle of hard waits is permanent.
      if (cycle_ % config_.deadlock_check_interval == 0 && FlitsInFlight() &&
          DetectCircularWait()) {
        result_.deadlocked = true;
        break;
      }
      // Watchdog: arbitration is work-conserving, so a total stall with
      // flits in flight means no flit is movable — every buffer front is
      // hard-blocked, which in a finite network implies a circular wait
      // even when it hides behind empty-but-owned channels that the
      // channel-level detector cannot chain through.
      if (cycle_ - last_progress >= config_.stall_threshold &&
          FlitsInFlight()) {
        result_.deadlocked = true;
        DetectCircularWait();  // best effort: attach a certificate
        break;
      }
      if (Incremental() && !moved) {
        // Nothing moved, so the network state is a fixed point until a
        // parked packet becomes ready or a deadline falls due: jump there
        // instead of grinding through idle cycles. NextWakeCycle never
        // skips a cycle the reference could have acted on.
        cycle_ = NextWakeCycle(last_progress);
      } else {
        ++cycle_;
      }
    }
    result_.cycles = cycle_;
    for (const VcState& vc : vcs_) {
      result_.stuck_flits += vc.fifo.size();
    }
    if (result_.flits_delivered > 0 && result_.packets_delivered > 0) {
      result_.avg_packet_latency =
          static_cast<double>(latency_sum_) /
          static_cast<double>(result_.packets_delivered);
    }
    for (std::size_t f = 0; f < result_.flows.size(); ++f) {
      FlowStats& stats = result_.flows[f];
      if (stats.packets_delivered > 0) {
        stats.avg_latency = static_cast<double>(flow_latency_sum_[f]) /
                            static_cast<double>(stats.packets_delivered);
      }
    }
    return result_;
  }

 private:
  /// True for the event engine, which keeps the worklists and the ready
  /// heap and jumps over idle cycles; false for the full-scan reference.
  /// (The constructor parks flows in the ready heap for both engines;
  /// the reference never reads it.)
  [[nodiscard]] bool Incremental() const {
    return config_.engine == SimEngine::kEvent;
  }

  /// Earliest future cycle at which anything observable can happen,
  /// given that the just-simulated cycle moved nothing (so the network
  /// state is frozen until then). Candidates: the earliest parked
  /// flow's ready cycle, the transition window (which must tick
  /// cycle-by-cycle to count drain cycles exactly), the next periodic
  /// deadlock-check boundary, and the stall watchdog's expiry. Every
  /// park is for a cycle after the one it happens in, and this cycle's
  /// PlanInjections armed every flow that was due, so the heap holds no
  /// stale entry. Clamped to max_cycles, which ends the run just like
  /// the reference spinning out its budget.
  [[nodiscard]] std::uint64_t NextWakeCycle(
      std::uint64_t last_progress) const {
    std::uint64_t next = config_.max_cycles;
    if (transition_ != nullptr && !epoch_switched_) {
      if (cycle_ + 1 >= transition_->cycle) {
        return cycle_ + 1;  // inside the pre-switch window: tick
      }
      next = std::min(next, transition_->cycle);
    }
    if (!ready_heap_.empty()) {
      next = std::min(next, ready_heap_.top().first);
    }
    if (FlitsInFlight()) {
      const std::uint64_t interval = config_.deadlock_check_interval;
      next = std::min(next, (cycle_ / interval + 1) * interval);
      next = std::min(next, last_progress + config_.stall_threshold);
    }
    return std::max(next, cycle_ + 1);
  }

  [[nodiscard]] bool FlitsInFlight() const {
    if (Incremental()) {
      return flits_in_network_ > 0;
    }
    for (const VcState& vc : vcs_) {
      if (!vc.fifo.empty()) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool AllSourcesDrained() const {
    if (Incremental()) {
      return drained_sources_ == sources_.size();
    }
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i].next_packet < schedule_.PacketCount(FlowId(i))) {
        return false;
      }
    }
    return true;
  }

  /// Route a flit is bound to: packets injected before the transition
  /// follow the pre-fault routes, everything else the design's routes.
  [[nodiscard]] const Route& RouteFor(const Flit& flit) const {
    if (transition_ != nullptr && flit.route_epoch == 0) {
      return transition_->pre_routes->RouteOf(flit.packet.flow);
    }
    return design_.routes.RouteOf(flit.packet.flow);
  }

  [[nodiscard]] bool NoSourceMidPacket() const {
    for (const SourceState& src : sources_) {
      if (src.next_flit != 0) {
        return false;
      }
    }
    return true;
  }

  /// Runs once per cycle from the transition cycle until the route
  /// generations are swapped. Mid-flight: destroy the packets the fault
  /// caught, swap immediately. Drain-and-restart: suspend new packets,
  /// swap once the network is empty.
  void MaybeTransition() {
    if (cycle_ < transition_->cycle) {
      return;
    }
    if (transition_->midflight) {
      KillDeadPackets();
      epoch_switched_ = true;
      return;
    }
    inject_suspended_ = true;
    if (!FlitsInFlight() && NoSourceMidPacket()) {
      inject_suspended_ = false;
      epoch_switched_ = true;
    } else {
      ++drain_cycles_;
    }
  }

  /// Destroys every packet that occupies a dead channel or whose
  /// remaining route needs one: flits vanish from the buffers, channel
  /// ownerships are released, mid-worm sources skip the rest of the
  /// packet. The survivors keep flowing on their pre-fault routes.
  void KillDeadPackets() {
    const std::vector<char>* dead = transition_->dead_channels;
    if (dead == nullptr || dead->empty()) {
      return;
    }
    // A flit in flight sits on channel route[hop], so scanning the route
    // from `hop` covers both "on a dead channel" and "needs one later".
    std::vector<PacketKey> doomed;
    for (const VcState& vc : vcs_) {
      for (const Flit& flit : vc.fifo) {
        const Route& route = RouteFor(flit);
        for (std::size_t h = flit.hop; h < route.size(); ++h) {
          if ((*dead)[route[h].value()]) {
            doomed.push_back(flit.packet);
            break;
          }
        }
      }
    }
    for (std::size_t f = 0; f < sources_.size(); ++f) {
      const SourceState& src = sources_[f];
      if (src.next_flit == 0) {
        continue;  // not mid-worm; future packets take the new routes
      }
      const Route& route = transition_->pre_routes->RouteOf(FlowId(f));
      for (const ChannelId c : route) {
        if ((*dead)[c.value()]) {
          doomed.push_back(PacketKey{FlowId(f), src.next_packet});
          break;
        }
      }
    }
    if (doomed.empty()) {
      return;
    }
    const auto less = [](const PacketKey& a, const PacketKey& b) {
      if (a.flow != b.flow) {
        return a.flow < b.flow;
      }
      return a.sequence < b.sequence;
    };
    std::sort(doomed.begin(), doomed.end(), less);
    doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
    const auto is_doomed = [&](const PacketKey& key) {
      return std::binary_search(doomed.begin(), doomed.end(), key, less);
    };
    for (VcState& vc : vcs_) {
      const std::size_t before = vc.fifo.size();
      std::erase_if(vc.fifo, [&](const Flit& flit) {
        return is_doomed(flit.packet);
      });
      flits_in_network_ -= before - vc.fifo.size();
      if (vc.owner.has_value() && is_doomed(*vc.owner)) {
        vc.owner.reset();
      }
    }
    for (std::size_t f = 0; f < sources_.size(); ++f) {
      SourceState& src = sources_[f];
      if (src.next_flit != 0 &&
          is_doomed(PacketKey{FlowId(f), src.next_packet})) {
        src.next_flit = 0;
        ++src.next_packet;
        NotePacketInjected(FlowId(f));
      }
    }
    packets_dropped_ += doomed.size();
    if (Incremental()) {
      // One-off full rebuild of the active-channel list; cheaper than
      // threading the purge through the touched_ bookkeeping.
      active_.clear();
      for (std::size_t c = 0; c < vcs_.size(); ++c) {
        channel_active_[c] = vcs_[c].fifo.empty() ? 0 : 1;
        if (channel_active_[c]) {
          active_.push_back(static_cast<std::uint32_t>(c));
        }
      }
    }
  }

  /// One simulated cycle; returns true when at least one flit moved.
  ///
  /// Both engines visit channels in ascending id order starting at
  /// (cycle mod channel count) with wraparound, then flows likewise —
  /// the rotating round-robin. Channels with empty buffers and drained
  /// or parked flows are no-ops under that scan, so the event engine
  /// visiting only its worklists is semantics-preserving, and its
  /// skipping whole cycles in which nothing could move (see
  /// NextWakeCycle) preserves the cycle numbering those pivots depend
  /// on. The two engines therefore stay bit-identical.
  bool Step() {
    stamp_ = cycle_ + 1;  // distinct from the 0 the scratch stamps start at
    moves_.clear();
    ejects_.clear();
    injections_.clear();
    touched_.clear();

    bool moved = false;
    if (config_.inject_first) {
      moved |= PlanInjections();
      moved |= PlanForwards();
    } else {
      moved |= PlanForwards();
      moved |= PlanInjections();
    }
    Commit();
    if (Incremental()) {
      UpdateWorklists();
    }
    return moved;
  }

  /// Plans every possible channel traversal this cycle, in rotating
  /// round-robin order over channel ids.
  bool PlanForwards() {
    bool moved = false;
    if (Incremental()) {
      if (!active_.empty()) {
        const std::uint32_t pivot =
            static_cast<std::uint32_t>(cycle_ % vcs_.size());
        const auto split =
            std::lower_bound(active_.begin(), active_.end(), pivot);
        for (auto it = split; it != active_.end(); ++it) {
          moved |= TryForwardFrom(ChannelId(*it));
        }
        for (auto it = active_.begin(); it != split; ++it) {
          moved |= TryForwardFrom(ChannelId(*it));
        }
      }
    } else {
      const std::size_t n = vcs_.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t c = (k + cycle_) % n;
        if (TryForwardFrom(ChannelId(c))) {
          moved = true;
        }
      }
    }
    return moved;
  }

  /// Plans every possible injection this cycle, in rotating round-robin
  /// order over flow ids.
  bool PlanInjections() {
    bool moved = false;
    if (Incremental()) {
      // Arm the flows whose next packet became ready by now. The batch
      // is sorted before merging, so the armed list does not depend on
      // the heap's pop order.
      newly_armed_.clear();
      while (!ready_heap_.empty() && ready_heap_.top().first <= cycle_) {
        newly_armed_.push_back(ready_heap_.top().second);
        flow_armed_[ready_heap_.top().second] = 1;
        ready_heap_.pop();
      }
      if (!newly_armed_.empty()) {
        std::sort(newly_armed_.begin(), newly_armed_.end());
        const auto mid = static_cast<std::ptrdiff_t>(armed_.size());
        armed_.insert(armed_.end(), newly_armed_.begin(),
                      newly_armed_.end());
        std::inplace_merge(armed_.begin(), armed_.begin() + mid,
                           armed_.end());
      }
      if (!armed_.empty()) {
        const std::uint32_t pivot =
            static_cast<std::uint32_t>(cycle_ % sources_.size());
        const auto split =
            std::lower_bound(armed_.begin(), armed_.end(), pivot);
        for (auto it = split; it != armed_.end(); ++it) {
          moved |= TryInject(FlowId(*it));
        }
        for (auto it = armed_.begin(); it != split; ++it) {
          moved |= TryInject(FlowId(*it));
        }
      }
    } else {
      const std::size_t flows = sources_.size();
      for (std::size_t k = 0; k < flows; ++k) {
        const std::size_t f = (k + cycle_) % flows;
        if (TryInject(FlowId(f))) {
          moved = true;
        }
      }
    }
    return moved;
  }

  /// Plans the move of the head flit of channel \p c, if possible.
  bool TryForwardFrom(ChannelId c) {
    VcState& vc = vcs_[c.value()];
    if (vc.fifo.empty() || popped_stamp_[c.value()] == stamp_) {
      return false;
    }
    const Flit& flit = vc.fifo.front();
    const Route& route = RouteFor(flit);
    if (flit.hop + 1u == route.size()) {
      // Last channel: eject into the destination NI (ideal sink).
      ejects_.push_back(c);
      popped_stamp_[c.value()] = stamp_;
      return true;
    }
    const ChannelId t = route[flit.hop + 1];
    if (!ClaimTransfer(t, flit)) {
      return false;
    }
    moves_.push_back({c, t});
    popped_stamp_[c.value()] = stamp_;
    return true;
  }

  /// Plans injecting the next flit of flow \p f, if one is ready.
  bool TryInject(FlowId f) {
    SourceState& src = sources_[f.value()];
    if (src.next_packet >= schedule_.PacketCount(f)) {
      return false;
    }
    if (schedule_.ReadyAt(f, src.next_packet) > cycle_) {
      return false;
    }
    // A drain suspends new packets only; a worm already under way keeps
    // injecting so it can leave the network whole.
    if (inject_suspended_ && src.next_flit == 0) {
      return false;
    }
    if (src.next_flit == 0) {
      src.packet_epoch =
          (transition_ != nullptr && epoch_switched_) ? 1 : 0;
    }
    const Route& route = src.packet_epoch == 0 && transition_ != nullptr
                             ? transition_->pre_routes->RouteOf(f)
                             : design_.routes.RouteOf(f);
    if (route.empty()) {
      // Core-local flow: delivered through the switch's local crossbar
      // turnaround without using any network channel.
      ++src.next_packet;
      ++result_.packets_injected;
      ++result_.packets_delivered;
      result_.flits_delivered += config_.traffic.packet_length;
      latency_sum_ += 1;
      result_.max_packet_latency = std::max<std::uint64_t>(
          result_.max_packet_latency, 1);
      FlowStats& stats = result_.flows[f.value()];
      ++stats.packets_delivered;
      stats.max_latency = std::max<std::uint64_t>(stats.max_latency, 1);
      flow_latency_sum_[f.value()] += 1;
      NotePacketInjected(f);
      return true;
    }
    Flit flit;
    flit.packet = PacketKey{f, src.next_packet};
    flit.index = src.next_flit;
    flit.is_head = src.next_flit == 0;
    flit.is_tail = src.next_flit + 1u == config_.traffic.packet_length;
    flit.hop = 0;
    flit.injected_at = flit.is_head ? cycle_ : src.head_injected_at;
    flit.route_epoch = src.packet_epoch;
    if (!ClaimTransfer(route.front(), flit)) {
      return false;
    }
    injections_.push_back(flit);
    if (flit.is_head) {
      src.head_injected_at = cycle_;
      ++result_.packets_injected;
    }
    if (flit.is_tail) {
      ++src.next_packet;
      src.next_flit = 0;
      NotePacketInjected(f);
    } else {
      ++src.next_flit;
    }
    return true;
  }

  /// Bookkeeping after a packet finished injecting (tail planned, or a
  /// core-local delivery): the flow either drained, stays armed (next
  /// packet already ready), or parks in the ready heap until its next
  /// packet's ready cycle.
  void NotePacketInjected(FlowId f) {
    const SourceState& src = sources_[f.value()];
    if (src.next_packet >= schedule_.PacketCount(f)) {
      ++drained_sources_;
      flow_armed_[f.value()] = 0;
      disarm_dirty_ = true;
      return;
    }
    if (Incremental()) {
      const std::uint64_t ready = schedule_.ReadyAt(f, src.next_packet);
      if (ready > cycle_) {
        flow_armed_[f.value()] = 0;
        disarm_dirty_ = true;
        ready_heap_.push({ready, f.value()});
      }
    }
  }

  /// Claimable free slots of channel \p t this cycle, lazily initialized
  /// from the buffer occupancy at cycle start (buffers only change in
  /// Commit, after all planning).
  int& FreeSlots(ChannelId t) {
    if (slot_stamp_[t.value()] != stamp_) {
      slot_stamp_[t.value()] = stamp_;
      free_slots_[t.value()] =
          static_cast<int>(config_.buffer_depth) -
          static_cast<int>(vcs_[t.value()].fifo.size());
    }
    return free_slots_[t.value()];
  }

  /// Claims buffer space, link bandwidth and wormhole ownership for
  /// moving \p flit into channel \p t. Returns false (claiming nothing)
  /// if any resource is unavailable this cycle.
  bool ClaimTransfer(ChannelId t, const Flit& flit) {
    const LinkId link = design_.topology.ChannelAt(t).link;
    if (link_stamp_[link.value()] == stamp_) {
      return false;
    }
    if (FreeSlots(t) <= 0) {
      return false;
    }
    VcState& target = vcs_[t.value()];
    if (target.owner.has_value()) {
      if (*target.owner != flit.packet) {
        return false;  // channel held by another worm
      }
    } else {
      // Only a head flit may allocate a free channel, and only one head
      // per channel per cycle.
      if (!flit.is_head || claim_stamp_[t.value()] == stamp_) {
        return false;
      }
      claim_stamp_[t.value()] = stamp_;
    }
    link_stamp_[link.value()] = stamp_;
    --FreeSlots(t);
    return true;
  }

  /// Applies the planned ejections, forwards and injections.
  void Commit() {
    const bool track = Incremental();
    for (ChannelId c : ejects_) {
      VcState& vc = vcs_[c.value()];
      Flit flit = vc.fifo.front();
      vc.fifo.pop_front();
      --flits_in_network_;
      if (track) {
        touched_.push_back(c.value());
      }
      ++result_.flits_delivered;
      ++result_.channel_flits[c.value()];
      if (flit.is_tail) {
        vc.owner.reset();
        ++result_.packets_delivered;
        const std::uint64_t latency = cycle_ - flit.injected_at + 1;
        latency_sum_ += latency;
        result_.max_packet_latency =
            std::max(result_.max_packet_latency, latency);
        FlowStats& stats = result_.flows[flit.packet.flow.value()];
        ++stats.packets_delivered;
        stats.max_latency = std::max(stats.max_latency, latency);
        flow_latency_sum_[flit.packet.flow.value()] += latency;
      }
    }
    for (const auto& [from, to] : moves_) {
      VcState& src = vcs_[from.value()];
      VcState& dst = vcs_[to.value()];
      Flit flit = src.fifo.front();
      src.fifo.pop_front();
      if (track) {
        touched_.push_back(from.value());
        touched_.push_back(to.value());
      }
      ++result_.channel_flits[from.value()];
      if (flit.is_head) {
        dst.owner = flit.packet;
      }
      if (flit.is_tail) {
        src.owner.reset();
      }
      ++flit.hop;
      dst.fifo.push_back(flit);
    }
    for (const Flit& flit : injections_) {
      const Route& route = RouteFor(flit);
      VcState& dst = vcs_[route.front().value()];
      if (flit.is_head) {
        dst.owner = flit.packet;
      }
      dst.fifo.push_back(flit);
      ++flits_in_network_;
      if (track) {
        touched_.push_back(route.front().value());
      }
    }
  }

  /// Re-syncs the active-channel and live-flow worklists with the state
  /// changes Commit just applied. O(touched + active) and only when
  /// something changed.
  void UpdateWorklists() {
    if (disarm_dirty_) {
      armed_.erase(std::remove_if(armed_.begin(), armed_.end(),
                                  [&](std::uint32_t f) {
                                    return !flow_armed_[f];
                                  }),
                   armed_.end());
      disarm_dirty_ = false;
    }
    if (touched_.empty()) {
      return;
    }
    bool removed = false;
    newly_active_.clear();
    for (const std::uint32_t c : touched_) {
      const bool now = !vcs_[c].fifo.empty();
      if (now == static_cast<bool>(channel_active_[c])) {
        continue;
      }
      channel_active_[c] = now ? 1 : 0;
      if (now) {
        newly_active_.push_back(c);
      } else {
        removed = true;
      }
    }
    if (removed) {
      active_.erase(
          std::remove_if(active_.begin(), active_.end(),
                         [&](std::uint32_t c) { return !channel_active_[c]; }),
          active_.end());
    }
    if (!newly_active_.empty()) {
      std::sort(newly_active_.begin(), newly_active_.end());
      const auto mid = static_cast<std::ptrdiff_t>(active_.size());
      active_.insert(active_.end(), newly_active_.begin(),
                     newly_active_.end());
      std::inplace_merge(active_.begin(), active_.begin() + mid,
                         active_.end());
    }
  }

  /// Exact circular-wait detection. Build the wait-for graph restricted
  /// to *hard* waits: the head flit of channel c needs channel t, and t
  /// is either owned by a different packet or has no free slot. A
  /// directed cycle of hard waits can never resolve (wormhole channels
  /// are non-preemptible), so it is a deadlock certificate.
  bool DetectCircularWait() {
    const std::size_t n = vcs_.size();
    std::vector<std::int32_t> waits_on(n, -1);
    const auto consider = [&](std::size_t c) {
      const VcState& vc = vcs_[c];
      if (vc.fifo.empty()) {
        return;
      }
      const Flit& flit = vc.fifo.front();
      const Route& route = RouteFor(flit);
      if (flit.hop + 1u == route.size()) {
        return;  // ejection never blocks
      }
      const ChannelId t = route[flit.hop + 1];
      const VcState& target = vcs_[t.value()];
      const bool foreign_owner =
          target.owner.has_value() && *target.owner != flit.packet;
      const bool full = target.fifo.size() >= config_.buffer_depth;
      if (foreign_owner || full) {
        waits_on[c] = static_cast<std::int32_t>(t.value());
      }
    };
    if (Incremental()) {
      for (const std::uint32_t c : active_) {
        consider(c);
      }
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        consider(c);
      }
    }
    // Functional graph (out-degree <= 1): cycle detection by pointer
    // chasing with a visit stamp.
    std::vector<std::uint32_t> stamp(n, 0);
    for (std::size_t start = 0; start < n; ++start) {
      if (waits_on[start] < 0 || stamp[start] != 0) {
        continue;
      }
      std::size_t cur = start;
      const std::uint32_t mark = static_cast<std::uint32_t>(start) + 1;
      while (waits_on[cur] >= 0 && stamp[cur] == 0) {
        stamp[cur] = mark;
        cur = static_cast<std::size_t>(waits_on[cur]);
      }
      if (waits_on[cur] >= 0 && stamp[cur] == mark) {
        // Found a cycle through `cur`; record it for the report.
        std::size_t walker = cur;
        do {
          result_.deadlock_cycle.push_back(ChannelId(walker));
          walker = static_cast<std::size_t>(waits_on[walker]);
        } while (walker != cur);
        return true;
      }
    }
    return false;
  }

  const NocDesign& design_;
  SimConfig config_;
  const TransitionSpec* transition_;
  TrafficSchedule schedule_;
  std::vector<VcState> vcs_;
  std::vector<SourceState> sources_;
  SimResult result_;
  std::uint64_t cycle_ = 0;
  std::uint64_t latency_sum_ = 0;
  std::vector<std::uint64_t> flow_latency_sum_;

  // Per-cycle planning scratch, epoch-stamped so no O(channels) clearing
  // is needed between cycles (stamp == cycle + 1 means "set this cycle").
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> link_stamp_;
  std::vector<std::uint64_t> popped_stamp_;
  std::vector<std::uint64_t> claim_stamp_;
  std::vector<std::uint64_t> slot_stamp_;
  std::vector<int> free_slots_;
  std::vector<std::pair<ChannelId, ChannelId>> moves_;
  std::vector<ChannelId> ejects_;
  std::vector<Flit> injections_;

  // Event-engine state. `active_` is the sorted list of channels with a
  // non-empty buffer (mirrored by channel_active_); `armed_` the sorted
  // list of flows with a ready packet pending injection (mirrored by
  // flow_armed_). Flows whose next packet lies in the future park in
  // ready_heap_, a min-heap on (ready cycle, flow), so lightly loaded
  // flows cost nothing per cycle; its top is the next injection the
  // idle-cycle jump must land on.
  std::vector<std::uint32_t> active_;
  std::vector<char> channel_active_;
  std::vector<std::uint32_t> armed_;
  std::vector<char> flow_armed_;
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      ready_heap_;
  std::vector<std::uint32_t> touched_;       // channels mutated in Commit
  std::vector<std::uint32_t> newly_active_;  // scratch for UpdateWorklists
  std::vector<std::uint32_t> newly_armed_;   // scratch for PlanInjections
  std::uint64_t flits_in_network_ = 0;
  std::size_t drained_sources_ = 0;
  bool disarm_dirty_ = false;

  // Transition-run state; inert for plain SimulateWorkload runs.
  bool epoch_switched_ = false;
  bool inject_suspended_ = false;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t drain_cycles_ = 0;

 public:
  [[nodiscard]] std::uint64_t packets_dropped() const {
    return packets_dropped_;
  }
  [[nodiscard]] std::uint64_t drain_cycles() const { return drain_cycles_; }
};

}  // namespace

std::vector<SimEngine> AllEngines() {
  return {SimEngine::kFullScan, SimEngine::kEvent};
}

std::string EngineName(SimEngine engine) {
  switch (engine) {
    case SimEngine::kFullScan:
      return "fullscan";
    case SimEngine::kEvent:
      return "event";
  }
  return "unknown";
}

std::optional<SimEngine> ParseEngine(const std::string& name) {
  for (const SimEngine engine : AllEngines()) {
    if (EngineName(engine) == name) {
      return engine;
    }
  }
  return std::nullopt;
}

SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config) {
  Engine engine(design, config);
  return engine.Run();
}

SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config,
                           const TrafficSchedule& schedule) {
  Require(schedule.FlowCount() == design.traffic.FlowCount(),
          "SimulateWorkload: schedule not sized for the design's flows");
  Engine engine(design, config, nullptr, &schedule);
  return engine.Run();
}

TransitionResult SimulateTransition(const NocDesign& post_design,
                                    const RouteSet& pre_routes,
                                    const std::vector<char>& dead_channels,
                                    const TransitionConfig& config) {
  Require(pre_routes.FlowCount() == post_design.traffic.FlowCount(),
          "SimulateTransition: pre-fault routes not sized for the design");
  Require(dead_channels.empty() ||
              dead_channels.size() == post_design.topology.ChannelCount(),
          "SimulateTransition: dead-channel mask not sized for the design");

  TransitionSpec spec;
  spec.pre_routes = &pre_routes;
  spec.dead_channels = &dead_channels;
  spec.cycle = config.transition_cycle;
  spec.midflight = config.policy == TransitionPolicy::kMidFlight;

  Engine engine(post_design, config.sim, &spec);
  TransitionResult result;
  result.sim = engine.Run();
  result.packets_dropped = engine.packets_dropped();
  result.drain_cycles = engine.drain_cycles();
  return result;
}

}  // namespace nocdr
