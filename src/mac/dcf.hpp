// An 802.11-style DCF node: slotted CSMA/CA with DIFS + binary-exponential
// backoff, broadcast (no-ACK) and unicast (ACK, retry) traffic, optional
// RTS/CTS with NAV, and the §5 heuristic that turns RTS/CTS on only when
// a link shows high loss despite high RSSI. Carrier sense is pluggable
// per node (disabled / energy / preamble / both), matching the thesis'
// experimental modes and its implementation-pathology discussion.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/capacity/rate_adaptation.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/wireless_config.hpp"
#include "src/stats/quantile.hpp"

namespace csense::mac {

/// How the node addresses its data frames. *What* arrives — saturated
/// backlog or a stochastic offered load — is the traffic_config's
/// business (set_traffic_model); the default is saturated.
enum class traffic_mode {
    none,       ///< pure receiver
    broadcast,  ///< unacknowledged broadcast (the thesis' §4 traffic)
    unicast,    ///< ACKed data to a fixed destination
};

/// Per-node MAC statistics.
struct node_stats {
    std::uint64_t data_sent = 0;       ///< data frames put on the air
    std::uint64_t data_acked = 0;      ///< unicast frames acknowledged
    std::uint64_t data_dropped = 0;    ///< unicast frames over retry limit
    std::uint64_t offered_packets = 0; ///< Poisson arrivals offered
                                       ///< to the node
    std::uint64_t queue_drops = 0;     ///< arrivals lost to a full FIFO
    std::uint64_t rts_sent = 0;
    std::uint64_t cts_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t defer_events = 0;    ///< contention frozen by a busy channel
    std::uint64_t rx_data_decoded = 0; ///< data frames decoded here
    std::uint64_t rx_data_lost = 0;    ///< locked receptions that failed
    std::unordered_map<node_id, std::uint64_t> rx_decoded_by_src;
};

/// One DCF station.
///
/// The node's events (DIFS and slot timers, response timeouts, the
/// preamble and NAV wake-ups, traffic arrivals) capture `this` and are
/// never withdrawn from the simulator: a superseded timer is retired by
/// bumping the node's timer generation, and it pops as a no-op. So a
/// node must outlive every run() of its simulator. mac::network
/// guarantees this: it owns the simulator, declares it first, and runs
/// nothing after its nodes die. A pure receiver (traffic_mode::none)
/// never contends, so it schedules no preamble or NAV wake-ups.
class dcf_node final : public medium_listener {
public:
    /// Creates the node and registers it with the medium.
    dcf_node(sim::simulator& sim, medium& med, mac_config config,
             std::uint64_t seed);

    node_id id() const noexcept { return id_; }
    const node_stats& stats() const noexcept { return stats_; }
    const mac_config& config() const noexcept { return config_; }

    /// Configure traffic addressing. `rate` is the data rate (control
    /// frames go at 6 Mb/s). Must be called before the simulation
    /// starts. The arrival process defaults to saturated; see
    /// set_traffic_model.
    void set_traffic(traffic_mode mode, node_id destination,
                     const capacity::phy_rate& rate, int payload_bytes);

    /// Configure the arrival process and queue capacity. Must be called
    /// before the simulation starts; Poisson gaps draw from the node's
    /// split "traffic" RNG stream, so the arrival sequence depends only
    /// on the node seed and this config. Throws std::invalid_argument on
    /// a negative queue capacity or a Poisson load that is not > 0.
    void set_traffic_model(const traffic_config& config);

    /// Enqueue->delivery sojourn times (us) of every delivered packet:
    /// queueing wait + contention + retries until the frame left the air
    /// (broadcast) or was acknowledged (unicast). Saturated traffic
    /// records pure service times (its packets never wait in a queue).
    const stats::streaming_quantiles& sojourn_times() const noexcept {
        return sojourn_;
    }

    /// Packets currently waiting behind the one in service.
    std::size_t queue_depth() const noexcept { return queue_.size(); }

    /// Optional rate adaptation (unicast only; overrides the fixed rate).
    /// The adapter must outlive the node.
    void set_rate_adaptation(capacity::rate_adaptation* adapter);

    /// Begin contending (call once, at simulation start).
    void start();

    /// True if this node currently considers RTS/CTS active for its
    /// destination (static config or triggered heuristic).
    bool rts_active() const;

    /// Effective energy-detection threshold in dBm, as the medium holds
    /// it (medium::cca_threshold_dbm): radio_config::cs_threshold_dbm
    /// until an override is installed.
    double cs_threshold_dbm() const;

    /// Install a per-node threshold override (the adaptive-carrier-sense
    /// hook, see src/mac/adaptive_cs.hpp, and the one way to give a node
    /// a miscalibrated threshold). The medium re-judges the
    /// energy-busy state against this node's last CCA sample
    /// immediately, so a threshold step mid-backoff behaves exactly like
    /// a channel power change. Throws std::invalid_argument when the
    /// medium rejects the threshold (at or below the audibility floor);
    /// the previous threshold then stays.
    void set_cs_threshold_dbm(double threshold_dbm);

    /// Cumulative time this node's CCA has reported energy-busy, up to
    /// the current simulation instant. Epoch deltas of this are the
    /// busy-time-fraction input of the adaptive controllers.
    sim::time_us energy_busy_time_us() const;

    // medium_listener interface.
    void on_energy_busy(bool busy) override;
    void on_preamble(sim::time_us until) override;
    void on_frame_received(const frame& f, bool decoded) override;
    void on_tx_complete(const frame& f) override;

private:
    /// DCF station FSM state.
    enum class state : std::uint8_t {
        idle,          ///< no packet (traffic_mode::none or drained queue)
        contending,    ///< waiting for DIFS + backoff
        transmitting,  ///< own frame on the air
        awaiting_cts,
        awaiting_ack,
        responding,    ///< SIFS gap before CTS/ACK/data-after-CTS
    };

    bool sense_enabled() const noexcept;
    bool senses_energy() const noexcept;
    bool senses_preambles() const noexcept;
    bool channel_busy() const;
    void reevaluate();
    void cancel_timer();
    void schedule_timer(sim::time_us delay, void (dcf_node::*handler)());
    void on_difs_end();
    void on_slot();
    void begin_transmission();
    void transmit_frame(const frame& f);
    void new_packet();
    void packet_done(bool delivered);
    void retry_packet();
    void schedule_next_arrival();
    void on_arrival();
    void start_response_timeout(state waiting_state, sim::time_us timeout);
    /// Honour the NAV of an overheard RTS or CTS: defer until it ends.
    void defer_for_nav(sim::time_us duration_us);
    void queue_response(const frame& response,
                        std::uint64_t node_stats::*counter);
    frame make_data_frame();
    frame make_control_frame(frame_kind kind, node_id dst,
                             double nav_duration_us);
    double exchange_nav_us(const capacity::phy_rate& data_rate) const;
    const capacity::phy_rate& current_data_rate();
    void note_unicast_outcome(bool delivered);

    sim::simulator& sim_;
    medium& medium_;

    // Per-event state (channel sense, contention, timer generation);
    // everything after it is touched per packet or per epoch, not per
    // event. The sensed power itself lives in the medium, which owns
    // the CCA decision and reports only busy/idle flips.
    sim::time_us preamble_busy_until_ = 0.0;
    sim::time_us nav_until_ = 0.0;
    sim::time_us busy_since_ = 0.0;
    sim::time_us busy_accum_us_ = 0.0;
    std::uint64_t timer_generation_ = 0;
    int slots_left_ = 0;
    int cw_ = capacity::ofdm_timing::cw_min;
    int retries_ = 0;
    state state_ = state::idle;
    bool energy_busy_ = false;
    bool have_packet_ = false;
    bool difs_done_ = false;

    mac_config config_;
    node_id id_;
    stats::rng rng_;
    node_stats stats_;

    // Traffic.
    traffic_mode traffic_ = traffic_mode::none;
    node_id destination_ = broadcast_id;
    const capacity::phy_rate* data_rate_ = nullptr;
    const capacity::phy_rate* control_rate_ = nullptr;
    int payload_bytes_ = 1400;
    capacity::rate_adaptation* adaptation_ = nullptr;

    // Arrival process + FIFO queue. Saturated traffic has no arrivals:
    // the node refills inline instead of queueing them.
    traffic_config traffic_model_;
    stats::rng arrival_rng_;  ///< re-derived at start() via split("traffic")
    std::deque<sim::time_us> queue_;  ///< enqueue timestamps, FIFO order
    sim::time_us head_enqueued_us_ = 0.0;  ///< of the packet in service
    stats::streaming_quantiles sojourn_;

    // Per-packet state.
    std::uint64_t frame_sequence_ = 0;
    const capacity::phy_rate* packet_rate_ = nullptr;

    // RTS/CTS heuristic state.
    double loss_ewma_ = 0.0;
    bool heuristic_rts_on_ = false;

    // Pending response bookkeeping.
    frame pending_response_;
    bool response_queued_ = false;
};

}  // namespace csense::mac
