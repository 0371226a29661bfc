#include "src/mac/dcf.hpp"

#include <algorithm>
#include <stdexcept>

namespace csense::mac {

using capacity::ofdm_timing;

namespace {
/// Scheduling slack added to response timeouts.
constexpr sim::time_us timeout_margin_us = 10.0;
/// Unicast retries before a frame is dropped (broadcast never retries).
constexpr int retry_limit = 7;
/// §5 heuristic: RTS/CTS turns on when the loss EWMA exceeds
/// rts_loss_threshold on a link whose SNR is at least
/// rts_snr_threshold_db (high loss despite high RSSI).
constexpr double rts_loss_threshold = 0.4;
constexpr double rts_snr_threshold_db = 15.0;
}  // namespace

dcf_node::dcf_node(sim::simulator& sim, medium& med, mac_config config,
                   std::uint64_t seed)
    : sim_(sim), medium_(med), config_(config), id_(med.add_node(*this)),
      rng_(seed), control_rate_(&capacity::rate_by_mbps(6.0)) {}

void dcf_node::set_traffic(traffic_mode mode, node_id destination,
                           const capacity::phy_rate& rate, int payload_bytes) {
    if (payload_bytes <= 0) throw std::invalid_argument("dcf_node: payload");
    traffic_ = mode;
    destination_ = destination;
    data_rate_ = &rate;
    payload_bytes_ = payload_bytes;
}

void dcf_node::set_traffic_model(const traffic_config& config) {
    if (config.queue_capacity < 0) {
        throw std::invalid_argument("dcf_node: queue_capacity");
    }
    if (!config.saturated() && !(config.offered_load_pps > 0.0)) {
        throw std::invalid_argument("dcf_node: offered_load_pps must be > 0");
    }
    traffic_model_ = config;
}

void dcf_node::set_rate_adaptation(capacity::rate_adaptation* adapter) {
    adaptation_ = adapter;
}

void dcf_node::start() {
    if (traffic_ == traffic_mode::none) return;
    if (traffic_model_.saturated()) {
        // The historical always-backlogged path: refill inline, no
        // arrival events — byte-identical to the pre-queue MAC.
        state_ = state::contending;
        new_packet();
        head_enqueued_us_ = sim_.now();
        reevaluate();
        return;
    }
    // The arrival stream is a split child of the node RNG: deriving it
    // consumes no draws, so giving one node Poisson traffic cannot
    // perturb any node's backoff sequence.
    arrival_rng_ = rng_.split("traffic");
    schedule_next_arrival();
}

void dcf_node::schedule_next_arrival() {
    const sim::time_us gap =
        arrival_rng_.exponential(traffic_model_.offered_load_pps / 1e6);
    sim_.schedule_in(gap, [this] { on_arrival(); });
}

void dcf_node::on_arrival() {
    ++stats_.offered_packets;
    if (!have_packet_) {
        head_enqueued_us_ = sim_.now();
        state_ = state::contending;
        new_packet();
        reevaluate();
    } else if (queue_.size() <
               static_cast<std::size_t>(traffic_model_.queue_capacity)) {
        queue_.push_back(sim_.now());
    } else {
        ++stats_.queue_drops;
    }
    schedule_next_arrival();
}

bool dcf_node::sense_enabled() const noexcept {
    return config_.sense != cs_mode::disabled;
}

bool dcf_node::senses_energy() const noexcept {
    return config_.sense == cs_mode::energy ||
           config_.sense == cs_mode::energy_and_preamble;
}

bool dcf_node::senses_preambles() const noexcept {
    return config_.sense == cs_mode::preamble ||
           config_.sense == cs_mode::energy_and_preamble;
}

bool dcf_node::rts_active() const {
    return config_.use_rts_cts ||
           (config_.adaptive_rts_cts && heuristic_rts_on_);
}

bool dcf_node::channel_busy() const {
    if (!sense_enabled()) return false;
    const sim::time_us now = sim_.now();
    if (now < nav_until_) return true;
    if (senses_energy() && energy_busy_) return true;
    return senses_preambles() && now < preamble_busy_until_;
}

void dcf_node::cancel_timer() {
    ++timer_generation_;
    difs_done_ = false;
}

void dcf_node::schedule_timer(sim::time_us delay,
                              void (dcf_node::*handler)()) {
    const std::uint64_t generation = ++timer_generation_;
    sim_.schedule_in(delay, [this, generation, handler] {
        if (generation == timer_generation_) (this->*handler)();
    });
}

void dcf_node::reevaluate() {
    if (state_ != state::contending || !have_packet_) return;
    if (channel_busy()) {
        cancel_timer();
        return;
    }
    if (medium_.transmitting(id_)) return;  // a response frame is on the air
    if (!difs_done_) {
        schedule_timer(ofdm_timing::difs_us, &dcf_node::on_difs_end);
    }
}

void dcf_node::on_difs_end() {
    if (state_ != state::contending || channel_busy()) return;
    if (medium_.transmitting(id_)) return;  // response frame on the air
    difs_done_ = true;
    if (slots_left_ == 0) {
        begin_transmission();
        return;
    }
    schedule_timer(ofdm_timing::slot_us, &dcf_node::on_slot);
}

void dcf_node::on_slot() {
    if (state_ != state::contending || channel_busy()) return;
    if (medium_.transmitting(id_)) return;  // response frame on the air
    if (--slots_left_ <= 0) {
        begin_transmission();
        return;
    }
    schedule_timer(ofdm_timing::slot_us, &dcf_node::on_slot);
}

frame dcf_node::make_data_frame() {
    frame f;
    f.kind = frame_kind::data;
    f.src = id_;
    f.dst = (traffic_ == traffic_mode::broadcast) ? broadcast_id
                                                  : destination_;
    f.bytes = payload_bytes_;
    f.rate = packet_rate_;
    f.sequence = frame_sequence_;
    return f;
}

frame dcf_node::make_control_frame(frame_kind kind, node_id dst,
                                   double nav_duration_us) {
    frame f;
    f.kind = kind;
    f.src = id_;
    f.dst = dst;
    f.rate = control_rate_;
    switch (kind) {
        case frame_kind::rts: f.bytes = control_frames::rts_bytes; break;
        case frame_kind::cts: f.bytes = control_frames::cts_bytes; break;
        case frame_kind::ack: f.bytes = control_frames::ack_bytes; break;
        case frame_kind::data:
            throw std::logic_error("make_control_frame: data");
    }
    f.sequence = frame_sequence_;
    f.nav_duration_us = nav_duration_us;
    return f;
}

double dcf_node::exchange_nav_us(const capacity::phy_rate& data_rate) const {
    // From the end of an RTS: CTS + data + ACK with three SIFS gaps.
    return 3.0 * ofdm_timing::sifs_us +
           capacity::frame_airtime_us(*control_rate_,
                                      control_frames::cts_bytes) +
           capacity::frame_airtime_us(data_rate, payload_bytes_) +
           capacity::frame_airtime_us(*control_rate_,
                                      control_frames::ack_bytes);
}

const capacity::phy_rate& dcf_node::current_data_rate() {
    if (adaptation_ != nullptr && traffic_ == traffic_mode::unicast) {
        return adaptation_->next_rate();
    }
    return *data_rate_;
}

void dcf_node::new_packet() {
    have_packet_ = true;
    retries_ = 0;
    cw_ = ofdm_timing::cw_min;
    ++frame_sequence_;
    packet_rate_ = &current_data_rate();
    slots_left_ = static_cast<int>(rng_.uniform_int(
        static_cast<std::uint64_t>(cw_) + 1));
    difs_done_ = false;
}

void dcf_node::retry_packet() {
    ++retries_;
    if (retries_ > retry_limit) {
        ++stats_.data_dropped;
        packet_done(false);
        return;
    }
    cw_ = std::min(2 * (cw_ + 1) - 1, ofdm_timing::cw_max);
    slots_left_ = static_cast<int>(rng_.uniform_int(
        static_cast<std::uint64_t>(cw_) + 1));
    difs_done_ = false;
    packet_rate_ = &current_data_rate();  // adaptation may back off the rate
    state_ = state::contending;
    reevaluate();
}

void dcf_node::packet_done(bool delivered) {
    if (delivered && have_packet_) {
        sojourn_.add(sim_.now() - head_enqueued_us_);
    }
    have_packet_ = false;
    state_ = state::contending;
    if (traffic_ == traffic_mode::none) return;
    if (traffic_model_.saturated()) {
        new_packet();  // saturated traffic always has a next packet
        head_enqueued_us_ = sim_.now();
        reevaluate();
        return;
    }
    if (queue_.empty()) {
        state_ = state::idle;  // drained; the next arrival restarts us
        return;
    }
    head_enqueued_us_ = queue_.front();
    queue_.pop_front();
    new_packet();
    reevaluate();
}

void dcf_node::begin_transmission() {
    cancel_timer();
    if (rts_active() && traffic_ == traffic_mode::unicast) {
        // NAV runs from the end of the RTS: CTS + DATA + ACK + 3 SIFS.
        frame rts = make_control_frame(frame_kind::rts, destination_,
                                       exchange_nav_us(*packet_rate_));
        ++stats_.rts_sent;
        transmit_frame(rts);
        return;
    }
    transmit_frame(make_data_frame());
}

void dcf_node::transmit_frame(const frame& f) {
    state_ = state::transmitting;
    medium_.start_transmission(id_, f, sense_enabled());
}

void dcf_node::start_response_timeout(state waiting_state,
                                      sim::time_us timeout) {
    state_ = waiting_state;
    const std::uint64_t generation = ++timer_generation_;
    sim_.schedule_in(timeout, [this, generation] {
        if (generation != timer_generation_) return;
        if (state_ == state::awaiting_cts || state_ == state::awaiting_ack) {
            note_unicast_outcome(false);
            retry_packet();
        }
    });
}

void dcf_node::queue_response(const frame& response,
                              std::uint64_t node_stats::*counter) {
    // Respond after SIFS, bypassing carrier sense (802.11 gives CTS/ACK
    // the SIFS priority window); the re-check lets a response queued
    // while we started transmitting be dropped silently.
    pending_response_ = response;
    response_queued_ = true;
    sim_.schedule_in(ofdm_timing::sifs_us, [this, counter] {
        if (response_queued_ && !medium_.transmitting(id_)) {
            response_queued_ = false;
            ++(stats_.*counter);
            medium_.start_transmission(id_, pending_response_, false);
        }
    });
}

void dcf_node::note_unicast_outcome(bool delivered) {
    if (traffic_ != traffic_mode::unicast) return;
    if (adaptation_ != nullptr && packet_rate_ != nullptr) {
        adaptation_->report(*packet_rate_, delivered,
                            capacity::frame_airtime_us(*packet_rate_,
                                                       payload_bytes_));
    }
    if (config_.adaptive_rts_cts) {
        constexpr double weight = 0.1;
        loss_ewma_ = (1.0 - weight) * loss_ewma_ + weight * (delivered ? 0.0 : 1.0);
        const double snr_db = medium_.rx_power_dbm(destination_, id_) -
                              medium_.radio().noise_floor_dbm;
        heuristic_rts_on_ = loss_ewma_ > rts_loss_threshold &&
                            snr_db >= rts_snr_threshold_db;
    }
}

double dcf_node::cs_threshold_dbm() const {
    return medium_.cca_threshold_dbm(id_);
}

void dcf_node::set_cs_threshold_dbm(double threshold_dbm) {
    medium_.set_cca_threshold_dbm(id_, threshold_dbm);
}

sim::time_us dcf_node::energy_busy_time_us() const {
    return busy_accum_us_ + (energy_busy_ ? sim_.now() - busy_since_ : 0.0);
}

void dcf_node::on_energy_busy(bool busy) {
    const sim::time_us now = sim_.now();
    if (busy) {
        busy_since_ = now;
    } else {
        busy_accum_us_ += now - busy_since_;
    }
    energy_busy_ = busy;
    // Busy time counts for every node, but only energy sensing defers
    // on it: elsewhere a flip changes no decision, and re-evaluating
    // would restart a running DIFS.
    if (!senses_energy()) return;
    if (busy && state_ == state::contending && difs_done_) {
        ++stats_.defer_events;
    }
    reevaluate();
}

void dcf_node::on_preamble(sim::time_us until) {
    // A pure receiver never contends: nothing reads its deferral state,
    // and the wake-up would pop as a no-op.
    if (traffic_ == traffic_mode::none) return;
    if (!senses_preambles()) return;  // this radio's CCA ignores preambles
    if (until > preamble_busy_until_) {
        preamble_busy_until_ = until;
        if (state_ == state::contending && difs_done_) ++stats_.defer_events;
        reevaluate();
        // Wake up when the frame ends to resume contention; reevaluate is
        // idempotent, so an unconditional wake-up is safe.
        sim_.schedule_at(until, [this] { reevaluate(); });
    }
}

void dcf_node::defer_for_nav(sim::time_us duration_us) {
    // Like on_preamble, a pure receiver skips the NAV and its wake-up.
    if (traffic_ == traffic_mode::none || !sense_enabled()) return;
    nav_until_ = std::max(nav_until_, sim_.now() + duration_us);
    reevaluate();
    sim_.schedule_at(nav_until_, [this] { reevaluate(); });
}

void dcf_node::on_frame_received(const frame& f, bool decoded) {
    if (f.kind == frame_kind::data) {
        if (decoded) {
            ++stats_.rx_data_decoded;
            ++stats_.rx_decoded_by_src[f.src];
        } else {
            ++stats_.rx_data_lost;
        }
    }
    if (!decoded) return;

    const bool for_me = (f.dst == id_);
    switch (f.kind) {
        case frame_kind::data:
            if (for_me) {
                queue_response(make_control_frame(frame_kind::ack, f.src, 0.0),
                               &node_stats::acks_sent);
            }
            break;
        case frame_kind::rts:
            if (for_me && !medium_.transmitting(id_)) {
                queue_response(
                    make_control_frame(
                        frame_kind::cts, f.src,
                        f.nav_duration_us -
                            capacity::frame_airtime_us(
                                *control_rate_, control_frames::cts_bytes) -
                            ofdm_timing::sifs_us),
                    &node_stats::cts_sent);
            } else if (!for_me) {
                defer_for_nav(f.nav_duration_us);
            }
            break;
        case frame_kind::cts:
            if (for_me && state_ == state::awaiting_cts) {
                // Protected: send the data frame after SIFS.
                ++timer_generation_;  // retire the CTS timeout
                state_ = state::responding;
                sim_.schedule_in(ofdm_timing::sifs_us, [this] {
                    if (state_ == state::responding &&
                        !medium_.transmitting(id_)) {
                        transmit_frame(make_data_frame());
                    }
                });
            } else if (!for_me) {
                defer_for_nav(f.nav_duration_us);
            }
            break;
        case frame_kind::ack:
            if (for_me && state_ == state::awaiting_ack) {
                ++timer_generation_;  // retire the ACK timeout
                ++stats_.data_acked;
                note_unicast_outcome(true);
                packet_done(true);
            }
            break;
    }
}

void dcf_node::on_tx_complete(const frame& f) {
    switch (f.kind) {
        case frame_kind::data:
            ++stats_.data_sent;
            if (traffic_ == traffic_mode::broadcast) {
                packet_done(true);
            } else {
                const sim::time_us timeout =
                    ofdm_timing::sifs_us +
                    capacity::frame_airtime_us(*control_rate_,
                                               control_frames::ack_bytes) +
                    timeout_margin_us;
                start_response_timeout(state::awaiting_ack, timeout);
            }
            break;
        case frame_kind::rts: {
            const sim::time_us timeout =
                ofdm_timing::sifs_us +
                capacity::frame_airtime_us(*control_rate_,
                                           control_frames::cts_bytes) +
                timeout_margin_us;
            start_response_timeout(state::awaiting_cts, timeout);
            break;
        }
        case frame_kind::cts:
        case frame_kind::ack:
            // Response sent; resume our own contention if any.
            if (state_ == state::contending && have_packet_) {
                difs_done_ = false;
                reevaluate();
            }
            break;
    }
}

}  // namespace csense::mac
