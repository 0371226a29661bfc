// Radio and MAC configuration shared by the packet-level simulator.
// Defaults follow the thesis' hardware (§3.2.2 fn. 5, §4): 15 dBm
// transmitters, a -95 dBm noise floor, energy-detection carrier sense
// near -82 dBm, 802.11a OFDM timing, and 1400-byte broadcast frames.
#pragma once

#include "src/capacity/rate_table.hpp"

namespace csense::mac {

/// How a node's clear-channel assessment decides "busy".
enum class cs_mode {
    disabled,             ///< never defer (the thesis' CS-off mode)
    energy,               ///< total received power above threshold
    preamble,             ///< busy only while a decoded preamble's frame is
                          ///< in the air (vulnerable to chain collisions)
    energy_and_preamble,  ///< either signal marks the channel busy
};

/// Sentinel for radio_config::audibility_floor_dbm: no culling. The
/// medium treats it as a floor at -infinity, so every link set with
/// medium::set_link_gain_db is audible and the medium is exact.
inline constexpr double audibility_floor_disabled_dbm = -1.0e300;

/// Per-deployment radio constants.
struct radio_config {
    double tx_power_dbm = 15.0;
    double noise_floor_dbm = -95.0;
    double cs_threshold_dbm = -82.0;       ///< energy-detection threshold
    double preamble_threshold_dbm = -92.0; ///< preamble decode sensitivity
    double preamble_capture_snr_db = 4.0;  ///< SINR needed to lock onto a frame
    double cca_delay_us = 4.0;             ///< clear-channel-assessment lag;
                                           ///< the vulnerability window behind
                                           ///< slot collisions; must lie in
                                           ///< [0, slot_us), or mac::medium
                                           ///< throws (NaN included)
    double fading_sigma_db = 0.0;          ///< per-packet, per-link wideband
                                           ///< fading residue (lognormal dB)

    /// Medium-scaling knob: received powers below this floor are treated
    /// as exactly zero, and the medium leaves such links out of its
    /// per-node audibility neighbor lists (CSR), so every transmission
    /// event is O(audible neighbors). When fading_sigma_db > 0 the
    /// cull criterion is the link's *mean* rx power against the floor
    /// minus a 3-sigma fade allowance, so links whose faded tail can
    /// still cross a CCA threshold stay in the neighbor lists (the
    /// dropped tail is < 0.15% of frames). Recommended value for dense
    /// campaigns: noise_floor_dbm - 20 (a -115 dBm signal moves a -95 dBm
    /// noise floor by < 0.02 dB). Caveat: the floor is per-link, but
    /// culled links are dropped individually while their *aggregate*
    /// adds up - with thousands of simultaneous far transmitters the
    /// summed sub-floor power can approach the noise floor, so at
    /// extreme densities pick the floor with the aggregate in mind
    /// (camp05 quantifies this per density as its
    /// `culled_residual_*_dbm` metrics). Must sit below preamble_threshold_dbm
    /// and below every carrier-sense threshold the run can reach, or
    /// culling would change CCA/preamble semantics rather than just
    /// dropping negligible power. The medium enforces this: its
    /// constructor checks preamble_threshold_dbm and cs_threshold_dbm,
    /// and every per-node threshold it is handed (each
    /// dcf_node::set_cs_threshold_dbm override, such as the ones an
    /// adaptive controller installs) is rejected with
    /// std::invalid_argument at or below the floor. run_multi_pair also
    /// checks the adaptive clamp, adaptive_cs_controller::
    /// min_threshold_dbm, up front, before any simulation time is spent.
    /// Default: disabled (every set link is audible; the exact medium).
    double audibility_floor_dbm = audibility_floor_disabled_dbm;

    /// True when audibility_floor_dbm is set (sub-floor links culled).
    bool audibility_enabled() const noexcept {
        return audibility_floor_dbm > audibility_floor_disabled_dbm;
    }
};

/// How a node's closed-loop carrier-sense threshold controller moves
/// `cs_threshold_dbm` between adaptation epochs (src/mac/adaptive_cs.hpp).
enum class cs_adapt_policy {
    fixed,                 ///< static threshold: adaptation machinery off
    aimd,                  ///< additive raise while clean, multiplicative
                           ///< (in dB) back-off on a loss signal
    target_busy,           ///< integral control of the sensed busy-time
                           ///< fraction to a set point
    iterative_fixed_point, ///< online Kim & Kim balance: step the threshold
                           ///< until the measured concurrent capacity
                           ///< equals the fair TDMA share
};

/// Per-node knobs of the closed-loop threshold controller. The control
/// laws' gains are constants in src/mac/adaptive_cs.cpp, and the
/// threshold clamp is adaptive_cs_controller's. The controller acts on
/// the node's *effective* energy-detection threshold (the
/// dcf_node::set_cs_threshold_dbm override that replaces
/// radio_config::cs_threshold_dbm once adaptation is enabled).
struct cs_adaptation_config {
    /// Which control law runs; `fixed` disables adaptation entirely (no
    /// epoch events are scheduled, so a run is byte-identical to one
    /// without any adaptation support).
    cs_adapt_policy policy = cs_adapt_policy::fixed;

    /// Adaptation epoch in microseconds: the controller samples its
    /// EWMAs and moves the threshold once per epoch.
    double epoch_us = 50'000.0;

    /// Optional exploration dither, dB, drawn uniformly in
    /// [-jitter_db/2, +jitter_db/2] from the node's split RNG stream
    /// each epoch. 0 keeps every policy fully deterministic.
    double jitter_db = 0.0;

    /// True when the policy actually adapts (anything but `fixed`).
    bool enabled() const noexcept { return policy != cs_adapt_policy::fixed; }
};

/// Arrival process of a node's offered traffic (dcf_node draws the
/// Poisson gaps itself).
enum class traffic_model {
    saturated,  ///< always backlogged: a new frame the instant one
                ///< finishes (the historical behaviour, and the default)
    poisson,    ///< memoryless arrivals at offered_load_pps
};

/// Traffic + queue knobs of one node. The default (saturated, and any
/// queue capacity) reproduces the pre-queue event sequence exactly: no
/// arrival events are scheduled and the node refills inline.
struct traffic_config {
    traffic_model model = traffic_model::saturated;

    /// Mean offered load, packets/second. Ignored by the saturated
    /// model; must be > 0 for Poisson.
    double offered_load_pps = 100.0;

    /// Finite FIFO capacity: packets that may wait behind the one in
    /// service. Arrivals beyond this are dropped and counted
    /// (node_stats::queue_drops).
    int queue_capacity = 64;

    /// True for the always-backlogged model (no arrival machinery).
    bool saturated() const noexcept {
        return model == traffic_model::saturated;
    }
};

/// Per-node MAC behaviour. The 802.11 contention window is
/// capacity::ofdm_timing::cw_min/cw_max; the retry limit and the §5
/// trigger's thresholds are constants of src/mac/dcf.cpp.
struct mac_config {
    cs_mode sense = cs_mode::energy_and_preamble;
    bool use_rts_cts = false;  ///< static RTS/CTS for unicast data
    bool adaptive_rts_cts = false;  ///< §5 heuristic: enable RTS/CTS only
                                    ///< when loss is high despite high RSSI

    /// Closed-loop carrier-sense threshold adaptation (defaults to
    /// `fixed`, i.e. off). adaptive_cs_manager reads this per-node
    /// config to build the node's controller and drives the
    /// dcf_node::set_cs_threshold_dbm override every epoch (multi-pair
    /// runs copy multi_pair_config::adapt here and install the manager
    /// automatically when the policy is enabled).
    cs_adaptation_config adapt;
};

/// Control-frame sizes in bytes (802.11 MAC).
struct control_frames {
    static constexpr int rts_bytes = 20;
    static constexpr int cts_bytes = 14;
    static constexpr int ack_bytes = 14;
};

}  // namespace csense::mac
