// The shared wireless medium: link gains, active transmissions,
// SINR-tracked receptions, and the energy-detect clear-channel
// assessment (CCA) of every node.
//
// Reception model (matching the thesis' §4 hardware notes):
//  - a receiver locks onto a frame at preamble time if it is not
//    transmitting, not already locked, the received power exceeds the
//    preamble sensitivity, and the instantaneous SINR exceeds the
//    capture threshold (radio_config::preamble_capture_snr_db);
//  - there is no receive abort: once locked, a stronger later frame is
//    just interference (the thesis notes its testbed ran this way);
//  - the frame decodes with probability 1 - PER (the logistic model,
//    capacity::logistic_per_model) evaluated at the worst SINR observed
//    during the reception. A lock tracks the worst external power it
//    has seen, and the SINR is formed once, when the reception settles:
//    signal / max(external - signal, tiny) never increases as external
//    grows, also under round-to-nearest (rounded subtraction, max and
//    division by a positive value are all monotone), so the SINR at
//    the worst external power is the worst SINR, bit for bit;
//  - nodes that are transmitting hear nothing - the root of the
//    "chain collision" pathology for preamble-based carrier sense.
//
// Listeners hear only what they act on: a passing preamble reports the
// frame's end time, and a finished reception reports the frame and
// whether it decoded. Powers and SINRs stay inside the medium.
//
// Energy-detect CCA lives here, not in the nodes. Each node registers
// its threshold, which the medium holds in mW next to the node's last
// CCA sample of external power and its busy bit - in the node's
// one-cache-line record (node_air) with its power sum, on-air flag and
// lock, so a row visit or a CCA sample touches one line per node. A
// power change is sampled cca_delay_us later (the stale window behind
// slot collisions); the sample is compared in mW and the node hears
// medium_listener::on_energy_busy only when its busy bit flips. The
// sample after a transmission starts or ends covers the transmitter's
// audible neighbors - the nodes whose power moved - plus the
// transmitter itself (a half-duplex radio re-sensing after its own
// frame), in ascending node id.
//
// A start schedules one kernel event, the after-start event, one CCA
// lag later: it first announces the frame's decodable preamble
// (on_preamble) to each neighbor that passed the preamble test, in row
// order, and then takes the row's CCA sample - the order k + 1
// same-time events would fire in. The lag is below one slot
// (radio_config::cca_delay_us, checked at construction) and a frame
// lasts longer, so the event always finds the frame still on the air.
// An end schedules its CCA sample alone.
//
// Scaling model: link gains go into an append-only table that is
// sorted once; at the first transmission the topology freezes into
// per-node audibility neighbor lists (CSR rows, sorted by node id) with
// each link's rx power precomputed in mW. Every node carries an
// incremental compensated running sum of external power
// (stats::kahan_sum, branch-free TwoSum), updated on tx start/end. A
// start or an end is one pass over the transmitter's row - the start's
// pass also does the pathology accounting - with no branch on a
// neighbor's lock on the common path, and SINR is a linear ratio,
// converted to dB once per reception at the PER lookup - so every
// event is O(k) in the transmitter's k audible neighbors. An exact
// reset whenever a node's audible set empties plus an exact refresh
// every 4,096 transmission ends keep the incremental sums drift-free
// and deterministic. radio_config::audibility_floor_dbm
// decides which links join the rows: with the floor disabled (the
// default, a floor at -infinity) every link set with set_link_gain_db
// is audible and the medium is exact, k = N - 1 on a full topology;
// with a floor, links whose received power falls below it are treated
// as exactly zero and k no longer grows with N. A link that was never
// set carries no power in either case.
//
// Memory: a half-duplex node has at most one frame on the air, so each
// node owns one transmission slot that it reuses frame after frame, and
// a reception names its transmitter by node id. Nothing is kept once a
// frame leaves the air: the medium holds O(N + links) for any run
// length, and with fading each slot's faded row keeps its capacity, so
// steady-state frames allocate nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/mac/frame.hpp"
#include "src/mac/wireless_config.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"

namespace csense::mac {

/// Callbacks a node registers with the medium.
class medium_listener {
public:
    virtual ~medium_listener() = default;

    /// This node's energy-detect CCA flipped: `busy` is true when its
    /// last CCA sample of external power reached its threshold. Called
    /// only on a flip - after a CCA sample, or synchronously from
    /// medium::set_cca_threshold_dbm - never to repeat the current state.
    virtual void on_energy_busy(bool busy) = 0;

    /// A decodable preamble passed by (node idle or locked, power above
    /// sensitivity). `until` is the frame's scheduled end time.
    virtual void on_preamble(sim::time_us until) = 0;

    /// A locked reception of `f` finished. `decoded` reflects the PER
    /// draw at the worst SINR seen during the frame.
    virtual void on_frame_received(const frame& f, bool decoded) = 0;

    /// This node's own transmission left the air.
    virtual void on_tx_complete(const frame& f) = 0;
};

/// Network-wide pathology counters (§5's implementation corner cases).
struct medium_counters {
    std::uint64_t transmissions = 0;
    std::uint64_t slot_collisions = 0;  ///< mutual-sensers starting within
                                        ///< one slot of each other
    std::uint64_t chain_collisions = 0; ///< tx started over an audible
                                        ///< frame whose preamble was missed
    std::uint64_t busy_starts = 0;      ///< tx started over any audible frame
};

/// The medium itself.
class medium {
public:
    /// Throws std::invalid_argument when the audibility floor is enabled
    /// but not below the preamble sensitivity (culling must only drop
    /// power that is negligible for every CCA and preamble decision),
    /// or when radio.cca_delay_us lies outside [0, slot_us) (NaN
    /// included). `errors` must outlive the medium.
    medium(sim::simulator& sim, radio_config radio,
           const capacity::logistic_per_model& errors, std::uint64_t seed);

    /// Register a node; ids must be assigned densely from 0. The node's
    /// CCA threshold starts at `cca_threshold_dbm` (radio().
    /// cs_threshold_dbm when omitted) and its CCA reads idle until the
    /// first sample. Throws std::invalid_argument, registering nothing,
    /// when the threshold is rejected (see set_cca_threshold_dbm).
    node_id add_node(medium_listener& listener);
    node_id add_node(medium_listener& listener, double cca_threshold_dbm);

    /// Pre-size internal per-node storage for `nodes` registrations.
    /// Purely an allocation hint - results never depend on it.
    void reserve_nodes(std::size_t nodes);
    /// Pre-size the link table for `links` set_link_gain_db calls and
    /// the neighbor lists the freeze builds from it (two slots per
    /// link). Purely an allocation hint - results never depend on it.
    /// Called before the nodes are added, it allocates the medium's
    /// largest buffers first, each in one piece, so successive networks
    /// reuse one another's freed space instead of extending the heap
    /// whenever a slightly larger table no longer fits between the
    /// per-node blocks.
    void reserve_links(std::size_t links);

    std::size_t node_count() const noexcept { return listeners_.size(); }

    /// Symmetric link gain in dB (negative; rx = tx_power + gain). A
    /// repeated call for the same link replaces the earlier gain.
    /// Throws std::invalid_argument on an unknown node id or a == b, and
    /// std::logic_error when setting a gain after the topology froze.
    void set_link_gain_db(node_id a, node_id b, double gain_db);
    /// The last gain set for the link; -infinity (no power) for a link
    /// that was never set.
    double link_gain_db(node_id a, node_id b) const;

    /// Received power at `rx` of a transmission from `tx`, in dBm.
    double rx_power_dbm(node_id tx, node_id rx) const;

    /// Begin transmitting; the frame occupies the air for its airtime and
    /// the medium schedules all consequences. A node must not already be
    /// transmitting. `cs_said_idle` lets the medium classify pathological
    /// starts (it does not change behaviour).
    void start_transmission(node_id src, const frame& f, bool cs_said_idle);

    /// True if the node is currently transmitting. Throws
    /// std::invalid_argument on an unknown node id.
    bool transmitting(node_id n) const;

    /// Total external power at a node right now, in dBm (noise floor when
    /// the air is silent).
    double external_power_dbm(node_id n) const;

    /// Move node `n`'s energy-detect CCA threshold. The busy state is
    /// re-judged at once against the node's last CCA sample - not the
    /// live power, which the node has not sensed yet - and a flip is
    /// reported synchronously through on_energy_busy. Throws
    /// std::invalid_argument on an unknown node id, a NaN threshold, or
    /// a threshold at or below the audibility floor (the node would be
    /// deaf to culled power that should count).
    void set_cca_threshold_dbm(node_id n, double threshold_dbm);

    /// Node `n`'s current energy-detect CCA threshold in dBm, as last
    /// registered (add_node or set_cca_threshold_dbm). Throws
    /// std::invalid_argument on an unknown node id.
    double cca_threshold_dbm(node_id n) const;

    const medium_counters& counters() const noexcept { return counters_; }
    const radio_config& radio() const noexcept { return radio_; }

    /// Audible neighbors of `n`: the size of its CSR row. The topology
    /// must be frozen first (any transmission freezes it).
    std::size_t neighbor_count(node_id n) const;

    /// Transmission slots held: one per registered node, reused frame
    /// after frame, so this equals node_count() however long the run
    /// lasts. Exposed for the bounded-memory regression tests.
    std::size_t transmission_log_size() const noexcept {
        return slots_.size();
    }

private:
    /// A node's transmission slot; meaningful while the node is on air.
    struct transmission {
        frame f;
        sim::time_us start = 0.0;
        sim::time_us end = 0.0;
        /// With fading: faded rx power in mW per CSR neighbor slot of
        /// the node. Empty without fading (the frame then reads the
        /// precomputed unfaded row directly).
        std::vector<double> rx_mw;
        /// The row neighbors that can decode this frame's preamble, in
        /// row order, announced by the after-start event. Cleared per
        /// frame; keeps its capacity like rx_mw.
        std::vector<node_id> announce;
    };

    /// reception::src of a node that holds no lock.
    static constexpr node_id no_lock = std::numeric_limits<node_id>::max();

    /// A node's reception in progress. Every start raises
    /// max_external_mw at each row neighbor, locked or not (a new lock
    /// overwrites it), and the reception settles at the SINR of the
    /// worst external power (see the header comment).
    struct reception {
        node_id src = no_lock;  ///< the transmitter, on air until it ends
        double signal_mw = 0.0;
        double max_external_mw = 0.0;  ///< worst external power so far
    };

    /// All the per-node state a row visit or a CCA sample touches, one
    /// cache line per node (the registered dBm threshold, read only by
    /// cca_threshold_dbm, stays in a cold vector).
    struct alignas(64) node_air {
        /// External power in mW, excluding the noise floor.
        stats::kahan_sum ext_mw;
        double cca_threshold_mw = 0.0;  ///< smallest power that reads busy
        double cca_sample_mw = 0.0;     ///< last CCA-sampled external power
        reception lock;
        std::uint32_t audible = 0;  ///< audible frames on air behind ext_mw
        bool on_air = false;
        bool cca_busy = false;
    };
    static_assert(sizeof(node_air) == 64,
                  "node_air must stay one cache line; rebalance the field "
                  "layout if you add state");

    /// One set_link_gain_db call, keyed by link_key.
    struct link_entry {
        std::uint64_t key;
        double gain_db;
    };

    void check_node(node_id n, const char* what) const;
    /// Validated threshold in mW; see set_cca_threshold_dbm.
    double checked_cca_threshold_mw(double threshold_dbm) const;
    /// A CCA sample of node n's external power, judged at once.
    void cca_sample(node_id n);
    /// Compare n's last sample with its threshold; report a flip.
    void cca_judge(node_id n);
    /// Noise floor plus the clamped incremental sum - the one definition
    /// of external power behind every read (public accessor, CCA
    /// samples, interference subtraction).
    double external_mw(const node_air& node) const;
    void end_transmission(node_id src);

    static std::uint64_t link_key(node_id a, node_id b) noexcept;
    /// Sort links_ by key, keeping each key's last write. Runs at the
    /// first lookup after a write and at the freeze.
    void sort_links() const;
    void freeze_topology();
    /// Per-slot rx power (mW) of src's frame on air over its CSR row.
    const double* row_rx_mw(node_id src) const;
    void refresh_power_sums();
    /// The CCA sample that follows a start or an end by `src`.
    void sample_row_cca(node_id src);

    sim::simulator& sim_;
    radio_config radio_;
    const capacity::logistic_per_model& errors_;
    stats::rng rng_;
    std::vector<medium_listener*> listeners_;
    // Per-node slots never reallocate once frames flow: add_node throws
    // after the freeze, which the first transmission triggers.
    std::vector<node_air> nodes_;
    std::vector<double> cca_threshold_dbm_;  ///< as registered, cold
    std::vector<transmission> slots_;

    // Symmetric gains keyed by (min, max) node id, appended per call and
    // sorted lazily (a lookup may come before the freeze, e.g. a
    // controller reading its link's rx power, hence mutable); stays
    // authoritative for link_gain_db after the freeze.
    mutable std::vector<link_entry> links_;
    mutable bool links_sorted_ = true;
    bool frozen_ = false;
    // CSR audibility neighbor lists, built at freeze time: row n holds
    // the ids that can hear n (and that n can hear - gains are
    // symmetric), sorted ascending, with the unfaded rx power in mW.
    std::vector<std::uint32_t> nbr_offset_;
    std::vector<node_id> nbr_id_;
    std::vector<double> nbr_rx_mw_;
    int ends_since_refresh_ = 0;
    /// One settled reception, staged so delivery callbacks run after
    /// all lock bookkeeping (they may re-enter start_transmission).
    struct delivery {
        node_id rx;
        bool decoded;
    };
    /// Reused by end_transmission: capacity reaches its high-water mark
    /// once, then the per-event hot path allocates nothing.
    std::vector<delivery> delivery_scratch_;
    // Thresholds precomputed in linear units so hot loops never leave mW.
    double noise_mw_ = 0.0;
    double preamble_threshold_mw_ = 0.0;
    double cs_threshold_mw_ = 0.0;
    double capture_ratio_ = 0.0;  ///< preamble_capture_snr_db, linear
    medium_counters counters_;
};

}  // namespace csense::mac
