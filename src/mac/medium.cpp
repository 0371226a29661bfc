#include "src/mac/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/propagation/units.hpp"

namespace csense::mac {

namespace {
/// Positive floor for interference computed by subtraction, so SINR
/// ratios stay finite even if compensated rounding dips below zero.
constexpr double min_positive_mw = 1e-300;

/// Every this-many transmission ends the medium rebuilds each node's
/// running external-power sum exactly from the frames on the air, so
/// the compensated incremental sums cannot drift over long runs. Keyed
/// to event counts, never wall clock, so runs stay deterministic.
constexpr int power_refresh_interval = 4096;

/// The smallest power in mW whose dBm reading reaches `threshold_dbm`.
/// mw_to_dbm is monotone, so `mw >= result` decides exactly as
/// `mw_to_dbm(mw) >= threshold_dbm` does - the CCA compare stays in mW
/// without moving any decision by the rounding of the two conversions.
double cca_threshold_mw(double threshold_dbm) {
    // 0 mW has no dBm reading, so the search stays above it.
    constexpr double smallest = std::numeric_limits<double>::denorm_min();
    double mw = std::max(propagation::dbm_to_mw(threshold_dbm), smallest);
    while (propagation::mw_to_dbm(mw) < threshold_dbm) {
        mw = std::nextafter(mw, std::numeric_limits<double>::infinity());
    }
    while (mw > smallest &&
           propagation::mw_to_dbm(std::nextafter(mw, 0.0)) >= threshold_dbm) {
        mw = std::nextafter(mw, 0.0);
    }
    return mw;
}
}  // namespace

medium::medium(sim::simulator& sim, radio_config radio,
               const capacity::logistic_per_model& errors, std::uint64_t seed)
    : sim_(sim), radio_(radio), errors_(errors), rng_(seed) {
    // Negated so that NaN fails too. The after-start event reads the
    // frame's slot one lag after the start, and every frame outlasts a
    // slot.
    if (!(radio_.cca_delay_us >= 0.0 &&
          radio_.cca_delay_us < capacity::ofdm_timing::slot_us)) {
        throw std::invalid_argument(
            "medium: cca_delay_us must lie in [0, slot_us)");
    }
    // A disabled floor is a floor at -infinity and passes trivially.
    if (radio_.audibility_floor_dbm >= radio_.preamble_threshold_dbm ||
        radio_.audibility_floor_dbm >= radio_.cs_threshold_dbm) {
        throw std::invalid_argument(
            "medium: audibility_floor_dbm must sit below both "
            "preamble_threshold_dbm and cs_threshold_dbm - culling may only "
            "drop power that is negligible for every CCA and preamble "
            "decision");
    }
    noise_mw_ = propagation::dbm_to_mw(radio_.noise_floor_dbm);
    preamble_threshold_mw_ =
        propagation::dbm_to_mw(radio_.preamble_threshold_dbm);
    cs_threshold_mw_ = propagation::dbm_to_mw(radio_.cs_threshold_dbm);
    capture_ratio_ = propagation::db_to_linear(radio_.preamble_capture_snr_db);
}

void medium::check_node(node_id n, const char* what) const {
    if (n >= listeners_.size()) {
        throw std::invalid_argument(std::string(what) + ": bad node");
    }
}

void medium::reserve_nodes(std::size_t nodes) {
    listeners_.reserve(nodes);
    nodes_.reserve(nodes);
    cca_threshold_dbm_.reserve(nodes);
    slots_.reserve(nodes);
}

void medium::reserve_links(std::size_t links) {
    links_.reserve(links);
    nbr_id_.reserve(2 * links);
    nbr_rx_mw_.reserve(2 * links);
}

node_id medium::add_node(medium_listener& listener) {
    return add_node(listener, radio_.cs_threshold_dbm);
}

node_id medium::add_node(medium_listener& listener, double cca_threshold_dbm) {
    if (frozen_) {
        throw std::logic_error("medium::add_node: topology is frozen once "
                               "transmissions begin");
    }
    node_air node;
    node.cca_threshold_mw = checked_cca_threshold_mw(cca_threshold_dbm);
    node.cca_sample_mw = noise_mw_;  // the silent air, until the first sample
    const auto id = static_cast<node_id>(listeners_.size());
    listeners_.push_back(&listener);
    nodes_.push_back(node);
    cca_threshold_dbm_.push_back(cca_threshold_dbm);
    slots_.emplace_back();
    return id;
}

std::uint64_t medium::link_key(node_id a, node_id b) noexcept {
    const node_id lo = a < b ? a : b;
    const node_id hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void medium::set_link_gain_db(node_id a, node_id b, double gain_db) {
    const std::size_t n = listeners_.size();
    if (a >= n || b >= n || a == b) {
        throw std::invalid_argument("medium::set_link_gain_db: bad link");
    }
    if (frozen_) {
        throw std::logic_error(
            "medium::set_link_gain_db: neighbor lists are frozen once "
            "transmissions begin");
    }
    links_.push_back({link_key(a, b), gain_db});
    links_sorted_ = false;
}

void medium::sort_links() const {
    if (links_sorted_) return;
    // Stable, so repeated writes of one link stay in call order and the
    // last of each run is the one to keep.
    std::stable_sort(links_.begin(), links_.end(),
                     [](const link_entry& x, const link_entry& y) {
                         return x.key < y.key;
                     });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < links_.size(); ++i) {
        if (i + 1 < links_.size() && links_[i + 1].key == links_[i].key) {
            continue;
        }
        links_[kept++] = links_[i];
    }
    links_.resize(kept);
    links_sorted_ = true;
}

double medium::link_gain_db(node_id a, node_id b) const {
    const std::size_t n = listeners_.size();
    if (a >= n || b >= n || a == b) {
        throw std::invalid_argument("medium::link_gain_db: bad link");
    }
    sort_links();
    const std::uint64_t key = link_key(a, b);
    const auto it = std::lower_bound(
        links_.begin(), links_.end(), key,
        [](const link_entry& link, std::uint64_t k) { return link.key < k; });
    return it != links_.end() && it->key == key
               ? it->gain_db
               : -std::numeric_limits<double>::infinity();
}

double medium::rx_power_dbm(node_id tx, node_id rx) const {
    return radio_.tx_power_dbm + link_gain_db(tx, rx);
}

bool medium::transmitting(node_id n) const {
    check_node(n, "medium::transmitting");
    return nodes_[n].on_air;
}

std::size_t medium::neighbor_count(node_id n) const {
    check_node(n, "medium::neighbor_count");
    if (!frozen_) {
        throw std::logic_error(
            "medium::neighbor_count: neighbor lists are built when the "
            "topology freezes (at the first transmission)");
    }
    return nbr_offset_[n + 1] - nbr_offset_[n];
}

void medium::freeze_topology() {
    frozen_ = true;
    sort_links();
    const std::size_t n = listeners_.size();
    nbr_offset_.assign(n + 1, 0);
    // Fading can lift a link above its mean: keep every link whose
    // *mean* rx power reaches the floor after a 3-sigma fade allowance
    // (the dropped tail is < 0.15% of frames), so the culled set still
    // only loses power that is negligible for CCA when fading is on.
    // With the floor disabled every finite gain passes.
    const double effective_floor_dbm =
        radio_.audibility_floor_dbm - 3.0 * radio_.fading_sigma_db;
    const auto audible = [&](double gain_db) {
        return radio_.tx_power_dbm + gain_db >= effective_floor_dbm;
    };
    for (const link_entry& link : links_) {
        if (!audible(link.gain_db)) continue;
        ++nbr_offset_[(link.key >> 32) + 1];
        ++nbr_offset_[(link.key & 0xffffffffULL) + 1];
    }
    std::partial_sum(nbr_offset_.begin(), nbr_offset_.end(),
                     nbr_offset_.begin());
    nbr_id_.resize(nbr_offset_[n]);
    nbr_rx_mw_.resize(nbr_offset_[n]);
    std::vector<std::uint32_t> cursor(nbr_offset_.begin(),
                                      nbr_offset_.end() - 1);
    // Filling in key order leaves every row sorted by neighbor id: row v
    // first receives its lower-id neighbors u (keys (u, v), ascending u),
    // then its higher-id ones w (keys (v, w), ascending w). Fan-out order
    // - and with it fading draws and delivery callbacks - is therefore a
    // function of the topology alone.
    for (const link_entry& link : links_) {
        if (!audible(link.gain_db)) continue;
        const auto a = static_cast<node_id>(link.key >> 32);
        const auto b = static_cast<node_id>(link.key & 0xffffffffULL);
        // rx power is symmetric: common tx power plus the symmetric gain.
        const double mw =
            propagation::dbm_to_mw(radio_.tx_power_dbm + link.gain_db);
        nbr_id_[cursor[a]] = b;
        nbr_rx_mw_[cursor[a]++] = mw;
        nbr_id_[cursor[b]] = a;
        nbr_rx_mw_[cursor[b]++] = mw;
    }
}

const double* medium::row_rx_mw(node_id src) const {
    const std::vector<double>& faded = slots_[src].rx_mw;
    return faded.empty() ? nbr_rx_mw_.data() + nbr_offset_[src]
                         : faded.data();
}

double medium::external_mw(const node_air& node) const {
    return noise_mw_ + std::max(node.ext_mw.value(), 0.0);
}

double medium::external_power_dbm(node_id n) const {
    check_node(n, "medium::external_power_dbm");
    return propagation::mw_to_dbm(external_mw(nodes_[n]));
}

double medium::checked_cca_threshold_mw(double threshold_dbm) const {
    if (std::isnan(threshold_dbm)) {
        throw std::invalid_argument("medium: CCA threshold is NaN");
    }
    if (threshold_dbm <= radio_.audibility_floor_dbm) {
        throw std::invalid_argument(
            "medium: a CCA threshold must sit above audibility_floor_dbm - "
            "at or below it the node is deaf to culled power that should "
            "count (got " + std::to_string(threshold_dbm) + " dBm)");
    }
    return cca_threshold_mw(threshold_dbm);
}

void medium::set_cca_threshold_dbm(node_id n, double threshold_dbm) {
    check_node(n, "medium::set_cca_threshold_dbm");
    nodes_[n].cca_threshold_mw = checked_cca_threshold_mw(threshold_dbm);
    cca_threshold_dbm_[n] = threshold_dbm;
    cca_judge(n);
}

double medium::cca_threshold_dbm(node_id n) const {
    check_node(n, "medium::cca_threshold_dbm");
    return cca_threshold_dbm_[n];
}

void medium::cca_sample(node_id n) {
    nodes_[n].cca_sample_mw = external_mw(nodes_[n]);
    cca_judge(n);
}

void medium::cca_judge(node_id n) {
    node_air& node = nodes_[n];
    const bool busy = node.cca_sample_mw >= node.cca_threshold_mw;
    if (busy == node.cca_busy) return;
    node.cca_busy = busy;
    listeners_[n]->on_energy_busy(busy);
}

void medium::sample_row_cca(node_id src) {
    // Clear-channel assessment takes time: callers run this
    // cca_delay_us after a start or an end, so nodes see the power as
    // it is *then*. The stale window is what permits slot collisions.
    // Only src's row saw any power move; src itself re-senses too (a
    // half-duplex radio after its own start or end). Samples run in
    // ascending node id: flips schedule timers, and same-time timers
    // fire in insertion order, so src takes its sorted place inside its
    // row.
    const node_id* first = nbr_id_.data() + nbr_offset_[src];
    const node_id* last = nbr_id_.data() + nbr_offset_[src + 1];
    const node_id* split = std::lower_bound(first, last, src);
    for (const node_id* it = first; it != split; ++it) cca_sample(*it);
    cca_sample(src);
    for (const node_id* it = split; it != last; ++it) cca_sample(*it);
}

void medium::refresh_power_sums() {
    // Exact rebuild of every incremental sum from the on-air nodes, in
    // ascending id, so the compensated accounting can never drift over
    // long runs. Keyed to event counts by the caller - deterministic,
    // never wall clock.
    for (node_air& node : nodes_) {
        node.ext_mw.reset();
        node.audible = 0;
    }
    for (node_id src = 0; src < nodes_.size(); ++src) {
        if (!nodes_[src].on_air) continue;
        const double* row = row_rx_mw(src);
        const std::size_t begin = nbr_offset_[src];
        const std::size_t end = nbr_offset_[src + 1];
        for (std::size_t s = begin; s < end; ++s) {
            node_air& node = nodes_[nbr_id_[s]];
            node.ext_mw.add(row[s - begin]);
            ++node.audible;
        }
    }
}

void medium::start_transmission(node_id src, const frame& f,
                                bool cs_said_idle) {
    check_node(src, "medium::start_transmission");
    node_air& self = nodes_[src];
    if (self.on_air) {
        throw std::logic_error("medium::start_transmission: already on air");
    }
    if (!frozen_) freeze_topology();
    ++counters_.transmissions;
    const sim::time_us now = sim_.now();
    const std::size_t begin = nbr_offset_[src];
    const std::size_t end = nbr_offset_[src + 1];

    // A transmitter abandons any reception in progress.
    self.lock.src = no_lock;

    // The node's slot is free: it is off air, and its last frame's end
    // settled every reception locked to it.
    transmission& t = slots_[src];
    t.f = f;
    t.start = now;
    t.end = now + f.airtime_us();
    t.announce.clear();
    if (radio_.fading_sigma_db > 0.0) {
        // Fade draws only for the audible neighbors, in row (node-id)
        // order, folded straight into the precomputed rx power. The row
        // keeps its capacity from frame to frame.
        t.rx_mw.resize(end - begin);
        for (std::size_t s = begin; s < end; ++s) {
            const double fade = radio_.fading_sigma_db * rng_.normal();  // dB
            t.rx_mw[s - begin] =
                nbr_rx_mw_[s] * propagation::db_to_linear(fade);
        }
    }
    self.on_air = true;

    // Pathology accounting: did this start overlap an audible frame?
    bool audible = false;
    bool mutual_recent_start = false;
    const double* row = row_rx_mw(src);
    // One pass in row order. At each neighbor the frame's power joins
    // the running external sum and raises the worst external power of
    // the neighbor's lock (if it holds one: no branch); then the
    // neighbor counts toward the pathology accounting if it is on the
    // air and audible, and is offered a lock.
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        node_air& node = nodes_[n];
        const double power_mw = row[s - begin];
        node.ext_mw.add(power_mw);
        ++node.audible;
        const double external = external_mw(node);
        node.lock.max_external_mw =
            std::max(node.lock.max_external_mw, external);
        // Unfaded sensed power, symmetric in (src, neighbor): one
        // precomputed row value answers both directions of the
        // mutual-audibility check. Rarely true, so tested first.
        if (nbr_rx_mw_[s] >= cs_threshold_mw_ && node.on_air) {
            audible = true;
            if (now - slots_[n].start <= capacity::ofdm_timing::slot_us) {
                mutual_recent_start = true;
            }
        }
        if (power_mw < preamble_threshold_mw_) continue;
        if (node.on_air) continue;  // deaf while transmitting
        const double interference =
            std::max(external - power_mw, min_positive_mw);
        if (power_mw < capture_ratio_ * interference) continue;
        // The preamble is decodable at this node: list it for the
        // after-start event (carrier sense hook), and lock if the
        // receiver is free.
        t.announce.push_back(n);
        if (node.lock.src == no_lock) {
            node.lock = reception{src, power_mw, external};
        }
    }
    if (audible) {
        ++counters_.busy_starts;
        if (mutual_recent_start) {
            ++counters_.slot_collisions;
        } else if (cs_said_idle) {
            ++counters_.chain_collisions;
        }
    }
    // The after-start event (see the header comment).
    sim_.schedule_in(radio_.cca_delay_us, [this, src] {
        const transmission& tx = slots_[src];
        for (const node_id n : tx.announce) listeners_[n]->on_preamble(tx.end);
        sample_row_cca(src);
    });

    sim_.schedule_at(t.end, [this, src] { end_transmission(src); });
}

void medium::end_transmission(node_id src) {
    // Copy the frame the callbacks need: on_tx_complete may start src's
    // next frame, which reuses the slot.
    const frame ended = slots_[src].f;
    nodes_[src].on_air = false;

    // end_transmission only runs from a scheduled event, never nested,
    // so the member scratch is free here.
    std::vector<delivery>& deliveries = delivery_scratch_;
    deliveries.clear();
    const double* row = row_rx_mw(src);
    const std::size_t begin = nbr_offset_[src];
    const std::size_t end = nbr_offset_[src + 1];
    // One pass in row order: the frame's power leaves each neighbor's
    // sum, and a reception locked to it settles at the PER of its worst
    // SINR, formed here from the worst external power the lock saw.
    // Only row neighbors can hold such a lock (locking requires power
    // above the preamble sensitivity, which sits above the floor).
    // Interference relief never raises a lock's worst external power,
    // so no other reception needs a visit.
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        node_air& node = nodes_[n];
        node.ext_mw.sub(row[s - begin]);
        if (--node.audible == 0) {
            // The audible set emptied: the true sum is exactly zero, so
            // drop any accumulated rounding with it.
            node.ext_mw.reset();
        }
        if (node.lock.src != src) continue;
        const double signal_mw = node.lock.signal_mw;
        const double worst_sinr =
            signal_mw / std::max(node.lock.max_external_mw - signal_mw,
                                 min_positive_mw);
        const double sinr_db = propagation::linear_to_db(worst_sinr);
        const double per =
            errors_.packet_error_rate(*ended.rate, sinr_db, ended.bytes);
        const bool decoded = rng_.uniform() >= per;
        deliveries.push_back({n, decoded});
        node.lock.src = no_lock;
    }
    if (++ends_since_refresh_ >= power_refresh_interval) {
        refresh_power_sums();
        ends_since_refresh_ = 0;
    }
    for (const auto& d : deliveries) {
        listeners_[d.rx]->on_frame_received(ended, d.decoded);
    }
    sim_.schedule_in(radio_.cca_delay_us,
                     [this, src] { sample_row_cca(src); });
    listeners_[src]->on_tx_complete(ended);
}

}  // namespace csense::mac
