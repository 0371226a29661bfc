// 802.11a/g OFDM bitrates, their modulation parameters, receiver SNR
// requirements, and air-time arithmetic. The §4 experiments sweep the
// subset {6, 9, 12, 18, 24} Mb/s exactly as the thesis' driver did.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace csense::capacity {

/// Modulation used by an OFDM rate.
enum class modulation {
    bpsk,
    qpsk,
    qam16,
    qam64,
};

/// One PHY rate entry.
struct phy_rate {
    double mbps = 0.0;               ///< nominal data rate in Mb/s
    modulation mod = modulation::bpsk;
    double code_rate = 0.5;          ///< convolutional code rate
    int bits_per_symbol = 24;        ///< data bits per 4 us OFDM symbol
    double min_snr_db = 0.0;         ///< SNR at ~10% PER for 1000 B frames
};

/// Human-readable modulation name.
std::string_view modulation_name(modulation m) noexcept;

/// The eight 802.11a/g OFDM rates (6..54 Mb/s), ascending.
const std::vector<phy_rate>& ofdm_rates();

/// The subset the thesis' experiments could sweep: {6, 9, 12, 18, 24}.
const std::vector<phy_rate>& thesis_sweep_rates();

/// Look up a rate entry by its Mb/s value; throws if not a valid rate.
const phy_rate& rate_by_mbps(double mbps);

/// Highest rate whose min_snr_db is at or below the given SNR, or the
/// lowest rate if none qualifies (the radio always has a base rate).
const phy_rate& best_rate_for_snr(double snr_db,
                                  const std::vector<phy_rate>& table = ofdm_rates());

/// 802.11a timing constants (OFDM PHY, 20 MHz channel).
struct ofdm_timing {
    static constexpr double preamble_us = 16.0;  ///< PLCP preamble
    static constexpr double signal_us = 4.0;     ///< SIGNAL field (at base rate)
    static constexpr double symbol_us = 4.0;     ///< OFDM symbol duration
    static constexpr int service_tail_bits = 22; ///< SERVICE + tail bits
    static constexpr double slot_us = 9.0;
    static constexpr double sifs_us = 16.0;
    static constexpr double difs_us = sifs_us + 2.0 * slot_us;  // 34 us
    static constexpr int cw_min = 15;    ///< initial contention window, slots
    static constexpr int cw_max = 1023;  ///< cap of the doubling on retries
};

/// Air time in microseconds of a frame with `payload_bytes` of MAC-level
/// payload (including MAC header/FCS) at the given rate, per 802.11a
/// framing: preamble + SIGNAL + ceil((service+8*bytes+tail) / bits-per-
/// symbol) symbols.
double frame_airtime_us(const phy_rate& rate, int payload_bytes);

/// Throughput in packets/second of a saturated broadcast sender at the
/// given rate: one frame per DIFS + expected backoff (drawn from
/// ofdm_timing::cw_min) + airtime.
double saturated_broadcast_pps(const phy_rate& rate, int payload_bytes);

}  // namespace csense::capacity
