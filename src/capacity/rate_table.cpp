#include "src/capacity/rate_table.hpp"

#include <cmath>
#include <stdexcept>

namespace csense::capacity {

std::string_view modulation_name(modulation m) noexcept {
    switch (m) {
        case modulation::bpsk: return "BPSK";
        case modulation::qpsk: return "QPSK";
        case modulation::qam16: return "16-QAM";
        case modulation::qam64: return "64-QAM";
    }
    return "?";
}

const std::vector<phy_rate>& ofdm_rates() {
    // min_snr_db values follow typical 802.11a receiver sensitivity specs
    // (e.g. Atheros data sheets), expressed as SNR over a -95 dBm floor.
    static const std::vector<phy_rate> rates = {
        {6.0, modulation::bpsk, 1.0 / 2.0, 24, 5.0},
        {9.0, modulation::bpsk, 3.0 / 4.0, 36, 6.0},
        {12.0, modulation::qpsk, 1.0 / 2.0, 48, 8.0},
        {18.0, modulation::qpsk, 3.0 / 4.0, 72, 10.0},
        {24.0, modulation::qam16, 1.0 / 2.0, 96, 13.0},
        {36.0, modulation::qam16, 3.0 / 4.0, 144, 17.0},
        {48.0, modulation::qam64, 2.0 / 3.0, 192, 21.0},
        {54.0, modulation::qam64, 3.0 / 4.0, 216, 23.0},
    };
    return rates;
}

const std::vector<phy_rate>& thesis_sweep_rates() {
    static const std::vector<phy_rate> rates = {
        rate_by_mbps(6.0),  rate_by_mbps(9.0),  rate_by_mbps(12.0),
        rate_by_mbps(18.0), rate_by_mbps(24.0),
    };
    return rates;
}

const phy_rate& rate_by_mbps(double mbps) {
    for (const auto& rate : ofdm_rates()) {
        if (rate.mbps == mbps) return rate;
    }
    throw std::invalid_argument("rate_by_mbps: not an 802.11a rate");
}

const phy_rate& best_rate_for_snr(double snr_db,
                                  const std::vector<phy_rate>& table) {
    if (table.empty()) throw std::invalid_argument("best_rate_for_snr: empty table");
    const phy_rate* best = &table.front();
    for (const auto& rate : table) {
        if (rate.min_snr_db <= snr_db && rate.mbps > best->mbps) best = &rate;
    }
    return *best;
}

double frame_airtime_us(const phy_rate& rate, int payload_bytes) {
    if (payload_bytes <= 0) {
        throw std::invalid_argument("frame_airtime_us: payload must be positive");
    }
    const int bits = ofdm_timing::service_tail_bits + 8 * payload_bytes;
    const int symbols =
        (bits + rate.bits_per_symbol - 1) / rate.bits_per_symbol;
    return ofdm_timing::preamble_us + ofdm_timing::signal_us +
           ofdm_timing::symbol_us * symbols;
}

double saturated_broadcast_pps(const phy_rate& rate, int payload_bytes) {
    const double mean_backoff_us =
        0.5 * static_cast<double>(ofdm_timing::cw_min) * ofdm_timing::slot_us;
    const double cycle_us = ofdm_timing::difs_us + mean_backoff_us +
                            frame_airtime_us(rate, payload_bytes);
    return 1e6 / cycle_us;
}

}  // namespace csense::capacity
