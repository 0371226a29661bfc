#include "src/mac/traffic.hpp"

#include <stdexcept>

namespace csense::mac {

namespace {

class poisson_traffic final : public traffic_source {
public:
    explicit poisson_traffic(double rate_per_us) : rate_per_us_(rate_per_us) {}

    sim::time_us next_interarrival_us(stats::rng& gen) override {
        return gen.exponential(rate_per_us_);
    }

private:
    double rate_per_us_;
};

class cbr_traffic final : public traffic_source {
public:
    explicit cbr_traffic(double period_us) : period_us_(period_us) {}

    sim::time_us next_interarrival_us(stats::rng&) override {
        return period_us_;  // deterministic spacing, no RNG consumed
    }

private:
    double period_us_;
};

/// Interrupted Poisson process: exponential on/off envelope, Poisson
/// arrivals at the peak rate while on. The peak rate is scaled by the
/// duty cycle so the long-run mean equals offered_load_pps, making the
/// load knob comparable across models.
class on_off_traffic final : public traffic_source {
public:
    on_off_traffic(double peak_rate_per_us, double on_mean_us,
                   double off_mean_us)
        : peak_rate_per_us_(peak_rate_per_us),
          on_mean_us_(on_mean_us),
          off_mean_us_(off_mean_us) {}

    sim::time_us next_interarrival_us(stats::rng& gen) override {
        sim::time_us gap = 0.0;
        for (;;) {
            if (on_left_us_ <= 0.0) {
                gap += gen.exponential(1.0 / off_mean_us_);
                on_left_us_ = gen.exponential(1.0 / on_mean_us_);
            }
            const double step = gen.exponential(peak_rate_per_us_);
            if (step <= on_left_us_) {
                on_left_us_ -= step;
                return gap + step;
            }
            gap += on_left_us_;  // burst ended before the next arrival
            on_left_us_ = 0.0;
        }
    }

private:
    double peak_rate_per_us_;
    double on_mean_us_;
    double off_mean_us_;
    double on_left_us_ = 0.0;  ///< remaining burst budget; starts off
};

double checked_rate_per_us(const traffic_config& config) {
    if (!(config.offered_load_pps > 0.0)) {
        throw std::invalid_argument(
            "make_traffic_source: offered_load_pps must be > 0");
    }
    return config.offered_load_pps / 1e6;
}

}  // namespace

std::unique_ptr<traffic_source> make_traffic_source(
    const traffic_config& config) {
    switch (config.model) {
        case traffic_model::saturated:
            return nullptr;  // no arrival process: the node refills inline
        case traffic_model::poisson:
            return std::make_unique<poisson_traffic>(
                checked_rate_per_us(config));
        case traffic_model::cbr:
            return std::make_unique<cbr_traffic>(1.0 /
                                                 checked_rate_per_us(config));
        case traffic_model::on_off: {
            const double mean_rate = checked_rate_per_us(config);
            if (!(config.on_mean_us > 0.0) || !(config.off_mean_us > 0.0)) {
                throw std::invalid_argument(
                    "make_traffic_source: on/off means must be > 0");
            }
            const double duty =
                config.on_mean_us / (config.on_mean_us + config.off_mean_us);
            return std::make_unique<on_off_traffic>(
                mean_rate / duty, config.on_mean_us, config.off_mean_us);
        }
    }
    throw std::invalid_argument("make_traffic_source: unknown model");
}

}  // namespace csense::mac
