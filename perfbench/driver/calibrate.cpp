#include "driver/calibrate.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

constexpr int pushes = 50'000;
constexpr std::size_t heap_depth = 256;

}  // namespace

double reference_loop_s() {
    const auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<double, std::vector<double>, std::greater<>> heap;
    std::uint64_t x = 0x2545f4914f6cdd1dULL;  // xorshift64, fixed start
    double mw = 0.0;
    for (int i = 0; i < pushes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(static_cast<double>(x >> 11) * 0x1.0p-53 + i * 1e-3);
        if (heap.size() > heap_depth) {
            mw += std::pow(10.0, -heap.top() / 10.0);
            heap.pop();
        }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // The sum is always positive; testing it keeps the loop's work
    // observable, so the compiler cannot drop it.
    if (!(mw > 0.0)) throw std::logic_error("reference loop: no work done");
    return elapsed;
}

}  // namespace perfbench
