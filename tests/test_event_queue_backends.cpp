// Calendar-queue backend edge cases and the heap-vs-wheel differential
// contract: both event_queue backends must produce exactly the same
// (time, insertion-sequence) pop order for any schedule/pop stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;

// Wheel horizon of the default configuration: 4096 buckets x 9 us.
constexpr double kHorizonUs = 4096 * 9.0;

TEST(CalendarQueue, FarFutureEventFiresOnTimeWhileWheelStaysBusy) {
    // Regression: an overflow (beyond-horizon) event must migrate into
    // the wheel as the horizon advances, even though the wheel never
    // drains. A driver event rescheduling itself every 7 us keeps the
    // wheel occupied from t=0 to well past the far event's time.
    sim::event_queue q;
    std::vector<double> fired;
    const double far_at = kHorizonUs + 13000.0;
    q.schedule(far_at, [&fired, far_at] { fired.push_back(far_at); });

    struct driver {
        sim::event_queue* q;
        std::vector<double>* fired;
        double at;
        void operator()() const {
            fired->push_back(at);
            if (at < kHorizonUs + 26000.0) {
                driver next{q, fired, at + 7.0};
                q->schedule(next.at, next);
            }
        }
    };
    q.schedule(7.0, driver{&q, &fired, 7.0});

    while (!q.empty()) q.run_next();
    ASSERT_FALSE(fired.empty());
    // Pop times must be globally nondecreasing - the far event fired in
    // place, not late.
    for (std::size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1], fired[i]) << "out of order at " << i;
    }
    ASSERT_NE(std::find(fired.begin(), fired.end(), far_at), fired.end());
}

TEST(CalendarQueue, SameTickBurstPopsInInsertionOrder) {
    sim::event_queue q;
    std::vector<int> order;
    // 100 events at one timestamp (same tick), interleaved with events
    // in the neighboring buckets on both sides of the tick boundary.
    const double t = 9.0 * 1000.0;  // exactly on a bucket boundary
    for (int i = 0; i < 100; ++i) {
        q.schedule(t, [&order, i] { order.push_back(i); });
    }
    q.schedule(t - 0.5, [&order] { order.push_back(-1); });  // previous tick
    q.schedule(t + 9.0, [&order] { order.push_back(1000); });  // next tick
    q.schedule(std::nextafter(t, 0.0), [&order] { order.push_back(-2); });
    while (!q.empty()) q.run_next();
    ASSERT_EQ(order.size(), 103u);
    EXPECT_EQ(order[0], -1);  // earlier times first...
    EXPECT_EQ(order[1], -2);  // ...in time order, not insertion order
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 2], i);
    }
    EXPECT_EQ(order.back(), 1000);
}

TEST(CalendarQueue, NegativeAndHugeTimesStayOrdered) {
    sim::event_queue q;
    std::vector<double> fired;
    const auto record = [&fired, &q](double at) {
        q.schedule(at, [&fired, at] { fired.push_back(at); });
    };
    record(-50.0);
    record(1e17);  // far beyond any tick the wheel can represent
    record(0.0);
    record(3.0);
    record(1e16);
    record(-50.0);
    while (!q.empty()) q.run_next();
    const std::vector<double> want{-50.0, -50.0, 0.0, 3.0, 1e16, 1e17};
    EXPECT_EQ(fired, want);
}

TEST(CalendarQueue, BackendsReportConfiguredKind) {
    sim::event_queue calendar;
    sim::event_queue heap(sim::queue_backend::heap);
    EXPECT_EQ(calendar.backend(), sim::queue_backend::calendar);
    EXPECT_EQ(heap.backend(), sim::queue_backend::heap);
}

// The differential fuzz: one deterministic stream of schedule /
// bounded-pop / peek operations applied to both backends must yield an
// identical pop sequence.
TEST(EventQueueDifferential, RandomStreamsPopIdentically) {
    sim::event_queue calendar;
    sim::event_queue heap(sim::queue_backend::heap);
    stats::rng gen(20260808);

    struct popped {
        double at;
        int tag;
        bool operator==(const popped&) const = default;
    };
    std::vector<popped> cal_pops;
    std::vector<popped> heap_pops;
    double clock = 0.0;
    int next_tag = 0;

    const auto draw_time = [&gen, &clock] {
        const double u = gen.uniform();
        if (u < 0.30) {
            // Slot-aligned: forces same-tick ties and bucket-boundary
            // collisions.
            return clock + 9.0 * static_cast<double>(gen.uniform_int(64));
        }
        if (u < 0.60) return clock + gen.uniform(0.0, 200.0);
        if (u < 0.85) return clock + gen.uniform(0.0, 2.0 * kHorizonUs);
        if (u < 0.95) return clock + gen.uniform(0.0, 100.0 * kHorizonUs);
        return clock;  // exactly "now"
    };

    for (int step = 0; step < 30000; ++step) {
        const double u = gen.uniform();
        if (u < 0.5) {
            const double at = draw_time();
            const int tag = next_tag++;
            calendar.schedule(
                at, [&cal_pops, at, tag] { cal_pops.push_back({at, tag}); });
            heap.schedule(
                at, [&heap_pops, at, tag] { heap_pops.push_back({at, tag}); });
        } else if (u < 0.9) {
            auto cal_next = calendar.pop_next_at_most(clock + 500.0);
            auto heap_next = heap.pop_next_at_most(clock + 500.0);
            ASSERT_EQ(cal_next.has_value(), heap_next.has_value());
            if (cal_next) {
                ASSERT_EQ(cal_next->first, heap_next->first);
                clock = std::max(clock, cal_next->first);
                cal_next->second();
                heap_next->second();
            }
        } else {
            ASSERT_EQ(calendar.empty(), heap.empty());
            if (!calendar.empty()) {
                ASSERT_EQ(calendar.next_time(), heap.next_time());
            }
        }
        ASSERT_EQ(calendar.size(), heap.size());
    }

    // Drain both queues completely.
    while (!calendar.empty() || !heap.empty()) {
        ASSERT_FALSE(calendar.empty());
        ASSERT_FALSE(heap.empty());
        auto cal_next = calendar.pop_next();
        auto heap_next = heap.pop_next();
        ASSERT_EQ(cal_next.first, heap_next.first);
        cal_next.second();
        heap_next.second();
    }
    ASSERT_EQ(cal_pops.size(), heap_pops.size());
    EXPECT_EQ(cal_pops, heap_pops);
}

TEST(EventQueueDifferential, SimulatorRunsIdenticallyOnBothBackends) {
    // Kernel-level differential: the same self-scheduling workload under
    // a simulator on each backend executes the same number of events and
    // finishes at the same clock.
    const auto run = [](sim::queue_backend backend) {
        sim::simulator s(backend);
        stats::rng gen(77);
        std::uint64_t sum = 0;
        struct ticker {
            sim::simulator* s;
            stats::rng* gen;
            std::uint64_t* sum;
            int remaining;
            void operator()() const {
                *sum += static_cast<std::uint64_t>(s->now() * 16.0);
                if (remaining > 0) {
                    ticker next{s, gen, sum, remaining - 1};
                    s->schedule_in(gen->uniform(0.0, 50.0), next);
                }
            }
        };
        for (int i = 0; i < 16; ++i) {
            s.schedule_in(gen.uniform(0.0, 100.0), ticker{&s, &gen, &sum, 400});
        }
        s.run_all();
        return std::pair{s.events_executed(), sum};
    };
    const auto a = run(sim::queue_backend::calendar);
    const auto b = run(sim::queue_backend::heap);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

}  // namespace
