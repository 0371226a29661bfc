// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around the calls it
// makes into each layer's public functions (no instrumentation inside
// the library). Each span has a name, start, end and parent; the spans
// of one replication share its index as an id. Spans stay in memory
// until the run ends and are written out once, as JSON lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct span {
    const char* name;       ///< layer call, e.g. "sim.run"
    std::int64_t start_ns;  ///< since the tracer's origin
    std::int64_t end_ns;    ///< -1 while open
    int parent;             ///< index into the same pass's spans; -1 = root
    long replication;       ///< shared by one replication's spans; -1 = none
};

class tracer {
public:
    tracer();

    /// Opens a child of the innermost open span; returns its index.
    int open(const char* name);
    /// Closes span `index` and makes its parent the innermost open span.
    void close(int index);

    /// Spans opened from now on belong to replication `id`.
    void set_replication(long id) noexcept { replication_ = id; }

    const std::vector<span>& spans() const noexcept { return spans_; }

    /// Summed duration (s) of every span named `name`.
    double total_s(std::string_view name) const;
    /// Summed self time (s) of every span named `name`: its duration
    /// minus the time its direct children cover.
    double self_s(std::string_view name) const;

    /// Appends this pass's spans to `out` as JSON lines tagged `pass`.
    void append_jsonl(std::string& out, int pass) const;

private:
    std::int64_t now_ns() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<span> spans_;
    int current_ = -1;
    long replication_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced passes).
class scoped_span {
public:
    scoped_span(tracer* t, const char* name)
        : tracer_(t), index_(t != nullptr ? t->open(name) : -1) {}
    ~scoped_span() {
        if (tracer_ != nullptr) tracer_->close(index_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    tracer* tracer_;
    int index_;
};

}  // namespace perfbench
