#include "driver/trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

tracer::tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int tracer::open(const char* name) {
    spans_.push_back({name, now_ns(), -1, current_, replication_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void tracer::close(int index) {
    if (index < 0 || index >= static_cast<int>(spans_.size()) ||
        spans_[index].end_ns >= 0) {
        throw std::logic_error("tracer::close: bad or closed span");
    }
    spans_[index].end_ns = now_ns();
    current_ = spans_[index].parent;
}

double tracer::total_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (const auto& s : spans_) {
        if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
}

double tracer::self_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        if (name == s.name) ns += s.end_ns - s.start_ns;
        if (s.parent >= 0 && name == spans_[s.parent].name) {
            ns -= s.end_ns - s.start_ns;
        }
    }
    return static_cast<double>(ns) * 1e-9;
}

void tracer::append_jsonl(std::string& out, int pass) const {
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        std::snprintf(line, sizeof line,
                      "{\"pass\":%d,\"span\":%zu,\"name\":\"%s\","
                      "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                      "\"replication\":%ld}\n",
                      pass, i, s.name, static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns), s.parent,
                      s.replication);
        out += line;
    }
}

}  // namespace perfbench
